/**
 * @file
 * Reference single-target Gaussian process, kept verbatim as the oracle
 * dse::SharedGaussianProcess is checked against bit for bit: one
 * squared-exponential GP per objective, each with its own Gram matrix
 * and Cholesky factor. Test-only; the library fits one shared factor.
 */

#ifndef AUTOPILOT_TESTS_REFERENCE_GAUSSIAN_PROCESS_H
#define AUTOPILOT_TESTS_REFERENCE_GAUSSIAN_PROCESS_H

#include <memory>
#include <vector>

#include "dse/gaussian_process.h"
#include "util/matrix.h"

namespace autopilot::dse
{

/** Squared-exponential-kernel GP regressor. */
class GaussianProcess
{
  public:
    /** Kernel hyperparameters. */
    using Params = GpParams;

    /** Construct with default kernel parameters. */
    GaussianProcess();

    explicit GaussianProcess(const Params &params);

    /**
     * Fit to training data.
     *
     * @param inputs  Feature vectors (all the same dimension, non-empty).
     * @param targets One target per input.
     */
    void fit(const std::vector<std::vector<double>> &inputs,
             const std::vector<double> &targets);

    /** True after a successful fit(). */
    bool fitted() const { return factor != nullptr; }

    /** Posterior mean and variance at a query point. */
    GpPrediction predict(const std::vector<double> &query) const;

    const Params &params() const { return kernelParams; }

  private:
    Params kernelParams;
    std::vector<std::vector<double>> trainInputs;
    std::vector<double> alpha; ///< K^{-1} (y - mean), standardized.
    std::unique_ptr<util::CholeskyFactor> factor;
    double targetMean = 0.0;
    double targetStd = 1.0;
};

} // namespace autopilot::dse

#endif // AUTOPILOT_TESTS_REFERENCE_GAUSSIAN_PROCESS_H
