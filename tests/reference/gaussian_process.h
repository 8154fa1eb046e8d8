/**
 * @file
 * Reference Gaussian processes, kept verbatim as the oracles
 * dse::SharedGaussianProcess is checked against bit for bit:
 *
 *  - GaussianProcess: one squared-exponential GP per objective, each
 *    with its own Gram matrix and Cholesky factor.
 *  - reference::SharedGaussianProcess: the shared-factor GP answering
 *    one query at a time (one k* column, one forward solve per query),
 *    the path the library's four-lane predictBlock() replaced.
 *
 * Plus util::solveLower, the allocating forward solve GaussianProcess
 * uses.
 * Test-only; the library fits one shared factor and scores queries in
 * blocks of four.
 */

#ifndef AUTOPILOT_TESTS_REFERENCE_GAUSSIAN_PROCESS_H
#define AUTOPILOT_TESTS_REFERENCE_GAUSSIAN_PROCESS_H

#include <cstddef>
#include <memory>
#include <vector>

#include "dse/gaussian_process.h"
#include "util/matrix.h"

namespace autopilot::util
{

/** Solve L y = b for the factor's L (forward substitution only). */
std::vector<double> solveLower(const CholeskyFactor &factor,
                               const std::vector<double> &b);

} // namespace autopilot::util

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

namespace reference
{

/** One-query-at-a-time shared-factor GP (see the file comment). */
class SharedGaussianProcess
{
  public:
    SharedGaussianProcess();

    explicit SharedGaussianProcess(const GpParams &params);

    /** Fit one GP per target vector over one shared factor. */
    void fit(const std::vector<std::vector<double>> &inputs,
             const std::vector<std::vector<double>> &targets);

    bool fitted() const { return factor != nullptr; }

    /** Factor rows the last fit() kept from the fit before it. */
    std::size_t reusedRows() const { return lastReusedRows; }

    /** Posterior of every target at a query point, in target order. */
    std::vector<GpPrediction>
    predict(const std::vector<double> &query) const;

  private:
    struct Target
    {
        std::vector<double> alpha;
        double mean = 0.0;
        double std = 1.0;
    };

    GpParams kernelParams;
    std::vector<std::vector<double>> trainInputs;
    std::vector<Target> fits;
    std::unique_ptr<util::CholeskyFactor> factor;
    std::size_t lastReusedRows = 0;
};

} // namespace reference

} // namespace autopilot::dse

#endif // AUTOPILOT_TESTS_REFERENCE_GAUSSIAN_PROCESS_H
