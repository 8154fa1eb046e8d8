/**
 * @file
 * Gaussian-process regression with a squared-exponential kernel.
 *
 * This is the Bayesian statistical model of Section III-B: one GP is fit
 * per objective function; its posterior mean/variance feed the SMS-EGO
 * acquisition. The SE kernel is used "due to its simplicity, leading to
 * fast computation" [65], exactly as in the paper.
 *
 * Targets are standardized internally (zero mean, unit variance) so one
 * set of kernel hyperparameters works across objectives with very
 * different scales (success fraction vs. watts vs. milliseconds).
 *
 * SharedGaussianProcess fits every objective's GP over one shared
 * Cholesky factor and answers queries in blocks of four. The
 * per-objective GaussianProcess and the one-query-at-a-time shared GP
 * it is checked against bit for bit are test code (tests/reference/).
 */

#ifndef AUTOPILOT_DSE_GAUSSIAN_PROCESS_H
#define AUTOPILOT_DSE_GAUSSIAN_PROCESS_H

#include <cstddef>
#include <memory>
#include <vector>

#include "util/matrix.h"

namespace autopilot::dse
{

/** GP posterior at one query point. */
struct GpPrediction
{
    double mean = 0.0;
    double variance = 0.0;

    /** Posterior standard deviation. */
    double stddev() const;
};

/** Squared-exponential kernel hyperparameters. */
struct GpParams
{
    double lengthScale = 0.25; ///< Shared isotropic length scale.
    double signalVariance = 1.0;
    double noiseVariance = 1e-4;
};

/**
 * One squared-exponential GP per target over a shared input set and
 * kernel.
 *
 * One GP per objective would build identical Gram matrices and Cholesky
 * factors, and repeat the same kernel column and variance solve at every
 * query, because the models differ only in their targets. This class
 * builds one factor, keeps one alpha per target, and answers each query
 * with one kernel column and one solve. Every prediction is
 * bit-identical to a separate single-target GP per objective (the
 * test-side reference in tests/reference/gaussian_process.h).
 *
 * fit() on inputs that extend the previous fit's inputs (an append-only
 * archive) extends the factor by the new rows instead of refactorizing,
 * which is also bit-identical (see util::CholeskyFactor).
 *
 * predictBlock() answers up to four queries in one pass over L and each
 * alpha. Every query's numbers still come from its own chains of
 * operations, in the lone query's order; the four chains only run side
 * by side, which hides the add latency of the forward solve.
 */
class SharedGaussianProcess
{
  public:
    /** Construct with default kernel parameters. */
    SharedGaussianProcess();

    explicit SharedGaussianProcess(const GpParams &params);

    /**
     * Fit one GP per target vector.
     *
     * @param inputs  Feature vectors (all the same dimension, non-empty).
     * @param targets Target vectors, each with one value per input.
     */
    void fit(const std::vector<std::vector<double>> &inputs,
             const std::vector<std::vector<double>> &targets);

    /** True after a successful fit(). */
    bool fitted() const { return factor != nullptr; }

    /** Factor rows the last fit() kept from the fit before it. */
    std::size_t reusedRows() const { return lastReusedRows; }

    /** Number of targets (objectives) of the last fit(). */
    std::size_t targets() const { return fits.size(); }

    /** Posterior of every target at a query point, in target order. */
    std::vector<GpPrediction>
    predict(const std::vector<double> &query) const;

    /** Queries one predictBlock() call scores together. */
    static constexpr std::size_t kBlockLanes = 4;

    /**
     * Posteriors of @p count (1..kBlockLanes) queries: query j's
     * posterior of target t lands in out[j * targets() + t]. Each one is
     * bit-identical to predict() of that query alone.
     */
    void predictBlock(const std::vector<double> *queries, std::size_t count,
                      GpPrediction *out) const;

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

} // namespace autopilot::dse

#endif // AUTOPILOT_DSE_GAUSSIAN_PROCESS_H
