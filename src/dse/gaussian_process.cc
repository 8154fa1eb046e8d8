#include "dse/gaussian_process.h"

#include <algorithm>
#include <cmath>
#include <tuple>
#include <utility>

#include "util/logging.h"
#include "util/stats.h"

namespace autopilot::dse
{

using util::fatalIf;

namespace
{

/**
 * The squared-exponential kernel s² exp(-½ Σ_d ((a_d - b_d) / l)²).
 *
 * When the length scale l is a power of two, 1 / l is exact, so
 * (a_d - b_d) * (1 / l) has the same real value as (a_d - b_d) / l and
 * rounds to the same double: the kernel is bit-identical without its
 * per-dimension division. Any other l divides.
 */
class SquaredExponential
{
  public:
    explicit SquaredExponential(const GpParams &params)
        : params(params), inverse(1.0 / params.lengthScale)
    {
        int exponent = 0;
        if (std::frexp(params.lengthScale, &exponent) != 0.5 ||
            !std::isfinite(inverse))
            inverse = 0.0;
    }

    double
    operator()(const std::vector<double> &a,
               const std::vector<double> &b) const
    {
        util::panicIf(a.size() != b.size(),
                      "SharedGaussianProcess::kernel: dimension mismatch");
        double sq = 0.0;
        if (inverse != 0.0) {
            for (std::size_t d = 0; d < a.size(); ++d) {
                const double diff = (a[d] - b[d]) * inverse;
                sq += diff * diff;
            }
        } else {
            for (std::size_t d = 0; d < a.size(); ++d) {
                const double diff = (a[d] - b[d]) / params.lengthScale;
                sq += diff * diff;
            }
        }
        return params.signalVariance * std::exp(-0.5 * sq);
    }

  private:
    GpParams params;
    double inverse; ///< Exact 1 / lengthScale, or 0 when inexact.
};

void
checkParams(const GpParams &params)
{
    fatalIf(params.lengthScale <= 0.0 || params.signalVariance <= 0.0 ||
                params.noiseVariance < 0.0,
            "SharedGaussianProcess: bad kernel parameters");
}

/** Standardize @p targets in place; returns {mean, std}. */
std::pair<double, double>
standardize(std::vector<double> &targets)
{
    const double mean = util::mean(targets);
    double std = util::stddev(targets);
    if (std < 1e-12)
        std = 1.0;
    for (double &target : targets)
        target = (target - mean) / std;
    return {mean, std};
}

/** Gram rows @p first.. of @p inputs, up to the diagonal, plus noise. */
util::Matrix
gramRows(const GpParams &params,
         const std::vector<std::vector<double>> &inputs, std::size_t first)
{
    const SquaredExponential kernel(params);
    const std::size_t n = inputs.size();
    util::Matrix rows(n - first, n, 0.0);
    for (std::size_t i = first; i < n; ++i) {
        for (std::size_t j = 0; j <= i; ++j)
            rows(i - first, j) = kernel(inputs[i], inputs[j]);
        rows(i - first, i) += params.noiseVariance;
    }
    return rows;
}

constexpr double kFactorJitter = 1e-9;

} // namespace

double
GpPrediction::stddev() const
{
    return std::sqrt(std::max(0.0, variance));
}

SharedGaussianProcess::SharedGaussianProcess()
    : SharedGaussianProcess(GpParams())
{
}

SharedGaussianProcess::SharedGaussianProcess(const GpParams &params)
    : kernelParams(params)
{
    checkParams(params);
}

void
SharedGaussianProcess::fit(const std::vector<std::vector<double>> &inputs,
                           const std::vector<std::vector<double>> &targets)
{
    fatalIf(inputs.empty() || targets.empty(),
            "SharedGaussianProcess::fit: empty training data");
    for (const std::vector<double> &column : targets) {
        fatalIf(column.size() != inputs.size(),
                "SharedGaussianProcess::fit: mismatched training data");
    }

    const std::size_t kept = trainInputs.size();
    const bool extends =
        factor && kept <= inputs.size() &&
        std::equal(trainInputs.begin(), trainInputs.end(), inputs.begin());
    if (extends) {
        if (kept < inputs.size())
            factor->appendRows(gramRows(kernelParams, inputs, kept));
        lastReusedRows = kept;
    } else {
        factor = std::make_unique<util::CholeskyFactor>(
            gramRows(kernelParams, inputs, 0), kFactorJitter);
        lastReusedRows = 0;
    }
    trainInputs = inputs;

    fits.assign(targets.size(), Target());
    for (std::size_t t = 0; t < targets.size(); ++t) {
        std::vector<double> standardized = targets[t];
        std::tie(fits[t].mean, fits[t].std) = standardize(standardized);
        fits[t].alpha = factor->solve(standardized);
    }
}

std::vector<GpPrediction>
SharedGaussianProcess::predict(const std::vector<double> &query) const
{
    std::vector<GpPrediction> predictions(fits.size());
    predictBlock(&query, 1, predictions.data());
    return predictions;
}

void
SharedGaussianProcess::predictBlock(const std::vector<double> *queries,
                                    std::size_t count,
                                    GpPrediction *out) const
{
    constexpr std::size_t lanes = kBlockLanes;
    fatalIf(!fitted(), "SharedGaussianProcess::predict: model not fitted");
    util::panicIf(count == 0 || count > lanes,
                  "SharedGaussianProcess::predictBlock: 1 to 4 queries");

    // Lane-interleaved k* columns: ks[i * lanes + j] = k(x_i, query j).
    // Unused lanes stay 0, solve to 0 and are never read back.
    const SquaredExponential kernel(kernelParams);
    const std::size_t n = trainInputs.size();
    std::vector<double> ks(n * lanes, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < count; ++j)
            ks[i * lanes + j] = kernel(trainInputs[i], queries[j]);
    }

    // Mean: per target, one left-to-right dot-product chain per lane.
    const std::size_t num_targets = fits.size();
    for (std::size_t t = 0; t < num_targets; ++t) {
        const double *alpha = fits[t].alpha.data();
        double mean_std[lanes] = {0.0, 0.0, 0.0, 0.0};
        for (std::size_t i = 0; i < n; ++i) {
            const double *k = &ks[i * lanes];
            for (std::size_t j = 0; j < lanes; ++j)
                mean_std[j] += k[j] * alpha[i];
        }
        for (std::size_t j = 0; j < count; ++j)
            out[j * num_targets + t].mean =
                mean_std[j] * fits[t].std + fits[t].mean;
    }

    // Variance: k(x,x) - k*^T K^{-1} k*, shared by every target. The
    // forward solve L y = k* runs every lane's substitution chain in one
    // pass over each row of L, each chain in CholeskyFactor's order:
    // y_i = (k*_i - L(i,0) y_0 - ... - L(i,i-1) y_{i-1}) / L(i,i).
    const util::Matrix &lower = factor->lower();
    for (std::size_t i = 0; i < n; ++i) {
        const double *row = lower.row(i);
        double *y = &ks[i * lanes];
        double sum[lanes] = {y[0], y[1], y[2], y[3]};
        for (std::size_t k = 0; k < i; ++k) {
            const double *solved = &ks[k * lanes];
            for (std::size_t j = 0; j < lanes; ++j)
                sum[j] -= row[k] * solved[j];
        }
        for (std::size_t j = 0; j < lanes; ++j)
            y[j] = sum[j] / row[i];
    }
    double reduction[lanes] = {0.0, 0.0, 0.0, 0.0};
    for (std::size_t i = 0; i < n; ++i) {
        const double *y = &ks[i * lanes];
        for (std::size_t j = 0; j < lanes; ++j)
            reduction[j] += y[j] * y[j];
    }
    for (std::size_t j = 0; j < count; ++j) {
        const double var_std =
            std::max(0.0, kernelParams.signalVariance - reduction[j]);
        for (std::size_t t = 0; t < num_targets; ++t)
            out[j * num_targets + t].variance =
                var_std * fits[t].std * fits[t].std;
    }
}

} // namespace autopilot::dse
