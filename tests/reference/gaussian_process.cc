#include "reference/gaussian_process.h"

#include <algorithm>
#include <cmath>
#include <tuple>
#include <utility>

#include "util/logging.h"
#include "util/stats.h"

namespace autopilot::util
{

std::vector<double>
solveLower(const CholeskyFactor &factor, const std::vector<double> &b)
{
    std::vector<double> y = b;
    factor.solveLowerInPlace(y);
    return y;
}

} // namespace autopilot::util

namespace autopilot::dse
{

using util::fatalIf;

namespace
{

double
squaredExponential(const GaussianProcess::Params &params,
                   const std::vector<double> &a,
                   const std::vector<double> &b)
{
    util::panicIf(a.size() != b.size(),
                  "GaussianProcess::kernel: dimension mismatch");
    double sq = 0.0;
    for (std::size_t d = 0; d < a.size(); ++d) {
        const double diff = (a[d] - b[d]) / params.lengthScale;
        sq += diff * diff;
    }
    return params.signalVariance * std::exp(-0.5 * sq);
}

void
checkParams(const GaussianProcess::Params &params)
{
    fatalIf(params.lengthScale <= 0.0 || params.signalVariance <= 0.0 ||
                params.noiseVariance < 0.0,
            "GaussianProcess: bad kernel parameters");
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
gramRows(const GaussianProcess::Params &params,
         const std::vector<std::vector<double>> &inputs, std::size_t first)
{
    const std::size_t n = inputs.size();
    util::Matrix rows(n - first, n, 0.0);
    for (std::size_t i = first; i < n; ++i) {
        for (std::size_t j = 0; j <= i; ++j)
            rows(i - first, j) = squaredExponential(params, inputs[i],
                                                    inputs[j]);
        rows(i - first, i) += params.noiseVariance;
    }
    return rows;
}

constexpr double kFactorJitter = 1e-9;

} // namespace

GaussianProcess::GaussianProcess() : GaussianProcess(Params())
{
}

GaussianProcess::GaussianProcess(const Params &params)
    : kernelParams(params)
{
    checkParams(params);
}

void
GaussianProcess::fit(const std::vector<std::vector<double>> &inputs,
                     const std::vector<double> &targets)
{
    fatalIf(inputs.empty() || inputs.size() != targets.size(),
            "GaussianProcess::fit: empty or mismatched training data");

    trainInputs = inputs;

    std::vector<double> standardized = targets;
    std::tie(targetMean, targetStd) = standardize(standardized);

    factor = std::make_unique<util::CholeskyFactor>(
        gramRows(kernelParams, inputs, 0), kFactorJitter);
    alpha = factor->solve(standardized);
}

GpPrediction
GaussianProcess::predict(const std::vector<double> &query) const
{
    fatalIf(!fitted(), "GaussianProcess::predict: model not fitted");

    const std::size_t n = trainInputs.size();
    std::vector<double> kstar(n, 0.0);
    for (std::size_t i = 0; i < n; ++i)
        kstar[i] = squaredExponential(kernelParams, trainInputs[i], query);

    double mean_std = 0.0;
    for (std::size_t i = 0; i < n; ++i)
        mean_std += kstar[i] * alpha[i];

    // Variance: k(x,x) - k*^T K^{-1} k*.
    const std::vector<double> v = util::solveLower(*factor, kstar);
    double reduction = 0.0;
    for (double value : v)
        reduction += value * value;
    const double var_std =
        std::max(0.0, kernelParams.signalVariance - reduction);

    GpPrediction prediction;
    prediction.mean = mean_std * targetStd + targetMean;
    prediction.variance = var_std * targetStd * targetStd;
    return prediction;
}

namespace reference
{

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
    fatalIf(!fitted(), "SharedGaussianProcess::predict: model not fitted");

    const std::size_t n = trainInputs.size();
    std::vector<double> kstar(n, 0.0);
    for (std::size_t i = 0; i < n; ++i)
        kstar[i] = squaredExponential(kernelParams, trainInputs[i], query);

    std::vector<GpPrediction> predictions(fits.size());
    for (std::size_t t = 0; t < fits.size(); ++t) {
        double mean_std = 0.0;
        for (std::size_t i = 0; i < n; ++i)
            mean_std += kstar[i] * fits[t].alpha[i];
        predictions[t].mean = mean_std * fits[t].std + fits[t].mean;
    }

    // Variance: k(x,x) - k*^T K^{-1} k*, shared by every target.
    factor->solveLowerInPlace(kstar);
    double reduction = 0.0;
    for (double value : kstar)
        reduction += value * value;
    const double var_std =
        std::max(0.0, kernelParams.signalVariance - reduction);
    for (std::size_t t = 0; t < fits.size(); ++t)
        predictions[t].variance = var_std * fits[t].std * fits[t].std;
    return predictions;
}

} // namespace reference

} // namespace autopilot::dse
