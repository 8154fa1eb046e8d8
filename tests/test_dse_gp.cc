/**
 * @file
 * Tests for the design-space encoding and the Gaussian-process surrogate.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#include "dse/design_space.h"
#include "dse/gaussian_process.h"
#include "reference/gaussian_process.h"
#include "util/rng.h"

namespace dse = autopilot::dse;
using autopilot::util::Rng;

// --------------------------------------------------------- design space --

TEST(DesignSpace, CardinalityMatchesTableII)
{
    const dse::DesignSpace space;
    // 9 layers x 3 filters x 8 PE rows x 8 PE cols x 8^3 SRAM choices.
    EXPECT_EQ(space.cardinality(), 9LL * 3 * 8 * 8 * 8 * 8 * 8);
}

TEST(DesignSpace, EncodeDecodeRoundTrip)
{
    const dse::DesignSpace space;
    Rng rng(11);
    for (int i = 0; i < 200; ++i) {
        const dse::Encoding encoding = space.randomEncoding(rng);
        const dse::DesignPoint point = space.decode(encoding);
        EXPECT_EQ(space.encode(point), encoding);
    }
}

TEST(DesignSpace, DecodeProducesLegalValues)
{
    const dse::DesignSpace space;
    Rng rng(13);
    const autopilot::nn::PolicySpace policy_space;
    const autopilot::systolic::HardwareSpace hw_space;
    for (int i = 0; i < 100; ++i) {
        const dse::DesignPoint point =
            space.decode(space.randomEncoding(rng));
        EXPECT_TRUE(policy_space.contains(point.policy));
        EXPECT_TRUE(hw_space.contains(point.accel));
        point.accel.validate();
    }
}

TEST(DesignSpace, NeighborChangesExactlyOneDimension)
{
    const dse::DesignSpace space;
    Rng rng(17);
    for (int i = 0; i < 200; ++i) {
        const dse::Encoding encoding = space.randomEncoding(rng);
        const dse::Encoding next = space.neighbor(encoding, rng);
        int changed = 0;
        for (std::size_t d = 0; d < dse::designDims; ++d) {
            if (encoding[d] != next[d])
                ++changed;
            EXPECT_GE(next[d], 0);
            EXPECT_LT(next[d], space.dimensionSizes()[d]);
        }
        EXPECT_EQ(changed, 1);
    }
}

TEST(DesignSpace, FeaturesNormalized)
{
    const dse::DesignSpace space;
    Rng rng(19);
    for (int i = 0; i < 50; ++i) {
        const auto features =
            space.features(space.randomEncoding(rng));
        EXPECT_EQ(features.size(), dse::designDims);
        for (double f : features) {
            EXPECT_GE(f, 0.0);
            EXPECT_LE(f, 1.0);
        }
    }
}

TEST(DesignSpace, PointNameIsStable)
{
    const dse::DesignSpace space;
    const dse::DesignPoint point = space.decode({0, 0, 0, 0, 0, 0, 0});
    EXPECT_EQ(point.name(), "e2e_l2_f32__ws_8x8_i32_f32_o32");
}

TEST(DesignSpaceDeath, DecodeRejectsOutOfRange)
{
    const dse::DesignSpace space;
    EXPECT_EXIT(space.decode({99, 0, 0, 0, 0, 0, 0}),
                ::testing::ExitedWithCode(1), "out of range");
}

// ------------------------------------------------------------------ GP ---

TEST(GaussianProcess, InterpolatesTrainingPoints)
{
    dse::GaussianProcess::Params params;
    params.noiseVariance = 1e-8;
    dse::GaussianProcess gp(params);
    const std::vector<std::vector<double>> inputs = {
        {0.0, 0.0}, {0.5, 0.5}, {1.0, 0.0}};
    const std::vector<double> targets = {1.0, -2.0, 4.0};
    gp.fit(inputs, targets);
    for (std::size_t i = 0; i < inputs.size(); ++i) {
        const auto prediction = gp.predict(inputs[i]);
        EXPECT_NEAR(prediction.mean, targets[i], 1e-3);
        EXPECT_LT(prediction.stddev(), 0.05);
    }
}

TEST(GaussianProcess, UncertaintyGrowsAwayFromData)
{
    dse::GaussianProcess gp;
    gp.fit({{0.0}, {0.1}}, {1.0, 1.2});
    const auto near = gp.predict({0.05});
    const auto far = gp.predict({5.0});
    EXPECT_GT(far.variance, near.variance);
}

TEST(GaussianProcess, RevertsToMeanFarFromData)
{
    dse::GaussianProcess gp;
    gp.fit({{0.0}, {0.2}}, {10.0, 20.0});
    const auto far = gp.predict({100.0});
    EXPECT_NEAR(far.mean, 15.0, 1.0); // Prior mean = target mean.
}

TEST(GaussianProcess, HandlesConstantTargets)
{
    dse::GaussianProcess gp;
    gp.fit({{0.0}, {1.0}, {2.0}}, {3.0, 3.0, 3.0});
    EXPECT_NEAR(gp.predict({0.5}).mean, 3.0, 1e-6);
}

TEST(GaussianProcess, SmoothInterpolationBetweenPoints)
{
    dse::GaussianProcess::Params params;
    params.lengthScale = 0.5;
    params.noiseVariance = 1e-8;
    dse::GaussianProcess gp(params);
    gp.fit({{0.0}, {1.0}}, {0.0, 1.0});
    const double mid = gp.predict({0.5}).mean;
    EXPECT_GT(mid, 0.2);
    EXPECT_LT(mid, 0.8);
}

TEST(GaussianProcess, LearnsSmoothFunction)
{
    // Fit y = sin(2 pi x) on a grid; check prediction error off-grid.
    dse::GaussianProcess::Params params;
    params.lengthScale = 0.15;
    params.noiseVariance = 1e-6;
    dse::GaussianProcess gp(params);
    std::vector<std::vector<double>> inputs;
    std::vector<double> targets;
    for (int i = 0; i <= 20; ++i) {
        const double x = i / 20.0;
        inputs.push_back({x});
        targets.push_back(std::sin(2.0 * M_PI * x));
    }
    gp.fit(inputs, targets);
    for (double x : {0.13, 0.37, 0.61, 0.89}) {
        EXPECT_NEAR(gp.predict({x}).mean, std::sin(2.0 * M_PI * x),
                    0.05)
            << x;
    }
}

TEST(GaussianProcess, VarianceNonNegative)
{
    dse::GaussianProcess gp;
    Rng rng(3);
    std::vector<std::vector<double>> inputs;
    std::vector<double> targets;
    for (int i = 0; i < 30; ++i) {
        inputs.push_back({rng.uniform(), rng.uniform()});
        targets.push_back(rng.normal());
    }
    gp.fit(inputs, targets);
    for (int i = 0; i < 50; ++i) {
        const auto prediction =
            gp.predict({rng.uniform(), rng.uniform()});
        EXPECT_GE(prediction.variance, 0.0);
    }
}

// Shared-factor GP: one Cholesky factor, one alpha per target.

namespace
{

struct GpData
{
    std::vector<std::vector<double>> inputs;
    std::vector<std::vector<double>> targets; ///< One vector per target.
};

/** Three targets on very different scales, like the DSE objectives. */
GpData
randomGpData(std::size_t n, std::uint64_t seed)
{
    Rng rng(seed);
    GpData data;
    data.targets.resize(3);
    for (std::size_t i = 0; i < n; ++i) {
        std::vector<double> x(7);
        for (double &value : x)
            value = rng.uniform();
        data.inputs.push_back(x);
        data.targets[0].push_back(rng.uniform());
        data.targets[1].push_back(2.0 + 10.0 * x[0] * x[1]);
        data.targets[2].push_back(100.0 * std::sin(3.0 * x[2]) +
                                  rng.normal());
    }
    return data;
}

void
expectBitIdenticalPredictions(const dse::SharedGaussianProcess &shared,
                              const GpData &data, std::size_t n,
                              std::uint64_t querySeed)
{
    const std::vector<std::vector<double>> inputs(
        data.inputs.begin(), data.inputs.begin() + n);
    std::vector<dse::GaussianProcess> reference;
    for (const std::vector<double> &column : data.targets) {
        dse::GaussianProcess gp;
        gp.fit(inputs, std::vector<double>(column.begin(),
                                           column.begin() + n));
        reference.push_back(std::move(gp));
    }
    Rng rng(querySeed);
    std::vector<std::vector<double>> queries(inputs.begin(),
                                             inputs.begin() + 3);
    for (int q = 0; q < 40; ++q) {
        std::vector<double> x(7);
        for (double &value : x)
            value = rng.uniform();
        queries.push_back(x);
    }
    for (const std::vector<double> &query : queries) {
        const std::vector<dse::GpPrediction> predictions =
            shared.predict(query);
        ASSERT_EQ(predictions.size(), reference.size());
        for (std::size_t t = 0; t < reference.size(); ++t) {
            const dse::GpPrediction expected = reference[t].predict(query);
            // Exact ==: the shared path must be bit-identical.
            EXPECT_EQ(predictions[t].mean, expected.mean)
                << "target " << t << ", n = " << n;
            EXPECT_EQ(predictions[t].variance, expected.variance)
                << "target " << t << ", n = " << n;
        }
    }
}

std::vector<std::vector<double>>
prefixTargets(const GpData &data, std::size_t n)
{
    std::vector<std::vector<double>> out;
    for (const std::vector<double> &column : data.targets)
        out.emplace_back(column.begin(), column.begin() + n);
    return out;
}

} // namespace

TEST(SharedGaussianProcess, MatchesPerTargetModelsBitwise)
{
    const GpData data = randomGpData(48, 21);
    dse::SharedGaussianProcess shared;
    shared.fit(data.inputs, data.targets);
    EXPECT_EQ(shared.reusedRows(), 0u);
    expectBitIdenticalPredictions(shared, data, 48, 5);
}

TEST(SharedGaussianProcess, AppendedFitsMatchFreshModelsBitwise)
{
    // The BO loop's pattern: the archive grows by one or a few points
    // per iteration and every refit extends the previous factor.
    const GpData data = randomGpData(90, 22);
    dse::SharedGaussianProcess shared;
    std::size_t n = 16;
    shared.fit({data.inputs.begin(), data.inputs.begin() + n},
               prefixTargets(data, n));
    for (std::size_t growth : {1u, 1u, 3u, 1u, 8u, 30u, 30u}) {
        const std::size_t kept = n;
        n += growth;
        shared.fit({data.inputs.begin(), data.inputs.begin() + n},
                   prefixTargets(data, n));
        EXPECT_EQ(shared.reusedRows(), kept);
        expectBitIdenticalPredictions(shared, data, n, n);
    }
}

TEST(SharedGaussianProcess, RefitsWhenInputsAreNotAnExtension)
{
    const GpData data = randomGpData(40, 23);
    dse::SharedGaussianProcess shared;
    shared.fit(data.inputs, data.targets);
    // A different, shorter training set must refactorize from scratch.
    const GpData other = randomGpData(25, 24);
    shared.fit(other.inputs, other.targets);
    EXPECT_EQ(shared.reusedRows(), 0u);
    expectBitIdenticalPredictions(shared, other, 25, 6);
    // Same inputs, new targets: the factor is kept whole.
    GpData retargeted = other;
    std::swap(retargeted.targets[0], retargeted.targets[2]);
    shared.fit(retargeted.inputs, retargeted.targets);
    EXPECT_EQ(shared.reusedRows(), 25u);
    expectBitIdenticalPredictions(shared, retargeted, 25, 7);
}

// Four-lane predictBlock(): every lane bit-identical to the reference
// shared GP answering one query at a time, and to per-objective GPs.

namespace
{

bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/**
 * Scores @p queries through predictBlock() at every block size 1..4 (a
 * window sliding one query at a time, so each query sits in every lane)
 * and checks each posterior bitwise against @p perQuery and @p
 * perObjective. Returns how many lane posteriors had a clamped (zero)
 * variance.
 */
std::size_t
expectBlocksMatchReference(
    const dse::SharedGaussianProcess &shared,
    const dse::reference::SharedGaussianProcess &perQuery,
    const std::vector<dse::GaussianProcess> &perObjective,
    const std::vector<std::vector<double>> &queries, std::size_t n)
{
    const std::size_t targets = perObjective.size();
    EXPECT_EQ(shared.targets(), targets);
    std::size_t clamped = 0;
    std::vector<dse::GpPrediction> out(
        dse::SharedGaussianProcess::kBlockLanes * targets);
    for (std::size_t count = 1;
         count <= dse::SharedGaussianProcess::kBlockLanes; ++count) {
        for (std::size_t first = 0; first + count <= queries.size();
             ++first) {
            shared.predictBlock(&queries[first], count, out.data());
            for (std::size_t j = 0; j < count; ++j) {
                const std::vector<double> &query = queries[first + j];
                const std::vector<dse::GpPrediction> expected =
                    perQuery.predict(query);
                for (std::size_t t = 0; t < targets; ++t) {
                    const dse::GpPrediction &got = out[j * targets + t];
                    const dse::GpPrediction single =
                        perObjective[t].predict(query);
                    EXPECT_TRUE(sameBits(got.mean, expected[t].mean) &&
                                sameBits(got.variance,
                                         expected[t].variance) &&
                                sameBits(got.mean, single.mean) &&
                                sameBits(got.variance, single.variance))
                        << "n = " << n << ", count = " << count
                        << ", lane " << j << ", query " << first + j
                        << ", target " << t;
                    clamped += got.variance == 0.0;
                }
            }
        }
    }
    return clamped;
}

/** Two training inputs, random points, and repeats within a block. */
std::vector<std::vector<double>>
blockQueries(const GpData &data, std::size_t n, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<std::vector<double>> queries;
    queries.push_back(data.inputs[0]);
    queries.push_back(data.inputs[n - 1]);
    for (int q = 0; q < 9; ++q) {
        std::vector<double> x(7);
        for (double &value : x)
            value = rng.uniform();
        queries.push_back(x);
    }
    // Duplicates: a point repeated in adjacent lanes and two lanes apart.
    queries.push_back(queries[4]);
    queries.push_back(queries[4]);
    queries.push_back(queries[2]);
    queries.push_back(queries[4]);
    queries.push_back(data.inputs[0]);
    return queries;
}

std::vector<dse::GaussianProcess>
perObjectiveModels(const dse::GpParams &params, const GpData &data,
                   std::size_t n)
{
    const std::vector<std::vector<double>> inputs(
        data.inputs.begin(), data.inputs.begin() + n);
    std::vector<dse::GaussianProcess> models;
    for (const std::vector<double> &column : data.targets) {
        dse::GaussianProcess gp(params);
        gp.fit(inputs, std::vector<double>(column.begin(),
                                           column.begin() + n));
        models.push_back(std::move(gp));
    }
    return models;
}

} // namespace

TEST(SharedGaussianProcess, PredictBlockBitIdenticalToReference)
{
    // The default kernel; a noiseless one with a large signal variance,
    // where the factor's fixed 1e-9 jitter is below the solve's
    // rounding, so the variance at a training input often rounds below
    // zero and is clamped to 0; and length scales that are not (0.37)
    // and are (4) a power of two, the kernel's divide and multiply
    // paths.
    dse::GpParams noiseless;
    noiseless.signalVariance = 1e8;
    noiseless.noiseVariance = 0.0;
    dse::GpParams inexactScale;
    inexactScale.lengthScale = 0.37;
    dse::GpParams longScale;
    longScale.lengthScale = 4.0;
    std::size_t clamped = 0;
    for (const dse::GpParams &params :
         {dse::GpParams(), noiseless, inexactScale, longScale}) {
        for (std::size_t n : {1u, 2u, 3u, 17u, 100u, 257u}) {
            const GpData data = randomGpData(n, 40 + n);
            const std::vector<std::vector<double>> queries =
                blockQueries(data, n, n);
            const std::vector<dse::GaussianProcess> perObjective =
                perObjectiveModels(params, data, n);

            // Fresh fit.
            dse::SharedGaussianProcess fresh(params);
            fresh.fit(data.inputs, data.targets);
            dse::reference::SharedGaussianProcess perQuery(params);
            perQuery.fit(data.inputs, data.targets);
            clamped += expectBlocksMatchReference(fresh, perQuery,
                                                  perObjective, queries, n);

            // The same n reached by appendRows() from a smaller fit.
            if (n < 2)
                continue;
            dse::SharedGaussianProcess grown(params);
            const std::size_t half = n / 2;
            grown.fit({data.inputs.begin(), data.inputs.begin() + half},
                      prefixTargets(data, half));
            grown.fit(data.inputs, data.targets);
            EXPECT_EQ(grown.reusedRows(), half);
            clamped += expectBlocksMatchReference(grown, perQuery,
                                                  perObjective, queries, n);
        }
    }
    EXPECT_GT(clamped, 0u);
}

TEST(GaussianProcessDeath, PredictBeforeFit)
{
    dse::GaussianProcess gp;
    EXPECT_EXIT(gp.predict({0.0}), ::testing::ExitedWithCode(1),
                "not fitted");
}

TEST(GaussianProcessDeath, EmptyTrainingSet)
{
    dse::GaussianProcess gp;
    EXPECT_EXIT(gp.fit({}, {}), ::testing::ExitedWithCode(1), "empty");
}

TEST(GaussianProcessDeath, SharedPredictBeforeFit)
{
    dse::SharedGaussianProcess gp;
    EXPECT_EXIT(gp.predict({0.0}), ::testing::ExitedWithCode(1),
                "not fitted");
}
