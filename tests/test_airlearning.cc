/**
 * @file
 * Tests for the Air Learning substitute: environment generation with
 * domain randomization, the policy capability surrogate, Monte-Carlo
 * rollouts, the trainer and the policy database.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>

#include "airlearning/database.h"
#include "airlearning/environment.h"
#include "airlearning/policy.h"
#include "airlearning/rollout.h"
#include "airlearning/trainer.h"
#include "reference/rollout.h"

namespace al = autopilot::airlearning;
namespace nn = autopilot::nn;
using autopilot::util::Rng;

// -------------------------------------------------------- environment ----

TEST(Environment, DeterministicForSameSeed)
{
    const al::EnvironmentGenerator generator(
        al::EnvironmentConfig::forDensity(al::ObstacleDensity::Medium));
    Rng rng_a(7), rng_b(7);
    const al::Environment a = generator.generate(rng_a);
    const al::Environment b = generator.generate(rng_b);
    ASSERT_EQ(a.obstacles.size(), b.obstacles.size());
    for (std::size_t i = 0; i < a.obstacles.size(); ++i) {
        EXPECT_DOUBLE_EQ(a.obstacles[i].x, b.obstacles[i].x);
        EXPECT_DOUBLE_EQ(a.obstacles[i].radius, b.obstacles[i].radius);
    }
}

TEST(Environment, EpisodesDiffer)
{
    const al::EnvironmentGenerator generator(
        al::EnvironmentConfig::forDensity(al::ObstacleDensity::Low));
    Rng rng(42);
    const al::Environment a = generator.generate(rng);
    const al::Environment b = generator.generate(rng);
    const bool same_goal = a.goal.x == b.goal.x && a.goal.y == b.goal.y;
    EXPECT_FALSE(same_goal);
}

class EnvironmentPerDensity
    : public ::testing::TestWithParam<al::ObstacleDensity>
{
};

TEST_P(EnvironmentPerDensity, ObstaclesInsideArenaAndClearEndpoints)
{
    const al::EnvironmentConfig config =
        al::EnvironmentConfig::forDensity(GetParam());
    const al::EnvironmentGenerator generator(config);
    Rng rng(123);
    for (int episode = 0; episode < 50; ++episode) {
        const al::Environment env = generator.generate(rng);
        EXPECT_GE(env.clearance(env.start.x, env.start.y), 1.0);
        EXPECT_GE(env.clearance(env.goal.x, env.goal.y), 1.0);
        for (const al::Obstacle &obstacle : env.obstacles) {
            EXPECT_GE(obstacle.x, 0.0);
            EXPECT_LE(obstacle.x, env.arenaSize);
            EXPECT_GE(obstacle.y, 0.0);
            EXPECT_LE(obstacle.y, env.arenaSize);
            EXPECT_GE(obstacle.radius, config.minRadius - 1e-9);
            EXPECT_LE(obstacle.radius, config.maxRadius + 1e-9);
        }
    }
}

TEST_P(EnvironmentPerDensity, MinimumGapBetweenObstacles)
{
    const al::EnvironmentGenerator generator(
        al::EnvironmentConfig::forDensity(GetParam()));
    Rng rng(321);
    for (int episode = 0; episode < 30; ++episode) {
        const al::Environment env = generator.generate(rng);
        for (std::size_t i = 0; i < env.obstacles.size(); ++i) {
            for (std::size_t j = i + 1; j < env.obstacles.size(); ++j) {
                const double dx = env.obstacles[i].x - env.obstacles[j].x;
                const double dy = env.obstacles[i].y - env.obstacles[j].y;
                const double gap = std::sqrt(dx * dx + dy * dy) -
                                   env.obstacles[i].radius -
                                   env.obstacles[j].radius;
                EXPECT_GE(gap, 1.5 - 1e-9);
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Densities, EnvironmentPerDensity,
                         ::testing::Values(al::ObstacleDensity::Low,
                                           al::ObstacleDensity::Medium,
                                           al::ObstacleDensity::Dense));

TEST(Environment, DenseHasMoreObstaclesOnAverage)
{
    Rng rng_low(5), rng_dense(5);
    const al::EnvironmentGenerator low(
        al::EnvironmentConfig::forDensity(al::ObstacleDensity::Low));
    const al::EnvironmentGenerator dense(
        al::EnvironmentConfig::forDensity(al::ObstacleDensity::Dense));
    double low_sum = 0.0, dense_sum = 0.0;
    for (int i = 0; i < 60; ++i) {
        low_sum += low.generate(rng_low).obstacles.size();
        dense_sum += dense.generate(rng_dense).obstacles.size();
    }
    EXPECT_GT(dense_sum, low_sum * 1.4);
}

TEST(Environment, DensityNames)
{
    EXPECT_EQ(al::densityName(al::ObstacleDensity::Low), "low");
    EXPECT_EQ(al::densityName(al::ObstacleDensity::Medium), "medium");
    EXPECT_EQ(al::densityName(al::ObstacleDensity::Dense), "dense");
    EXPECT_EQ(al::allDensities().size(), 3u);
}

// ------------------------------------------------------------- policy ----

TEST(PolicyQuality, PaperArgmaxPerScenario)
{
    // Section V-A: 5L/32F best for low, 4L/48F for medium, 7L/48F for
    // dense obstacle scenarios.
    const nn::PolicyHyperParams low =
        al::bestHyperParams(al::ObstacleDensity::Low);
    EXPECT_EQ(low.numConvLayers, 5);
    EXPECT_EQ(low.numFilters, 32);
    const nn::PolicyHyperParams medium =
        al::bestHyperParams(al::ObstacleDensity::Medium);
    EXPECT_EQ(medium.numConvLayers, 4);
    EXPECT_EQ(medium.numFilters, 48);
    const nn::PolicyHyperParams dense =
        al::bestHyperParams(al::ObstacleDensity::Dense);
    EXPECT_EQ(dense.numConvLayers, 7);
    EXPECT_EQ(dense.numFilters, 48);
}

TEST(PolicyQuality, HarderTasksHaveLowerCeilings)
{
    const double low = al::policyQuality(
        al::bestHyperParams(al::ObstacleDensity::Low),
        al::ObstacleDensity::Low);
    const double medium = al::policyQuality(
        al::bestHyperParams(al::ObstacleDensity::Medium),
        al::ObstacleDensity::Medium);
    const double dense = al::policyQuality(
        al::bestHyperParams(al::ObstacleDensity::Dense),
        al::ObstacleDensity::Dense);
    EXPECT_GT(low, medium);
    EXPECT_GT(medium, dense);
}

TEST(PolicyQuality, TrainingJitterIsSmallAndDeterministic)
{
    const nn::PolicyHyperParams params{5, 32};
    const double base =
        al::policyQuality(params, al::ObstacleDensity::Low);
    const double a =
        al::trainedPolicyQuality(params, al::ObstacleDensity::Low, 1);
    const double b =
        al::trainedPolicyQuality(params, al::ObstacleDensity::Low, 1);
    const double c =
        al::trainedPolicyQuality(params, al::ObstacleDensity::Low, 2);
    EXPECT_DOUBLE_EQ(a, b);
    EXPECT_NE(a, c);
    EXPECT_NEAR(a, base, 0.08);
}

TEST(PolicyCapability, MonotoneInQuality)
{
    const auto lo = al::PolicyCapability::fromQuality(0.2);
    const auto hi = al::PolicyCapability::fromQuality(0.9);
    EXPECT_GT(hi.perceptionRangeM, lo.perceptionRangeM);
    EXPECT_GT(hi.detectionProb, lo.detectionProb);
    EXPECT_LT(hi.headingNoiseRad, lo.headingNoiseRad);
}

TEST(PolicyCapabilityDeath, RejectsOutOfRangeQuality)
{
    EXPECT_EXIT(al::PolicyCapability::fromQuality(1.5),
                ::testing::ExitedWithCode(1), "quality");
}

// ------------------------------------------------------------ rollout ----

TEST(Rollout, EmptyEnvironmentAlwaysSucceeds)
{
    al::Environment env;
    env.arenaSize = 30.0;
    env.start = {2.0, 2.0};
    env.goal = {20.0, 20.0};
    const auto capability = al::PolicyCapability::fromQuality(0.5);
    Rng rng(1);
    const auto result =
        al::runEpisode(env, capability, al::RolloutConfig(), rng);
    EXPECT_EQ(result.outcome, al::EpisodeOutcome::Success);
    EXPECT_GT(result.pathLengthM, 20.0); // At least the straight line.
}

TEST(Rollout, DeterministicEvaluation)
{
    const auto config =
        al::EnvironmentConfig::forDensity(al::ObstacleDensity::Medium);
    const auto capability = al::PolicyCapability::fromQuality(0.6);
    const auto a = al::evaluatePolicy(config, capability, 100, 42);
    const auto b = al::evaluatePolicy(config, capability, 100, 42);
    EXPECT_EQ(a.successes, b.successes);
    EXPECT_EQ(a.collisions, b.collisions);
    EXPECT_DOUBLE_EQ(a.meanPathLengthM, b.meanPathLengthM);
}

TEST(Rollout, OutcomeCountsAreConsistent)
{
    const auto config =
        al::EnvironmentConfig::forDensity(al::ObstacleDensity::Dense);
    const auto capability = al::PolicyCapability::fromQuality(0.5);
    const auto result = al::evaluatePolicy(config, capability, 200, 9);
    EXPECT_EQ(result.successes + result.collisions + result.timeouts,
              result.episodes);
    EXPECT_GE(result.successRate(), 0.0);
    EXPECT_LE(result.successRate(), 1.0);
}

// The one-distance-pass rollout against a verbatim copy of the
// three-pass one it replaced (tests/reference/rollout.h): every field of
// every EpisodeResult bitwise, and the episode stream's next draw.

namespace
{

bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof(double)) == 0;
}

void
expectEpisodeMatchesReference(const al::Environment &env,
                              const al::PolicyCapability &capability,
                              const al::RolloutConfig &config,
                              std::uint64_t seed)
{
    Rng fast_rng(seed);
    Rng slow_rng(seed);
    const al::EpisodeResult fast =
        al::runEpisode(env, capability, config, fast_rng);
    const al::EpisodeResult slow =
        al::reference::runEpisode(env, capability, config, slow_rng);
    EXPECT_TRUE(fast.outcome == slow.outcome && fast.steps == slow.steps &&
                sameBits(fast.pathLengthM, slow.pathLengthM) &&
                sameBits(fast.minClearanceM, slow.minClearanceM) &&
                fast_rng.next64() == slow_rng.next64())
        << "quality " << capability.quality << ", wind "
        << config.windSigmaM << ", seed " << seed << ", "
        << env.obstacles.size() << " obstacles";
}

} // namespace

TEST(Rollout, EpisodesMatchReferenceBitwise)
{
    for (al::ObstacleDensity density :
         {al::ObstacleDensity::Low, al::ObstacleDensity::Medium,
          al::ObstacleDensity::Dense}) {
        const al::EnvironmentGenerator generator(
            al::EnvironmentConfig::forDensity(density));
        for (int q = 0; q <= 20; ++q) {
            const auto capability =
                al::PolicyCapability::fromQuality(q / 20.0);
            for (double wind : {0.0, 0.05, 0.2}) {
                al::RolloutConfig config;
                config.windSigmaM = wind;
                for (std::uint64_t seed = 0; seed < 40; ++seed) {
                    Rng env_rng(1000 + seed);
                    expectEpisodeMatchesReference(
                        generator.generate(env_rng), capability, config,
                        seed);
                }
            }
        }
    }
}

TEST(Rollout, EvaluatePolicyMatchesReferenceBitwise)
{
    for (al::ObstacleDensity density :
         {al::ObstacleDensity::Low, al::ObstacleDensity::Medium,
          al::ObstacleDensity::Dense}) {
        const auto env_config = al::EnvironmentConfig::forDensity(density);
        for (int q = 0; q <= 20; ++q) {
            const auto capability =
                al::PolicyCapability::fromQuality(q / 20.0);
            for (double wind : {0.0, 0.05, 0.2}) {
                al::RolloutConfig config;
                config.windSigmaM = wind;
                const al::EvaluationResult fast =
                    al::evaluatePolicy(env_config, capability, 20, q, config);
                const al::EvaluationResult slow = al::reference::evaluatePolicy(
                    env_config, capability, 20, q, config);
                EXPECT_TRUE(fast.episodes == slow.episodes &&
                            fast.successes == slow.successes &&
                            fast.collisions == slow.collisions &&
                            fast.timeouts == slow.timeouts &&
                            sameBits(fast.meanPathLengthM,
                                     slow.meanPathLengthM))
                    << "quality " << q / 20.0 << ", wind " << wind;
            }
        }
    }
}

TEST(Rollout, EmptyAndCrowdedArenasMatchReference)
{
    // No obstacles (clearance is the arena size), and more obstacles
    // than the rollout keeps on the stack (40, some camouflaged).
    al::Environment empty;
    empty.start = {2.0, 2.0};
    empty.goal = {27.0, 25.0};
    al::Environment crowded = empty;
    Rng layout(17);
    while (crowded.obstacles.size() < 40) {
        al::Obstacle obstacle;
        obstacle.x = layout.uniform(0.0, crowded.arenaSize);
        obstacle.y = layout.uniform(0.0, crowded.arenaSize);
        obstacle.radius = layout.uniform(0.3, 1.2);
        obstacle.camouflaged = layout.bernoulli(0.2);
        const double start_dx = obstacle.x - crowded.start.x;
        const double start_dy = obstacle.y - crowded.start.y;
        if (std::hypot(start_dx, start_dy) > obstacle.radius + 1.0)
            crowded.obstacles.push_back(obstacle);
    }
    for (const al::Environment *env : {&empty, &crowded}) {
        for (double quality : {0.1, 0.5, 0.9}) {
            const auto capability =
                al::PolicyCapability::fromQuality(quality);
            for (double wind : {0.0, 0.2}) {
                al::RolloutConfig config;
                config.windSigmaM = wind;
                for (std::uint64_t seed = 0; seed < 20; ++seed)
                    expectEpisodeMatchesReference(*env, capability, config,
                                                  seed);
            }
        }
    }
}

class RolloutMonotonicity
    : public ::testing::TestWithParam<al::ObstacleDensity>
{
};

TEST_P(RolloutMonotonicity, SuccessGrowsWithQuality)
{
    const auto config = al::EnvironmentConfig::forDensity(GetParam());
    double prev = -1.0;
    for (double q : {0.30, 0.55, 0.80}) {
        const auto capability = al::PolicyCapability::fromQuality(q);
        const auto result =
            al::evaluatePolicy(config, capability, 400, 77);
        EXPECT_GT(result.successRate(), prev)
            << "quality " << q << " on " << al::densityName(GetParam());
        prev = result.successRate();
    }
}

TEST_P(RolloutMonotonicity, SuccessBandMatchesPaper)
{
    // Fig. 2b reports a 60-91% success band for trained policies; the
    // ideal policy per scenario should land in (or near) that band.
    const auto best = al::bestHyperParams(GetParam());
    const double quality = al::policyQuality(best, GetParam());
    const auto capability = al::PolicyCapability::fromQuality(quality);
    const auto result = al::evaluatePolicy(
        al::EnvironmentConfig::forDensity(GetParam()), capability, 400,
        1234);
    EXPECT_GT(result.successRate(), 0.70);
    EXPECT_LE(result.successRate(), 1.0);
}

INSTANTIATE_TEST_SUITE_P(Densities, RolloutMonotonicity,
                         ::testing::Values(al::ObstacleDensity::Low,
                                           al::ObstacleDensity::Medium,
                                           al::ObstacleDensity::Dense));

TEST(Rollout, DenseHarderThanLow)
{
    const auto capability = al::PolicyCapability::fromQuality(0.6);
    const auto low = al::evaluatePolicy(
        al::EnvironmentConfig::forDensity(al::ObstacleDensity::Low),
        capability, 400, 5);
    const auto dense = al::evaluatePolicy(
        al::EnvironmentConfig::forDensity(al::ObstacleDensity::Dense),
        capability, 400, 5);
    EXPECT_GT(low.successRate(), dense.successRate());
}

// ------------------------------------------------- trainer + database ----

TEST(Trainer, RecordIsComplete)
{
    al::TrainerConfig config;
    config.validationEpisodes = 60;
    const al::Trainer trainer(config);
    const al::PolicyRecord record =
        trainer.trainOne({7, 48}, al::ObstacleDensity::Dense);
    EXPECT_EQ(record.params.numConvLayers, 7);
    EXPECT_EQ(record.params.numFilters, 48);
    EXPECT_GT(record.successRate, 0.0);
    EXPECT_LE(record.successRate, 1.0);
    EXPECT_GT(record.modelParams, 1'000'000);
    EXPECT_GT(record.modelMacs, 100'000'000);
    EXPECT_EQ(record.policyId, "e2e_l7_f48_dense");
}

TEST(Trainer, TrainAllFillsDatabase)
{
    al::TrainerConfig config;
    config.validationEpisodes = 30;
    const al::Trainer trainer(config);
    al::PolicyDatabase db;
    const int added =
        trainer.trainAll(nn::PolicySpace(), al::ObstacleDensity::Low, db);
    EXPECT_EQ(added, 27);
    EXPECT_EQ(db.size(), 27u);
    EXPECT_TRUE(db.best(al::ObstacleDensity::Low).has_value());
}

TEST(Trainer, Deterministic)
{
    al::TrainerConfig config;
    config.validationEpisodes = 50;
    const al::Trainer trainer(config);
    const auto a = trainer.trainOne({5, 32}, al::ObstacleDensity::Low);
    const auto b = trainer.trainOne({5, 32}, al::ObstacleDensity::Low);
    EXPECT_DOUBLE_EQ(a.successRate, b.successRate);
}

TEST(Trainer, BestOfSeedsNeverWorseThanSingle)
{
    al::TrainerConfig config;
    config.validationEpisodes = 80;
    const al::Trainer trainer(config);
    const nn::PolicyHyperParams params{6, 48};
    const auto single =
        trainer.trainBestOf(params, al::ObstacleDensity::Dense, 1);
    const auto best_of_four =
        trainer.trainBestOf(params, al::ObstacleDensity::Dense, 4);
    EXPECT_GE(best_of_four.successRate, single.successRate);
}

TEST(Trainer, BestOfOneMatchesTrainOne)
{
    al::TrainerConfig config;
    config.validationEpisodes = 50;
    const al::Trainer trainer(config);
    const nn::PolicyHyperParams params{5, 32};
    const auto one = trainer.trainOne(params, al::ObstacleDensity::Low);
    const auto best =
        trainer.trainBestOf(params, al::ObstacleDensity::Low, 1);
    EXPECT_DOUBLE_EQ(one.successRate, best.successRate);
}

TEST(Database, UpsertOverwrites)
{
    al::PolicyDatabase db;
    al::PolicyRecord record;
    record.params = {5, 32};
    record.density = al::ObstacleDensity::Low;
    record.successRate = 0.5;
    db.upsert(record);
    record.successRate = 0.9;
    db.upsert(record);
    EXPECT_EQ(db.size(), 1u);
    EXPECT_DOUBLE_EQ(
        db.find({5, 32}, al::ObstacleDensity::Low)->successRate, 0.9);
}

TEST(Database, QueriesFilterByDensityAndRate)
{
    al::PolicyDatabase db;
    for (int layers : {2, 5, 8}) {
        al::PolicyRecord record;
        record.params = {layers, 32};
        record.density = al::ObstacleDensity::Dense;
        record.successRate = layers / 10.0;
        db.upsert(record);
    }
    EXPECT_EQ(db.forDensity(al::ObstacleDensity::Dense).size(), 3u);
    EXPECT_EQ(db.forDensity(al::ObstacleDensity::Low).size(), 0u);
    EXPECT_EQ(
        db.meetingSuccessRate(al::ObstacleDensity::Dense, 0.45).size(),
        2u);
    EXPECT_EQ(db.best(al::ObstacleDensity::Dense)->params.numConvLayers,
              8);
    EXPECT_FALSE(db.find({3, 32}, al::ObstacleDensity::Dense).has_value());
}
