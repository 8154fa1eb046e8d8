/**
 * @file
 * Tests for the Phase 2 evaluator and the four optimizers (BO, NSGA-II,
 * SA, random search) behind the shared Optimizer interface.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <set>
#include <sstream>
#include <string>

#include "airlearning/trainer.h"
#include "dse/annealing.h"
#include "dse/bayesopt.h"
#include "dse/evaluator.h"
#include "dse/genetic.h"
#include "dse/optimizer.h"
#include "dse/random_search.h"
#include "io/persistence.h"
#include "util/thread_pool.h"

namespace dse = autopilot::dse;
namespace al = autopilot::airlearning;
namespace util = autopilot::util;

namespace
{

/** One shared Phase 1 database for every optimizer test (cheap config). */
const al::PolicyDatabase &
sharedDatabase()
{
    static const al::PolicyDatabase db = [] {
        al::TrainerConfig config;
        config.validationEpisodes = 40;
        const al::Trainer trainer(config);
        al::PolicyDatabase built;
        trainer.trainAll(autopilot::nn::PolicySpace(),
                         al::ObstacleDensity::Dense, built);
        return built;
    }();
    return db;
}

dse::OptimizerConfig
smallBudget(int budget, std::uint64_t seed = 42)
{
    dse::OptimizerConfig config;
    config.evaluationBudget = budget;
    config.seed = seed;
    return config;
}

} // namespace

// ---------------------------------------------------------- evaluator ----

TEST(Evaluator, ProducesConsistentObjectives)
{
    dse::DseEvaluator evaluator(sharedDatabase(),
                                al::ObstacleDensity::Dense);
    autopilot::util::Rng rng(1);
    const dse::Encoding encoding =
        evaluator.space().randomEncoding(rng);
    const dse::Evaluation &eval = evaluator.evaluate(encoding);
    ASSERT_EQ(eval.objectives.size(), 3u);
    EXPECT_NEAR(eval.objectives[0], 1.0 - eval.successRate, 1e-12);
    EXPECT_NEAR(eval.objectives[1], eval.socPowerW, 1e-12);
    EXPECT_NEAR(eval.objectives[2], eval.latencyMs, 1e-12);
    EXPECT_GT(eval.fps, 0.0);
    EXPECT_NEAR(eval.fps, 1000.0 / eval.latencyMs, 1e-6);
    EXPECT_GT(eval.socPowerW, eval.npuPowerW);
}

TEST(Evaluator, MemoizesRepeatEvaluations)
{
    dse::DseEvaluator evaluator(sharedDatabase(),
                                al::ObstacleDensity::Dense);
    autopilot::util::Rng rng(2);
    const dse::Encoding encoding =
        evaluator.space().randomEncoding(rng);
    evaluator.evaluate(encoding);
    EXPECT_EQ(evaluator.evaluationCount(), 1u);
    evaluator.evaluate(encoding);
    EXPECT_EQ(evaluator.evaluationCount(), 1u);
}

TEST(Evaluator, SuccessRateComesFromDatabase)
{
    dse::DseEvaluator evaluator(sharedDatabase(),
                                al::ObstacleDensity::Dense);
    const dse::Encoding encoding = {3, 1, 2, 2, 3, 3, 3}; // l5, f48.
    const dse::Evaluation &eval = evaluator.evaluate(encoding);
    const auto record =
        sharedDatabase().find({5, 48}, al::ObstacleDensity::Dense);
    ASSERT_TRUE(record.has_value());
    EXPECT_DOUBLE_EQ(eval.successRate, record->successRate);
}

// --------------------------------------------------------- optimizers ----

class OptimizerContract : public ::testing::TestWithParam<int>
{
  protected:
    std::unique_ptr<dse::Optimizer>
    makeOptimizer() const
    {
        switch (GetParam()) {
          case 0: return std::make_unique<dse::RandomSearch>();
          case 1: return std::make_unique<dse::BayesOpt>();
          case 2: return std::make_unique<dse::GeneticAlgorithm>();
          case 3: return std::make_unique<dse::SimulatedAnnealing>();
        }
        return nullptr;
    }
};

TEST_P(OptimizerContract, RespectsBudgetAndArchivesDistinctPoints)
{
    dse::DseEvaluator evaluator(sharedDatabase(),
                                al::ObstacleDensity::Dense);
    auto optimizer = makeOptimizer();
    const auto config = smallBudget(30);
    const dse::OptimizerResult result =
        optimizer->optimize(evaluator, config);

    EXPECT_GT(result.archive.size(), 0u);
    EXPECT_LE(result.archive.size(), 30u);
    std::set<dse::Encoding> seen;
    for (const dse::Evaluation &eval : result.archive)
        seen.insert(eval.encoding);
    EXPECT_EQ(seen.size(), result.archive.size()); // All distinct.
}

TEST_P(OptimizerContract, HypervolumeHistoryNonDecreasing)
{
    dse::DseEvaluator evaluator(sharedDatabase(),
                                al::ObstacleDensity::Dense);
    auto optimizer = makeOptimizer();
    const auto config = smallBudget(25, 7);
    const dse::OptimizerResult result =
        optimizer->optimize(evaluator, config);
    ASSERT_EQ(result.hypervolumeHistory.size(), result.archive.size());
    for (std::size_t i = 1; i < result.hypervolumeHistory.size(); ++i) {
        EXPECT_GE(result.hypervolumeHistory[i],
                  result.hypervolumeHistory[i - 1] - 1e-9);
    }
}

TEST_P(OptimizerContract, FrontIsNonDominatedSubset)
{
    dse::DseEvaluator evaluator(sharedDatabase(),
                                al::ObstacleDensity::Dense);
    auto optimizer = makeOptimizer();
    const dse::OptimizerResult result =
        optimizer->optimize(evaluator, smallBudget(25, 99));
    const auto front = result.front();
    EXPECT_GT(front.size(), 0u);
    for (const dse::Evaluation &member : front) {
        for (const dse::Evaluation &other : result.archive) {
            EXPECT_FALSE(
                dse::dominates(other.objectives, member.objectives));
        }
    }
}

TEST_P(OptimizerContract, DeterministicForSameSeed)
{
    auto optimizer_a = makeOptimizer();
    auto optimizer_b = makeOptimizer();
    dse::DseEvaluator eval_a(sharedDatabase(),
                             al::ObstacleDensity::Dense);
    dse::DseEvaluator eval_b(sharedDatabase(),
                             al::ObstacleDensity::Dense);
    const auto result_a = optimizer_a->optimize(eval_a, smallBudget(20));
    const auto result_b = optimizer_b->optimize(eval_b, smallBudget(20));
    ASSERT_EQ(result_a.archive.size(), result_b.archive.size());
    for (std::size_t i = 0; i < result_a.archive.size(); ++i)
        EXPECT_EQ(result_a.archive[i].encoding,
                  result_b.archive[i].encoding);
}

namespace
{

std::string
optimizerCaseName(const ::testing::TestParamInfo<int> &info)
{
    static const char *const names[] = {"Random", "BO", "Nsga2", "SA"};
    return names[info.param];
}

} // namespace

INSTANTIATE_TEST_SUITE_P(All, OptimizerContract,
                         ::testing::Values(0, 1, 2, 3),
                         optimizerCaseName);

TEST(BayesOpt, BeatsOrMatchesRandomOnAverage)
{
    // Model-guided search should not lose to uniform random sampling on
    // the same budget (averaged over seeds to absorb noise).
    double bo_sum = 0.0, random_sum = 0.0;
    const dse::Objectives reference = {1.0, 12.0, 120.0};
    for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
        dse::DseEvaluator eval_bo(sharedDatabase(),
                                  al::ObstacleDensity::Dense);
        dse::DseEvaluator eval_rand(sharedDatabase(),
                                    al::ObstacleDensity::Dense);
        dse::BayesOpt bo;
        dse::RandomSearch random;
        bo_sum += bo.optimize(eval_bo, smallBudget(40, seed))
                      .finalHypervolume(reference);
        random_sum += random.optimize(eval_rand, smallBudget(40, seed))
                          .finalHypervolume(reference);
    }
    EXPECT_GE(bo_sum, random_sum * 0.97);
}

namespace
{

/** 64-bit FNV-1a over the archive CSV and the hypervolume-history bits. */
std::string
trajectoryHash(const dse::OptimizerResult &result)
{
    std::ostringstream csv;
    autopilot::io::writeDseArchive(result.archive, csv);
    std::string bytes = csv.str();
    for (double value : result.hypervolumeHistory) {
        char raw[sizeof(double)];
        std::memcpy(raw, &value, sizeof(double));
        bytes.append(raw, sizeof(double));
    }
    std::uint64_t hash = 0xcbf29ce484222325ull;
    for (unsigned char byte : bytes) {
        hash ^= byte;
        hash *= 0x100000001b3ull;
    }
    char hex[17];
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(hash));
    return hex;
}

} // namespace

// Pins one seeded SMS-EGO trajectory (sequential and q = 4 batches) at
// 1, 2 and 4 threads. The expected hashes were recorded with the
// reference screen (one GP and one Cholesky factorization per objective
// per iteration, full hypervolume recomputation per candidate), so any
// fast path in the BO loop must reproduce that trajectory bit for bit.
// A toolchain or libm change that moves the last bit of exp() or log()
// legitimately moves these hashes. Re-record them in a change that
// touches nothing else, never in one that also changes the BO loop.
TEST(BayesOpt, PinnedTrajectoryHashAcrossThreadCounts)
{
    struct Case
    {
        int batchSize;
        const char *expected;
    };
    for (const Case &pinned : {Case{1, "fadee2db8d1e19da"},
                               Case{4, "8c71a3947b186b76"}}) {
        for (std::size_t threads : {1u, 2u, 4u}) {
            util::ThreadPool pool(threads);
            dse::DseEvaluator evaluator(sharedDatabase(),
                                        al::ObstacleDensity::Dense);
            if (threads > 1)
                evaluator.setThreadPool(&pool);
            dse::BayesOpt::Settings settings;
            settings.batchSize = pinned.batchSize;
            const dse::OptimizerResult result =
                dse::BayesOpt(settings).optimize(evaluator,
                                                 smallBudget(60, 2024));
            ASSERT_EQ(result.archive.size(), 60u);
            EXPECT_EQ(trajectoryHash(result), pinned.expected)
                << "batch " << pinned.batchSize << ", " << threads
                << " threads";
        }
    }
}

TEST(Optimizers, NamesAreStable)
{
    EXPECT_EQ(dse::BayesOpt().name(), "bo");
    EXPECT_EQ(dse::RandomSearch().name(), "random");
    EXPECT_EQ(dse::GeneticAlgorithm().name(), "nsga2");
    EXPECT_EQ(dse::SimulatedAnnealing().name(), "sa");
}
