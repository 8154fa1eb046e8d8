/**
 * @file
 * CI perf smoke for the SMS-EGO acquisition screen: scores one candidate
 * pool through both screen paths and exits nonzero unless each fast path
 * is bit-identical to its reference and strictly faster than it, timed
 * within this one process (so only the ratio matters, never the host's
 * absolute speed).
 *
 *  - Hypervolume gain: HypervolumeGain built once per front against
 *    hypervolumeContribution() per candidate.
 *  - GP posterior: one SharedGaussianProcess scoring the pool in
 *    four-query predictBlock() calls (one factor, four interleaved
 *    kernel columns and forward solves per block) against three
 *    per-objective GaussianProcess models, and against the shared GP
 *    answering one query at a time. Blocks of every size 1..4 must be
 *    bit-identical to the per-objective models.
 *
 * The references come from the test-only reference library
 * (tests/reference/).
 *
 * The front, targets and pool come from a real Phase 2 archive of the
 * dense-obstacle task, so the workload has the BO loop's shape.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <set>
#include <vector>

#include "airlearning/trainer.h"
#include "dse/evaluator.h"
#include "dse/gaussian_process.h"
#include "dse/hypervolume.h"
#include "dse/optimizer.h"
#include "nn/e2e_template.h"
#include "reference/gaussian_process.h"
#include "reference/hypervolume.h"
#include "util/rng.h"

using namespace autopilot;

namespace
{

double
nowSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/** Best-of-N wall time of @p run, to shrug off CI noise. */
template <typename Run>
double
bestOf(int repeats, Run &&run)
{
    double best = 1e30;
    for (int r = 0; r < repeats; ++r) {
        const double start = nowSeconds();
        run();
        best = std::min(best, nowSeconds() - start);
    }
    return best;
}

} // namespace

int
main()
{
    airlearning::TrainerConfig trainerConfig;
    trainerConfig.validationEpisodes = 20;
    const airlearning::Trainer trainer(trainerConfig);
    airlearning::PolicyDatabase database;
    trainer.trainAll(nn::PolicySpace(), airlearning::ObstacleDensity::Dense,
                     database);

    // A 120-point archive, its front, and a 256 + 120 candidate pool.
    dse::DseEvaluator evaluator(database,
                                airlearning::ObstacleDensity::Dense);
    const dse::DesignSpace &space = evaluator.space();
    util::Rng rng(0x5C4EE);
    std::set<dse::Encoding> seen;
    std::vector<std::vector<double>> inputs;
    std::vector<std::vector<double>> targets(3);
    std::vector<dse::Objectives> archive;
    std::vector<std::vector<double>> pool;
    while (archive.size() < 120) {
        const dse::Encoding encoding = space.randomEncoding(rng);
        if (!seen.insert(encoding).second)
            continue;
        const dse::Evaluation &evaluation = evaluator.evaluate(encoding);
        inputs.push_back(space.features(encoding));
        archive.push_back(evaluation.objectives);
        for (std::size_t d = 0; d < 3; ++d)
            targets[d].push_back(evaluation.objectives[d]);
        pool.push_back(space.features(space.neighbor(encoding, rng)));
    }
    for (int c = 0; c < 256; ++c)
        pool.push_back(space.features(space.randomEncoding(rng)));
    const std::vector<dse::Objectives> front = dse::paretoFront(archive);
    const dse::Objectives reference = dse::OptimizerConfig().referencePoint;

    // GP posterior: shared factor against per-objective models.
    std::vector<dse::GaussianProcess> models(3);
    for (std::size_t d = 0; d < 3; ++d)
        models[d].fit(inputs, targets[d]);
    dse::SharedGaussianProcess shared;
    shared.fit(inputs, targets);
    dse::reference::SharedGaussianProcess perQuery;
    perQuery.fit(inputs, targets);

    constexpr std::size_t lanes = dse::SharedGaussianProcess::kBlockLanes;
    std::vector<dse::GpPrediction> block(lanes * 3);
    std::vector<dse::Objectives> lcbs(pool.size(), dse::Objectives(3));
    for (std::size_t count = 1; count <= lanes; ++count) {
        for (std::size_t first = 0; first < pool.size(); first += count) {
            const std::size_t used = std::min(count, pool.size() - first);
            shared.predictBlock(&pool[first], used, block.data());
            for (std::size_t j = 0; j < used; ++j) {
                const std::size_t c = first + j;
                for (std::size_t d = 0; d < 3; ++d) {
                    const dse::GpPrediction &fast = block[j * 3 + d];
                    const dse::GpPrediction slow = models[d].predict(pool[c]);
                    if (!sameBits(fast.mean, slow.mean) ||
                        !sameBits(fast.variance, slow.variance)) {
                        std::fprintf(stderr,
                                     "bo_perf_smoke: predictBlock (%zu "
                                     "queries) differs from the "
                                     "per-objective GP at candidate %zu, "
                                     "objective %zu\n",
                                     used, c, d);
                        return 1;
                    }
                    lcbs[c][d] = slow.mean - slow.stddev();
                }
            }
        }
    }

    // Hypervolume gain: one precomputed sweep against the reference.
    const dse::HypervolumeGain gain(front, reference);
    std::size_t positive = 0;
    for (std::size_t c = 0; c < lcbs.size(); ++c) {
        const double fast = gain.contribution(lcbs[c]);
        const double slow =
            dse::hypervolumeContribution(front, lcbs[c], reference);
        if (!sameBits(fast, slow)) {
            std::fprintf(stderr,
                         "bo_perf_smoke: HypervolumeGain differs from "
                         "hypervolumeContribution at candidate %zu\n",
                         c);
            return 1;
        }
        positive += fast > 0.0;
    }

    constexpr int kRepeats = 5;
    double sink = 0.0;
    const double hvSlow = bestOf(kRepeats, [&] {
        for (const dse::Objectives &lcb : lcbs)
            sink += dse::hypervolumeContribution(front, lcb, reference);
    });
    const double hvFast = bestOf(kRepeats, [&] {
        const dse::HypervolumeGain timed(front, reference);
        for (const dse::Objectives &lcb : lcbs)
            sink += timed.contribution(lcb);
    });
    const double gpSlow = bestOf(kRepeats, [&] {
        for (const std::vector<double> &features : pool)
            for (const dse::GaussianProcess &model : models)
                sink += model.predict(features).mean;
    });
    const double gpPerQuery = bestOf(kRepeats, [&] {
        for (const std::vector<double> &features : pool)
            sink += perQuery.predict(features)[0].mean;
    });
    const double gpFast = bestOf(kRepeats, [&] {
        for (std::size_t first = 0; first < pool.size(); first += lanes) {
            const std::size_t used = std::min(lanes, pool.size() - first);
            shared.predictBlock(&pool[first], used, block.data());
            sink += block[0].mean;
        }
    });

    std::printf("bo_perf_smoke: front %zu, %zu candidates (%zu gain "
                "volume), checksum %.6g\n",
                front.size(), lcbs.size(), positive, sink);
    std::printf("bo_perf_smoke: hypervolume gain reference %.3f ms, "
                "precomputed %.3f ms, speedup %.1fx\n",
                hvSlow * 1e3, hvFast * 1e3, hvSlow / hvFast);
    std::printf("bo_perf_smoke: GP posterior per-objective %.3f ms, "
                "shared one query at a time %.3f ms, four-query blocks "
                "%.3f ms, speedup %.1fx / %.1fx\n",
                gpSlow * 1e3, gpPerQuery * 1e3, gpFast * 1e3,
                gpSlow / gpFast, gpPerQuery / gpFast);

    bool ok = true;
    if (hvFast >= hvSlow) {
        std::fprintf(stderr, "bo_perf_smoke: FAIL - HypervolumeGain is not "
                             "faster than hypervolumeContribution\n");
        ok = false;
    }
    if (gpFast >= gpSlow) {
        std::fprintf(stderr, "bo_perf_smoke: FAIL - the shared GP is not "
                             "faster than per-objective GPs\n");
        ok = false;
    }
    if (gpFast >= gpPerQuery) {
        std::fprintf(stderr, "bo_perf_smoke: FAIL - four-query blocks are "
                             "not faster than one query at a time\n");
        ok = false;
    }
    if (!ok)
        return 1;
    std::printf("bo_perf_smoke: OK\n");
    return 0;
}
