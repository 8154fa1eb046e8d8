/**
 * @file
 * Compiled fold timeline suite (systolic/fold_stream.h):
 *
 *  - FoldStream runs expand, fold for fold, to the per-fold byte
 *    accounting and fold cycles they replaced (kept here verbatim as an
 *    oracle), and the runs are maximal.
 *  - The cycle engine's jump path (runLayer) equals its stepping
 *    reference (runLayerStepping) field for field on every layer of the
 *    randomized hardware-space corpus x every bundled policy model x all
 *    three dataflows, under an empty, a derated and a QoS-floor-held
 *    contention profile; and equals the seed's per-fold engine loop on
 *    every layer small enough to materialize its fold vector.
 *  - Hand-built streams whose steady state never repeats within a run,
 *    or repeats only every second fold, take the stepping fallback and
 *    still match; long uniform runs are jumped in O(1) steps.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "nn/e2e_template.h"
#include "reference/systolic.h"
#include "systolic/cycle_engine.h"
#include "systolic/fold_stream.h"
#include "systolic/memory.h"
#include "systolic/tiling.h"
#include "util/rng.h"

namespace nn = autopilot::nn;
namespace sys = autopilot::systolic;
namespace util = autopilot::util;

namespace
{

const std::vector<sys::AcceleratorConfig> &
corpusConfigs()
{
    // The batch-kernel corpus (test_batch_kernel.cc).
    static const std::vector<sys::AcceleratorConfig> configs =
        sys::HardwareSpace().sampleCorpus(200, 0xB47C11u);
    return configs;
}

const std::vector<nn::Model> &
corpusModels()
{
    static const std::vector<nn::Model> models = [] {
        std::vector<nn::Model> built;
        for (const nn::PolicyHyperParams &policy :
             nn::PolicySpace().enumerate())
            built.push_back(nn::buildE2EModel(policy));
        return built;
    }();
    return models;
}

/** Every layer of every third corpus model, for the per-fold oracles. */
std::vector<nn::Layer>
oracleLayers()
{
    std::vector<nn::Layer> layers;
    for (std::size_t m = 0; m < corpusModels().size(); m += 3) {
        const auto &model_layers = corpusModels()[m].layers();
        layers.insert(layers.end(), model_layers.begin(), model_layers.end());
    }
    return layers;
}

/** Background streams every corpus config shares its 6.4 GB/s with. */
std::vector<sys::ContentionProfile>
corpusProfiles()
{
    sys::ContentionProfile derated; // 2.4 of 6.4 GB/s taken.
    derated.cameraBytesPerSec = 1.6e9;
    derated.hostBytesPerSec = 0.8e9;
    sys::ContentionProfile floored; // Saturated; the QoS floor holds.
    floored.cameraBytesPerSec = 8.0e9;
    floored.npuFloorFraction = 0.25;
    return {sys::ContentionProfile{}, derated, floored};
}

std::int64_t
evenShare(std::int64_t total, std::int64_t share_count,
          std::int64_t share_index)
{
    const std::int64_t base = total / share_count;
    const std::int64_t extra = total % share_count;
    return base + (share_index < extra ? 1 : 0);
}

/**
 * The per-fold byte accounting FoldShares replaced, kept verbatim as an
 * oracle (only computeTraffic and analyzeResidency are hoisted out of
 * the per-fold calls; neither depends on the fold).
 */
struct LegacyFoldBytes
{
    LegacyFoldBytes(const nn::Layer &layer, const sys::AcceleratorConfig &cfg)
        : config(cfg), schedule(sys::scheduleGemm(layer.gemm(), cfg)),
          traffic(sys::computeTraffic(layer, schedule, cfg)),
          residency(sys::analyzeResidency(layer, cfg))
    {
    }

    std::int64_t fetch(std::int64_t fold_index) const
    {
        const std::int64_t col_folds = schedule.colFolds;
        const std::int64_t row_folds = schedule.rowFolds;
        const std::int64_t i = fold_index / col_folds;
        const std::int64_t j = fold_index % col_folds;
        std::int64_t bytes = 0;
        {
            const bool designated =
                config.dataflow == sys::Dataflow::InputStationary
                    ? true
                    : (!residency.ifmapResident || j == 0);
            std::int64_t share_count = 0;
            std::int64_t share_index = 0;
            if (config.dataflow == sys::Dataflow::InputStationary ||
                !residency.ifmapResident) {
                share_count = schedule.foldCount();
                share_index = fold_index;
            } else {
                share_count = row_folds;
                share_index = i;
            }
            if (designated)
                bytes += evenShare(traffic.ifmapDramBytes, share_count,
                                   share_index);
        }
        {
            bool designated = true;
            std::int64_t share_count = schedule.foldCount();
            std::int64_t share_index = fold_index;
            if (config.dataflow == sys::Dataflow::OutputStationary &&
                residency.filterResident) {
                designated = (i == 0);
                share_count = col_folds;
                share_index = j;
            } else if (config.dataflow == sys::Dataflow::InputStationary &&
                       residency.filterResident) {
                designated = (j == 0);
                share_count = row_folds;
                share_index = i;
            }
            if (designated)
                bytes += evenShare(traffic.filterDramBytes, share_count,
                                   share_index);
        }
        if (traffic.psumDramBytes > 0 && i > 0) {
            const std::int64_t reads = traffic.psumDramBytes / 2;
            bytes += evenShare(reads, (row_folds - 1) * col_folds,
                               (i - 1) * col_folds + j);
        }
        return bytes;
    }

    std::int64_t writeback(std::int64_t fold_index) const
    {
        const std::int64_t col_folds = schedule.colFolds;
        const std::int64_t row_folds = schedule.rowFolds;
        const std::int64_t i = fold_index / col_folds;
        const std::int64_t j = fold_index % col_folds;
        std::int64_t bytes = 0;
        if (config.dataflow == sys::Dataflow::OutputStationary) {
            bytes += evenShare(traffic.ofmapDramBytes, schedule.foldCount(),
                               fold_index);
        } else if (i == row_folds - 1) {
            bytes += evenShare(traffic.ofmapDramBytes, col_folds, j);
        }
        if (traffic.psumDramBytes > 0 && i < row_folds - 1) {
            const std::int64_t writes = traffic.psumDramBytes / 2;
            bytes += evenShare(writes, (row_folds - 1) * col_folds,
                               i * col_folds + j);
        }
        return bytes;
    }

    sys::AcceleratorConfig config;
    sys::FoldSchedule schedule;
    sys::LayerTraffic traffic;
    sys::Residency residency;
};

/** The seed's per-fold CycleEngine loop over the legacy accounting. */
sys::LayerResult
legacyRunLayer(const nn::Layer &layer, const sys::AcceleratorConfig &cfg,
               double derate)
{
    const LegacyFoldBytes legacy(layer, cfg);
    const std::int64_t bw = cfg.dramBytesPerCycle;
    auto to_cycles = [bw, derate](std::int64_t bytes) {
        if (derate >= 1.0)
            return (bytes + bw - 1) / bw;
        return static_cast<std::int64_t>(
            std::ceil(static_cast<double>(bytes) /
                      (static_cast<double>(bw) * derate)));
    };
    std::int64_t dram_free = 0;
    std::int64_t compute_done = 0;
    std::int64_t compute_done_prev = 0;
    std::int64_t compute_busy = 0;
    std::int64_t last_writeback_done = 0;
    for (std::int64_t f = 0; f < legacy.schedule.foldCount(); ++f) {
        const std::int64_t fetch_bytes = legacy.fetch(f);
        const std::int64_t wb_bytes = legacy.writeback(f);
        const std::int64_t fetch_start =
            std::max(dram_free, compute_done_prev);
        const std::int64_t fetch_done = fetch_start + to_cycles(fetch_bytes);
        dram_free = fetch_done;
        const std::int64_t fold_cycles =
            legacy.schedule.folds[static_cast<std::size_t>(f)].cycles;
        const std::int64_t compute_start =
            std::max(compute_done, fetch_done);
        compute_done_prev = compute_done;
        compute_done = compute_start + fold_cycles;
        compute_busy += fold_cycles;
        if (wb_bytes > 0) {
            const std::int64_t wb_start = std::max(dram_free, compute_done);
            last_writeback_done = wb_start + to_cycles(wb_bytes);
            dram_free = last_writeback_done;
        }
    }
    sys::LayerResult result;
    result.layerName = layer.name;
    result.gemm = layer.gemm();
    result.rowFolds = legacy.schedule.rowFolds;
    result.colFolds = legacy.schedule.colFolds;
    result.computeCycles = compute_busy;
    result.traffic = legacy.traffic;
    result.totalCycles = std::max(compute_done, last_writeback_done);
    result.stallCycles = result.totalCycles - result.computeCycles;
    return result;
}

/** Field-for-field LayerResult equality; false (with a failure) if not. */
bool
sameLayerResult(const sys::LayerResult &a, const sys::LayerResult &b)
{
    const bool same =
        a.layerName == b.layerName && a.gemm.m == b.gemm.m &&
        a.gemm.n == b.gemm.n && a.gemm.k == b.gemm.k &&
        a.rowFolds == b.rowFolds && a.colFolds == b.colFolds &&
        a.computeCycles == b.computeCycles &&
        a.stallCycles == b.stallCycles && a.totalCycles == b.totalCycles &&
        a.traffic.ifmapDramBytes == b.traffic.ifmapDramBytes &&
        a.traffic.filterDramBytes == b.traffic.filterDramBytes &&
        a.traffic.ofmapDramBytes == b.traffic.ofmapDramBytes &&
        a.traffic.psumDramBytes == b.traffic.psumDramBytes &&
        a.traffic.ifmapSramReads == b.traffic.ifmapSramReads &&
        a.traffic.filterSramReads == b.traffic.filterSramReads &&
        a.traffic.ofmapSramWrites == b.traffic.ofmapSramWrites &&
        a.traffic.psumSramReads == b.traffic.psumSramReads &&
        a.traffic.psumSramWrites == b.traffic.psumSramWrites;
    EXPECT_TRUE(same) << a.layerName << ": total " << a.totalCycles
                      << " vs " << b.totalCycles << ", compute "
                      << a.computeCycles << " vs " << b.computeCycles;
    return same;
}

/** Layers small enough for the oracle to materialize their folds. */
constexpr std::int64_t kOracleFoldLimit = 20000;

void
expectTimelinesEqual(const sys::FoldTimeline &a, const sys::FoldTimeline &b)
{
    EXPECT_EQ(a.computeDone, b.computeDone);
    EXPECT_EQ(a.lastWritebackDone, b.lastWritebackDone);
    EXPECT_EQ(a.computeBusy, b.computeBusy);
}

std::int64_t
foldCount(const std::vector<sys::FoldRun> &stream)
{
    std::int64_t folds = 0;
    for (const sys::FoldRun &run : stream)
        folds += run.count;
    return folds;
}

} // namespace

// ------------------------------------------------------- byte shares ----

TEST(FoldStream, RunsExpandToLegacyPerFoldAccounting)
{
    std::int64_t layers_checked = 0;
    for (const sys::AcceleratorConfig &config : corpusConfigs()) {
        for (const nn::Layer &layer : oracleLayers()) {
            const sys::FoldGeometry geometry =
                sys::foldGeometry(layer.gemm(), config);
            if (geometry.foldCount() > kOracleFoldLimit)
                continue;
            SCOPED_TRACE(layer.name + " @ " + config.name());
            const LegacyFoldBytes legacy(layer, config);
            const sys::FoldStream stream(layer, config);
            ASSERT_EQ(geometry.rowFolds, legacy.schedule.rowFolds);
            ASSERT_EQ(geometry.colFolds, legacy.schedule.colFolds);
            EXPECT_EQ(geometry.computeCycles(),
                      legacy.schedule.computeCycles());

            std::int64_t f = 0;
            const sys::FoldRun *prev = nullptr;
            for (const sys::FoldRun &run : stream.runs()) {
                ASSERT_GT(run.count, 0);
                if (prev != nullptr) { // Maximal: neighbours differ.
                    EXPECT_FALSE(run.fetchBytes == prev->fetchBytes &&
                                 run.writebackBytes ==
                                     prev->writebackBytes &&
                                 run.cycles == prev->cycles);
                }
                for (std::int64_t n = 0; n < run.count; ++n, ++f) {
                    ASSERT_EQ(run.fetchBytes, legacy.fetch(f)) << f;
                    ASSERT_EQ(run.writebackBytes, legacy.writeback(f)) << f;
                    ASSERT_EQ(run.cycles,
                              legacy.schedule.folds[static_cast<std::size_t>(
                                  f)].cycles)
                        << f;
                }
                prev = &run;
            }
            EXPECT_EQ(f, geometry.foldCount());
            ++layers_checked;
        }
    }
    EXPECT_GT(layers_checked, 500);
}

// ------------------------------------------- jump vs stepping engine ----

TEST(FoldTimeline, JumpMatchesSteppingOnCorpus)
{
    for (const sys::ContentionProfile &profile : corpusProfiles()) {
        for (const sys::AcceleratorConfig &config : corpusConfigs()) {
            const sys::CycleEngine engine(config, profile);
            for (const nn::Model &model : corpusModels()) {
                for (const nn::Layer &layer : model.layers()) {
                    const sys::LayerResult fast = engine.runLayer(layer);
                    const sys::LayerResult reference =
                        sys::runLayerStepping(engine, layer);
                    if (!sameLayerResult(fast, reference)) {
                        ADD_FAILURE() << model.name() << " @ "
                                      << config.name();
                        return;
                    }
                }
            }
        }
    }
}

TEST(FoldTimeline, EngineMatchesLegacyPerFoldLoop)
{
    for (const sys::ContentionProfile &profile : corpusProfiles()) {
        for (const sys::AcceleratorConfig &config : corpusConfigs()) {
            const sys::CycleEngine engine(config, profile);
            const double derate =
                profile.enabled() ? profile.derate(config) : 1.0;
            for (const nn::Layer &layer : oracleLayers()) {
                if (sys::foldGeometry(layer.gemm(), config).foldCount() >
                    kOracleFoldLimit)
                    continue;
                if (!sameLayerResult(engine.runLayer(layer),
                                     legacyRunLayer(layer, config, derate))) {
                    ADD_FAILURE() << config.name();
                    return;
                }
            }
        }
    }
}

TEST(FoldTimeline, JumpSkipsSteadyStateOfLongRuns)
{
    // fc_trunk-class M = 1 GEMM on a 16x16 WS array: 768 x 128 folds
    // compile to a few runs per row fold, each jumped in a few steps.
    sys::AcceleratorConfig config;
    config.peRows = config.peCols = 16;
    const nn::Layer fc = nn::dense("fc_trunk", 12288, 2048);
    const sys::FoldStream stream(fc, config);
    const sys::FoldGeometry &geometry = stream.shares().geometry();
    ASSERT_EQ(geometry.foldCount(), 98304);
    EXPECT_LE(static_cast<std::int64_t>(stream.runs().size()),
              4 * geometry.rowFolds);
    const sys::BandwidthTransfer transfer(config.dramBytesPerCycle);
    const sys::FoldTimeline fast =
        sys::jumpFoldTimeline(stream.runs(), transfer);
    const sys::FoldTimeline reference =
        sys::runFoldTimeline(stream.runs(), transfer);
    expectTimelinesEqual(fast, reference);
    EXPECT_EQ(reference.steppedFolds, 98304);
    EXPECT_LT(fast.steppedFolds, 98304 / 10);
}

// ------------------------------------------------ hand-built streams ----

TEST(FoldTimeline, UniformRunJumpsInConstantSteps)
{
    // A million identical folds, DRAM- and compute-bound variants.
    for (const std::int64_t cycles : {3, 40, 1000}) {
        const std::vector<sys::FoldRun> stream = {
            {1, 4096, 0, 7}, {1000000, 640, 96, cycles}};
        for (const double derate : {1.0, 0.3}) {
            const sys::BandwidthTransfer transfer(32, derate);
            const sys::FoldTimeline fast =
                sys::jumpFoldTimeline(stream, transfer);
            const sys::FoldTimeline reference =
                sys::runFoldTimeline(stream, transfer);
            expectTimelinesEqual(fast, reference);
            EXPECT_LE(fast.steppedFolds, 6);
        }
    }
}

TEST(FoldTimeline, PeriodTwoStreamFallsBackToStepping)
{
    // Folds alternate between a fetch-heavy and a compute-heavy shape, so
    // the timeline's steady state repeats only every second fold: every
    // run holds one fold and nothing can be jumped.
    std::vector<sys::FoldRun> stream;
    for (int f = 0; f < 2000; ++f) {
        stream.push_back(f % 2 == 0 ? sys::FoldRun{1, 3200, 0, 20}
                                    : sys::FoldRun{1, 32, 640, 150});
    }
    for (const double derate : {1.0, 0.45}) {
        const sys::BandwidthTransfer transfer(32, derate);
        const sys::FoldTimeline fast = sys::jumpFoldTimeline(stream, transfer);
        const sys::FoldTimeline reference =
            sys::runFoldTimeline(stream, transfer);
        expectTimelinesEqual(fast, reference);
        EXPECT_EQ(fast.steppedFolds, foldCount(stream));
    }
}

TEST(FoldTimeline, TransientRunsShorterThanSteadyStateAreStepped)
{
    // Each short run starts far from its steady state (a long compute or
    // DRAM backlog left by the run before it) and ends before reaching
    // it, so the jump never fires and the fallback steps every fold.
    std::vector<sys::FoldRun> stream;
    for (int r = 0; r < 300; ++r) {
        stream.push_back({1, 32 * 5000, 0, 3});   // DRAM backlog.
        stream.push_back({2, 64, 32, 9});
        stream.push_back({1, 0, 0, 20000});       // Compute backlog.
        stream.push_back({2, 32 * 40, 32 * 7, 5});
    }
    const sys::BandwidthTransfer transfer(32);
    const sys::FoldTimeline fast = sys::jumpFoldTimeline(stream, transfer);
    const sys::FoldTimeline reference =
        sys::runFoldTimeline(stream, transfer);
    expectTimelinesEqual(fast, reference);
    EXPECT_EQ(fast.steppedFolds, foldCount(stream));
}

TEST(FoldTimeline, RandomStreamsMatchStepping)
{
    util::Rng rng(0xF01D5u);
    for (int trial = 0; trial < 400; ++trial) {
        std::vector<sys::FoldRun> stream;
        const std::size_t runs = 1 + rng.index(40);
        for (std::size_t r = 0; r < runs; ++r) {
            sys::FoldRun run;
            run.count = 1 + static_cast<std::int64_t>(rng.index(
                                rng.index(4) == 0 ? 5000 : 6));
            run.fetchBytes = static_cast<std::int64_t>(rng.index(20000));
            run.writebackBytes = rng.index(3) == 0
                                     ? 0
                                     : static_cast<std::int64_t>(
                                           rng.index(8000));
            run.cycles = 1 + static_cast<std::int64_t>(rng.index(900));
            stream.push_back(run);
        }
        const double derate = rng.index(2) == 0 ? 1.0 : 0.2 + 0.1 * (trial % 7);
        const sys::BandwidthTransfer transfer(8 << rng.index(4), derate);
        const sys::FoldTimeline fast = sys::jumpFoldTimeline(stream, transfer);
        const sys::FoldTimeline reference =
            sys::runFoldTimeline(stream, transfer);
        expectTimelinesEqual(fast, reference);
        EXPECT_EQ(reference.steppedFolds, foldCount(stream));
    }
}
