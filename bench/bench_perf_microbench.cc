/**
 * @file
 * google-benchmark microbenchmarks for the library's hot paths: the two
 * systolic engines (and one layer each through the cycle engine and the
 * bank-level dram tier, plus that tier's background drain alone), the GP
 * surrogate, hypervolume, one SMS-EGO iteration (GP fit, acquisition
 * screen, hypervolume update), episode
 * rollouts, and the batch-parallel evaluation core at 1/2/4/8 worker
 * threads. These quantify the cost of one Phase 2 evaluation and one Phase 1 validation
 * - the quantities that set AutoPilot's end-to-end runtime - and the
 * wall-clock speedup evaluateBatch() buys on a cold memo cache.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "airlearning/rollout.h"
#include "airlearning/trainer.h"
#include "dram/channel.h"
#include "dram/config.h"
#include "dram/engine.h"
#include "dse/eval_backend.h"
#include "dse/evaluator.h"
#include "dse/gaussian_process.h"
#include "dse/hypervolume.h"
#include "dse/optimizer.h"
#include "io/journal.h"
#include "nn/e2e_template.h"
#include "power/npu_power.h"
#include "reference/gaussian_process.h"
#include "reference/hypervolume.h"
#include "reference/systolic.h"
#include "systolic/compiled_plan.h"
#include "systolic/cycle_engine.h"
#include "systolic/engine.h"
#include "util/arena.h"
#include "util/rng.h"
#include "util/telemetry.h"
#include "util/thread_pool.h"

using namespace autopilot;

namespace
{

systolic::AcceleratorConfig
midConfig()
{
    systolic::AcceleratorConfig config;
    config.peRows = 32;
    config.peCols = 32;
    config.ifmapSramKb = 256;
    config.filterSramKb = 256;
    config.ofmapSramKb = 256;
    return config;
}

void
BM_AnalyticalEngineFullModel(benchmark::State &state)
{
    const nn::Model model = nn::buildE2EModel({7, 48});
    const systolic::AnalyticalEngine engine(midConfig());
    for (auto _ : state) {
        benchmark::DoNotOptimize(engine.run(model).totalCycles);
    }
}
BENCHMARK(BM_AnalyticalEngineFullModel);

/**
 * The SoA batch kernel alone (no power stack, no backend plumbing):
 * 128 hardware-space configurations costed against one compiled plan
 * from a warm arena. Compare items/s against
 * BM_AnalyticalEngineFullModel for the kernel-level speedup.
 */
void
BM_CompiledPlanBatch128(benchmark::State &state)
{
    const nn::Model model = nn::buildE2EModel({7, 48});
    const systolic::CompiledModelPlan plan =
        systolic::CompiledModelPlan::compile(model);
    const systolic::HardwareSpace space;
    util::Rng rng(0x91A4ull);
    std::vector<systolic::AcceleratorConfig> configs;
    for (int i = 0; i < 128; ++i) {
        systolic::AcceleratorConfig cfg;
        cfg.peRows =
            space.peRowChoices[rng.index(space.peRowChoices.size())];
        cfg.peCols =
            space.peColChoices[rng.index(space.peColChoices.size())];
        cfg.ifmapSramKb =
            space.sramKbChoices[rng.index(space.sramKbChoices.size())];
        cfg.filterSramKb =
            space.sramKbChoices[rng.index(space.sramKbChoices.size())];
        cfg.ofmapSramKb =
            space.sramKbChoices[rng.index(space.sramKbChoices.size())];
        configs.push_back(cfg);
    }
    util::Arena arena;
    for (auto _ : state) {
        arena.reset();
        const systolic::BatchRunView view =
            systolic::evaluatePlanBatch(plan, configs, arena);
        benchmark::DoNotOptimize(view.totalCycles.data());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(configs.size()));
}
BENCHMARK(BM_CompiledPlanBatch128);

void
BM_CycleEngineFullModel(benchmark::State &state)
{
    const nn::Model model = nn::buildE2EModel({7, 48});
    const systolic::CycleEngine engine(midConfig());
    for (auto _ : state) {
        benchmark::DoNotOptimize(engine.run(model).totalCycles);
    }
}
BENCHMARK(BM_CycleEngineFullModel);

/**
 * One cycle-engine layer on a 16x16 WS array: the per-fold cost of the
 * cycle tier. fc_trunk is the fc_trunk-class M = 1 GEMM (768 row x 128
 * column folds, 98,304 of a policy model's ~106k); conv2 is a 648-fold
 * conv layer. "jump" is CycleEngine::runLayer (compiled FoldStream,
 * steady-state jump), "stepping" its fold-by-fold reference
 * systolic::runLayerStepping (tests/reference). folds_per_s counts the
 * layer's folds per second.
 */
void
BM_CycleRunLayer(benchmark::State &state, const char *layer_name,
                 bool stepping)
{
    const nn::Model model = nn::buildE2EModel({5, 48});
    const nn::Layer *layer = nullptr;
    for (const nn::Layer &candidate : model.layers()) {
        if (candidate.name == layer_name)
            layer = &candidate;
    }
    if (layer == nullptr) {
        state.SkipWithError("layer not in the 5L/48F model");
        return;
    }
    systolic::AcceleratorConfig config;
    config.peRows = 16;
    config.peCols = 16;
    const systolic::CycleEngine engine(config);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            stepping ? systolic::runLayerStepping(engine, *layer)
                     : engine.runLayer(*layer));
    }
    const systolic::FoldGeometry geometry =
        systolic::foldGeometry(layer->gemm(), config);
    state.counters["folds_per_s"] = benchmark::Counter(
        static_cast<double>(geometry.foldCount()) *
            static_cast<double>(state.iterations()),
        benchmark::Counter::kIsRate);
}
BENCHMARK_CAPTURE(BM_CycleRunLayer, fc_trunk_jump, "fc_trunk", false)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_CycleRunLayer, fc_trunk_stepping, "fc_trunk", true)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_CycleRunLayer, conv2_jump, "conv2", false)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_CycleRunLayer, conv2_stepping, "conv2", true)
    ->Unit(benchmark::kMicrosecond);

/**
 * The same two layers and 16x16 array through the bank-level dram tier
 * (DramCycleEngine::runLayer) under the UAV channel: a 400 MB/s linear
 * camera stream and a 200 MB/s random host stream, open- or closed-row.
 * bursts_per_s counts every channel burst (NPU and background) per
 * second.
 */
void
BM_DramRunLayer(benchmark::State &state, const char *layer_name,
                dram::RowPolicy policy)
{
    const nn::Model model = nn::buildE2EModel({5, 48});
    const nn::Layer *layer = nullptr;
    for (const nn::Layer &candidate : model.layers()) {
        if (candidate.name == layer_name)
            layer = &candidate;
    }
    if (layer == nullptr) {
        state.SkipWithError("layer not in the 5L/48F model");
        return;
    }
    systolic::AcceleratorConfig config;
    config.peRows = 16;
    config.peCols = 16;
    dram::DramTiming timing;
    timing.rowPolicy = policy;
    const dram::DramCycleEngine engine(
        config, dram::uavDramSpec(timing, 400e6, 200e6));
    benchmark::DoNotOptimize(engine.runLayer(*layer));
    const std::int64_t bursts = engine.runStats().accesses();
    for (auto _ : state) {
        benchmark::DoNotOptimize(engine.runLayer(*layer));
    }
    state.counters["bursts_per_s"] = benchmark::Counter(
        static_cast<double>(bursts) *
            static_cast<double>(state.iterations()),
        benchmark::Counter::kIsRate);
}
BENCHMARK_CAPTURE(BM_DramRunLayer, fc_trunk_open, "fc_trunk",
                  dram::RowPolicy::Open)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_DramRunLayer, fc_trunk_closed, "fc_trunk",
                  dram::RowPolicy::Closed)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_DramRunLayer, conv2_open, "conv2",
                  dram::RowPolicy::Open)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_DramRunLayer, conv2_closed, "conv2",
                  dram::RowPolicy::Closed)
    ->Unit(benchmark::kMicrosecond);

/**
 * The channel's background drain alone: one ChannelTimeline under the
 * UAV channel (400 MB/s camera, 200 MB/s random host, open rows) fed
 * 256 B NPU reads spaced state.range(0) cycles apart, so each transfer
 * first drains the background bursts that arrived in the gap: about two
 * at 60 cycles, fourteen at 300 and 4,700 at 1e5. ns_per_burst is the
 * wall time per background burst, the NPU's own share included.
 */
void
BM_DramDrain(benchmark::State &state)
{
    systolic::AcceleratorConfig config;
    config.peRows = 16;
    config.peCols = 16;
    const std::int64_t gap = state.range(0);
    dram::ChannelTimeline channel(
        dram::uavDramSpec(dram::DramTiming{}, 400e6, 200e6), config);
    std::int64_t cycle = 0;
    for (auto _ : state)
        cycle = channel.transfer(cycle + gap, 256, false);
    benchmark::DoNotOptimize(cycle);
    state.counters["ns_per_burst"] = benchmark::Counter(
        static_cast<double>(channel.stats().backgroundRequests) * 1e-9,
        benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_DramDrain)->Arg(60)->Arg(300)->Arg(100000);

void
BM_NpuPowerEstimate(benchmark::State &state)
{
    const nn::Model model = nn::buildE2EModel({7, 48});
    const systolic::AnalyticalEngine engine(midConfig());
    const systolic::RunResult run = engine.run(model);
    const power::NpuPowerModel npu(midConfig());
    for (auto _ : state) {
        benchmark::DoNotOptimize(npu.averagePowerW(run));
    }
}
BENCHMARK(BM_NpuPowerEstimate);

void
BM_GpFitPredict(benchmark::State &state)
{
    const std::size_t n = static_cast<std::size_t>(state.range(0));
    util::Rng rng(5);
    std::vector<std::vector<double>> inputs;
    std::vector<double> targets;
    for (std::size_t i = 0; i < n; ++i) {
        std::vector<double> x(7);
        for (double &v : x)
            v = rng.uniform();
        inputs.push_back(x);
        targets.push_back(rng.normal());
    }
    const std::vector<double> query(7, 0.5);
    for (auto _ : state) {
        dse::GaussianProcess gp;
        gp.fit(inputs, targets);
        benchmark::DoNotOptimize(gp.predict(query).mean);
    }
    state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_GpFitPredict)->Arg(32)->Arg(64)->Arg(128)->Complexity();

/**
 * GP posterior of a 256-query pool against an n-point fit with three
 * targets (the BO screen's shape). BM_GpPredictBlock scores it in
 * four-query predictBlock() calls, BM_GpPredictPerQuery with the
 * one-query-at-a-time shared GP those replaced (the tests/reference/
 * oracle). s_per_candidate is the time per scored query.
 */
template <typename Gp>
void
runGpPredict(benchmark::State &state)
{
    const std::size_t n = static_cast<std::size_t>(state.range(0));
    util::Rng rng(0x6B + n);
    auto point = [&] {
        std::vector<double> x(7);
        for (double &v : x)
            v = rng.uniform();
        return x;
    };
    std::vector<std::vector<double>> inputs;
    std::vector<std::vector<double>> targets(3);
    for (std::size_t i = 0; i < n; ++i) {
        inputs.push_back(point());
        for (std::vector<double> &column : targets)
            column.push_back(rng.normal());
    }
    std::vector<std::vector<double>> pool;
    for (int c = 0; c < 256; ++c)
        pool.push_back(point());
    Gp gp;
    gp.fit(inputs, targets);

    constexpr std::size_t lanes = dse::SharedGaussianProcess::kBlockLanes;
    std::vector<dse::GpPrediction> out(lanes * 3);
    for (auto _ : state) {
        double sum = 0.0;
        for (std::size_t first = 0; first < pool.size(); first += lanes) {
            if constexpr (std::is_same_v<Gp, dse::SharedGaussianProcess>) {
                gp.predictBlock(&pool[first], lanes, out.data());
                for (std::size_t j = 0; j < lanes; ++j)
                    sum += out[j * 3].variance;
            } else {
                for (std::size_t j = 0; j < lanes; ++j)
                    sum += gp.predict(pool[first + j])[0].variance;
            }
        }
        benchmark::DoNotOptimize(sum);
    }
    state.counters["s_per_candidate"] = benchmark::Counter(
        static_cast<double>(pool.size()),
        benchmark::Counter::kIsIterationInvariantRate |
            benchmark::Counter::kInvert);
}

void
BM_GpPredictBlock(benchmark::State &state)
{
    runGpPredict<dse::SharedGaussianProcess>(state);
}
BENCHMARK(BM_GpPredictBlock)->Arg(32)->Arg(100)->Arg(400);

void
BM_GpPredictPerQuery(benchmark::State &state)
{
    runGpPredict<dse::reference::SharedGaussianProcess>(state);
}
BENCHMARK(BM_GpPredictPerQuery)->Arg(32)->Arg(100)->Arg(400);

void
BM_Hypervolume3D(benchmark::State &state)
{
    util::Rng rng(9);
    std::vector<dse::Objectives> points;
    for (int i = 0; i < state.range(0); ++i)
        points.push_back({rng.uniform(), rng.uniform(), rng.uniform()});
    const dse::Objectives reference = {1.0, 1.0, 1.0};
    for (auto _ : state) {
        benchmark::DoNotOptimize(dse::hypervolume(points, reference));
    }
}
BENCHMARK(BM_Hypervolume3D)->Arg(16)->Arg(64)->Arg(256);

void
BM_RolloutEpisode(benchmark::State &state)
{
    const auto env_config = airlearning::EnvironmentConfig::forDensity(
        airlearning::ObstacleDensity::Dense);
    const airlearning::EnvironmentGenerator generator(env_config);
    const auto capability =
        airlearning::PolicyCapability::fromQuality(0.7);
    util::Rng rng(11);
    const airlearning::Environment env = generator.generate(rng);
    for (auto _ : state) {
        util::Rng episode_rng(state.iterations());
        benchmark::DoNotOptimize(
            airlearning::runEpisode(env, capability,
                                    airlearning::RolloutConfig(),
                                    episode_rng)
                .steps);
    }
}
BENCHMARK(BM_RolloutEpisode);

void
BM_PolicyValidation(benchmark::State &state)
{
    const auto env_config = airlearning::EnvironmentConfig::forDensity(
        airlearning::ObstacleDensity::Medium);
    const auto capability =
        airlearning::PolicyCapability::fromQuality(0.7);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            airlearning::evaluatePolicy(env_config, capability, 50, 7)
                .successes);
    }
}
BENCHMARK(BM_PolicyValidation);

const autopilot::airlearning::PolicyDatabase &
benchDatabase()
{
    static const autopilot::airlearning::PolicyDatabase db = [] {
        autopilot::airlearning::TrainerConfig config;
        config.validationEpisodes = 30;
        const autopilot::airlearning::Trainer trainer(config);
        autopilot::airlearning::PolicyDatabase built;
        trainer.trainAll(nn::PolicySpace(),
                         autopilot::airlearning::ObstacleDensity::Dense,
                         built);
        return built;
    }();
    return db;
}

/**
 * Cold-cache batch evaluation of 128 distinct design points at N worker
 * threads: the serial-vs-parallel throughput comparison for one
 * optimizer generation. Arg(1) runs without a pool (the strictly serial
 * path); wall-clock time is what matters, hence UseRealTime.
 */
void
BM_BatchEvaluate128(benchmark::State &state)
{
    const std::size_t threads =
        static_cast<std::size_t>(state.range(0));
    const auto &db = benchDatabase();

    const dse::DesignSpace space;
    util::Rng rng(0xBA7C);
    std::set<dse::Encoding> seen;
    std::vector<dse::Encoding> points;
    while (points.size() < 128) {
        const dse::Encoding encoding = space.randomEncoding(rng);
        if (seen.insert(encoding).second)
            points.push_back(encoding);
    }

    std::unique_ptr<util::ThreadPool> pool;
    if (threads > 1)
        pool = std::make_unique<util::ThreadPool>(threads);

    // Collect the evaluator/pool telemetry for this thread count so the
    // benchmark report shows where the wall-clock goes (queue wait vs
    // task run) next to the throughput numbers.
    util::Telemetry &telemetry = util::Telemetry::instance();
    telemetry.reset();
    telemetry.setEnabled(true);

    for (auto _ : state) {
        state.PauseTiming(); // Fresh evaluator => cold memo cache.
        auto evaluator = std::make_unique<dse::DseEvaluator>(
            db, autopilot::airlearning::ObstacleDensity::Dense);
        evaluator->setThreadPool(pool.get());
        state.ResumeTiming();

        const auto results = evaluator->evaluateBatch(points);
        benchmark::DoNotOptimize(results.data());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            128);

    if (pool)
        pool->shutdown(); // Quiesce task epilogues before reading.
    telemetry.setEnabled(false);
    const util::MetricsRegistry &metrics = telemetry.metrics();
    const util::MetricSample hits = metrics.find("dse.cache.hit");
    const util::MetricSample misses = metrics.find("dse.cache.miss");
    const util::MetricSample tasks = metrics.find("pool.tasks");
    const util::MetricSample run_s = metrics.find("pool.task_run_s");
    const util::MetricSample wait_s = metrics.find("pool.queue_wait_s");
    const util::MetricSample sim_s = metrics.find("dse.simulate_s");
    state.counters["cache_hits"] =
        benchmark::Counter(static_cast<double>(hits.count));
    state.counters["cache_misses"] =
        benchmark::Counter(static_cast<double>(misses.count));
    state.counters["pool_tasks"] =
        benchmark::Counter(static_cast<double>(tasks.count));
    auto mean_ms = [](const util::MetricSample &sample) {
        return sample.count == 0
                   ? 0.0
                   : sample.sum / static_cast<double>(sample.count) *
                         1e3;
    };
    state.counters["task_run_ms_mean"] =
        benchmark::Counter(mean_ms(run_s));
    state.counters["queue_wait_ms_mean"] =
        benchmark::Counter(mean_ms(wait_s));
    state.counters["simulate_ms_mean"] =
        benchmark::Counter(mean_ms(sim_s));
    telemetry.reset();
}
BENCHMARK(BM_BatchEvaluate128)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/**
 * One SMS-EGO iteration of BayesOpt at archive size N, split into its
 * three layers, each reported as a per-iteration counter in ms:
 *  - fit_ms: refit the three objective GPs after the archive grew by one
 *    point (the loop's steady state);
 *  - screen_ms: score 256 + N candidates (GP posterior, then the
 *    hypervolume gain of the LCB point against the current front);
 *  - hv_ms: the archive hypervolume the history update records.
 * BM_BoIteration runs the optimizer's path (one shared GP factor
 * extended by a row, the pool scored in four-query predictBlock() calls,
 * one HypervolumeGain per iteration);
 * BM_BoIterationReference runs the path it replaced (three per-objective
 * GPs factorized from scratch, hypervolumeContribution per candidate).
 * Both score the same pool serially, so the two are comparable.
 */
struct BoIterationFixture
{
    std::vector<std::vector<double>> inputs;
    std::vector<std::vector<double>> targets; ///< One per objective.
    std::vector<dse::Objectives> archive;
    std::vector<dse::Objectives> front;
    std::vector<std::vector<double>> pool;
    dse::Objectives reference = dse::OptimizerConfig().referencePoint;

    explicit BoIterationFixture(std::size_t n)
    {
        dse::DseEvaluator evaluator(
            benchDatabase(), autopilot::airlearning::ObstacleDensity::Dense);
        const dse::DesignSpace &space = evaluator.space();
        util::Rng rng(0xB0 + n);
        std::set<dse::Encoding> seen;
        std::vector<dse::Encoding> encodings;
        while (encodings.size() < n) {
            const dse::Encoding encoding = space.randomEncoding(rng);
            if (seen.insert(encoding).second)
                encodings.push_back(encoding);
        }
        targets.resize(3);
        for (const dse::Encoding &encoding : encodings) {
            const dse::Evaluation &evaluation = evaluator.evaluate(encoding);
            inputs.push_back(space.features(encoding));
            archive.push_back(evaluation.objectives);
            for (std::size_t d = 0; d < 3; ++d)
                targets[d].push_back(evaluation.objectives[d]);
        }
        front = dse::paretoFront(archive);
        for (int c = 0; c < 256; ++c)
            pool.push_back(space.features(space.randomEncoding(rng)));
        for (const dse::Encoding &encoding : encodings)
            pool.push_back(space.features(space.neighbor(encoding, rng)));
    }
};

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
}

template <bool Shared>
void
runBoIteration(benchmark::State &state)
{
    const std::size_t n = static_cast<std::size_t>(state.range(0));
    const BoIterationFixture fixture(n);
    const std::vector<std::vector<double>> grown_from(
        fixture.inputs.begin(), fixture.inputs.end() - 1);
    std::vector<std::vector<double>> targets_from;
    for (const std::vector<double> &column : fixture.targets)
        targets_from.emplace_back(column.begin(), column.end() - 1);

    double fit_s = 0.0, screen_s = 0.0, hv_s = 0.0;
    for (auto _ : state) {
        double sum = 0.0;
        if constexpr (Shared) {
            state.PauseTiming(); // The previous iteration's fit.
            dse::SharedGaussianProcess gp;
            gp.fit(grown_from, targets_from);
            state.ResumeTiming();

            auto start = std::chrono::steady_clock::now();
            gp.fit(fixture.inputs, fixture.targets);
            fit_s += secondsSince(start);

            start = std::chrono::steady_clock::now();
            const dse::HypervolumeGain gain(fixture.front,
                                            fixture.reference);
            constexpr std::size_t lanes =
                dse::SharedGaussianProcess::kBlockLanes;
            std::vector<dse::GpPrediction> predictions(lanes * 3);
            for (std::size_t first = 0; first < fixture.pool.size();
                 first += lanes) {
                const std::size_t count =
                    std::min(lanes, fixture.pool.size() - first);
                gp.predictBlock(&fixture.pool[first], count,
                                predictions.data());
                for (std::size_t j = 0; j < count; ++j) {
                    dse::Objectives lcb(3);
                    for (std::size_t d = 0; d < 3; ++d) {
                        const dse::GpPrediction &p =
                            predictions[j * 3 + d];
                        lcb[d] = p.mean - p.stddev();
                    }
                    sum += gain.contribution(lcb);
                }
            }
            screen_s += secondsSince(start);
        } else {
            auto start = std::chrono::steady_clock::now();
            std::vector<dse::GaussianProcess> models(3);
            for (std::size_t d = 0; d < 3; ++d)
                models[d].fit(fixture.inputs, fixture.targets[d]);
            fit_s += secondsSince(start);

            start = std::chrono::steady_clock::now();
            for (const std::vector<double> &features : fixture.pool) {
                dse::Objectives lcb(3);
                for (std::size_t d = 0; d < 3; ++d) {
                    const dse::GpPrediction prediction =
                        models[d].predict(features);
                    lcb[d] = prediction.mean - prediction.stddev();
                }
                sum += dse::hypervolumeContribution(fixture.front, lcb,
                                                    fixture.reference);
            }
            screen_s += secondsSince(start);
        }

        const auto start = std::chrono::steady_clock::now();
        sum += dse::hypervolume(fixture.archive, fixture.reference);
        hv_s += secondsSince(start);
        benchmark::DoNotOptimize(sum);
    }
    const auto per_iteration_ms = [&](double seconds) {
        return benchmark::Counter(seconds * 1e3 /
                                  static_cast<double>(state.iterations()));
    };
    state.counters["fit_ms"] = per_iteration_ms(fit_s);
    state.counters["screen_ms"] = per_iteration_ms(screen_s);
    state.counters["hv_ms"] = per_iteration_ms(hv_s);
    state.counters["front"] =
        benchmark::Counter(static_cast<double>(fixture.front.size()));
    state.counters["candidates"] =
        benchmark::Counter(static_cast<double>(fixture.pool.size()));
}

void
BM_BoIteration(benchmark::State &state)
{
    runBoIteration<true>(state);
}
BENCHMARK(BM_BoIteration)->Arg(100)->Arg(400)->Unit(benchmark::kMillisecond);

void
BM_BoIterationReference(benchmark::State &state)
{
    runBoIteration<false>(state);
}
BENCHMARK(BM_BoIterationReference)
    ->Arg(100)
    ->Arg(400)
    ->Unit(benchmark::kMillisecond);

/**
 * Hypervolume gain of 256 candidates against a mutually non-dominated
 * front of N points on the simplex x + y + z = 1: per-candidate
 * hypervolumeContribution (reference) against one HypervolumeGain built
 * for the front (gain). Candidates scatter around the front, so some
 * are dominated, some clipped and most gain volume.
 */
void
BM_HypervolumeContribution(benchmark::State &state, bool useGain)
{
    util::Rng rng(0x4F);
    std::vector<dse::Objectives> front;
    while (front.size() < static_cast<std::size_t>(state.range(0))) {
        const double a = rng.uniform();
        const double b = rng.uniform() * (1.0 - a);
        front.push_back({a, b, 1.0 - a - b});
    }
    front = dse::paretoFront(front);
    std::vector<dse::Objectives> candidates;
    for (int c = 0; c < 256; ++c) {
        const double a = rng.uniform();
        const double b = rng.uniform() * (1.0 - a);
        const double scale = rng.uniform(0.8, 1.2);
        candidates.push_back(
            {a * scale, b * scale, (1.0 - a - b) * scale});
    }
    const dse::Objectives reference = {1.1, 1.1, 1.1};
    for (auto _ : state) {
        double sum = 0.0;
        if (useGain) {
            const dse::HypervolumeGain gain(front, reference);
            for (const dse::Objectives &candidate : candidates)
                sum += gain.contribution(candidate);
        } else {
            for (const dse::Objectives &candidate : candidates)
                sum += dse::hypervolumeContribution(front, candidate,
                                                    reference);
        }
        benchmark::DoNotOptimize(sum);
    }
    state.counters["front"] =
        benchmark::Counter(static_cast<double>(front.size()));
}
BENCHMARK_CAPTURE(BM_HypervolumeContribution, reference, false)
    ->Arg(24)
    ->Arg(64)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_HypervolumeContribution, gain, true)
    ->Arg(24)
    ->Arg(64)
    ->Unit(benchmark::kMicrosecond);

/**
 * Cold-cache batch evaluation of 160 distinct points through each
 * cost-model backend at 4 worker threads (the bench_engine_validation
 * pool): the per-generation price of fidelity. The cycle_sims counter
 * shows how many cycle-accurate engine runs each backend paid for the
 * batch - the quantity the tiered backend exists to conserve (0 for
 * analytical, 160 for cycle, only the Pareto-competitive subset for
 * tiered).
 */
void
BM_BackendBatchEvaluate160(benchmark::State &state,
                           const char *backend_name)
{
    const auto &db = benchDatabase();

    const dse::DesignSpace space;
    util::Rng rng(0xBEC0);
    std::set<dse::Encoding> seen;
    std::vector<dse::Encoding> points;
    while (points.size() < 160) {
        const dse::Encoding encoding = space.randomEncoding(rng);
        if (seen.insert(encoding).second)
            points.push_back(encoding);
    }

    util::ThreadPool pool(4);
    util::Telemetry &telemetry = util::Telemetry::instance();
    telemetry.reset();
    telemetry.setEnabled(true);

    std::size_t promoted_total = 0;
    for (auto _ : state) {
        state.PauseTiming(); // Fresh evaluator => cold memo cache.
        auto evaluator = std::make_unique<dse::DseEvaluator>(
            db, autopilot::airlearning::ObstacleDensity::Dense,
            backend_name);
        evaluator->setThreadPool(&pool);
        state.ResumeTiming();

        const auto results = evaluator->evaluateBatch(points);
        benchmark::DoNotOptimize(results.data());

        state.PauseTiming();
        if (const auto *tiered = dynamic_cast<const dse::TieredBackend *>(
                &evaluator->backend()))
            promoted_total += tiered->promotedCount();
        state.ResumeTiming();
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) * 160);

    pool.shutdown(); // Quiesce task epilogues before reading.
    telemetry.setEnabled(false);
    const std::string name(backend_name);
    double cycle_sims = 0.0;
    if (name == "cycle")
        cycle_sims = 160.0;
    else if (name == "tiered")
        cycle_sims = static_cast<double>(promoted_total) /
                     static_cast<double>(state.iterations());
    state.counters["cycle_sims"] = benchmark::Counter(cycle_sims);
    telemetry.reset();
}
BENCHMARK_CAPTURE(BM_BackendBatchEvaluate160, analytical, "analytical")
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_BackendBatchEvaluate160, cycle, "cycle")
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_BackendBatchEvaluate160, tiered, "tiered")
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/**
 * Chunked-claiming sweep: a cheap per-iteration body over 64k indices
 * at 8 workers, with the claim grain at 1 / 16 / 256. At grain 1 every
 * index is its own fetch_add and the latch takes 64k one-count
 * count-downs; larger grains amortize both. queue_wait_ms_mean tracks
 * how long helper tasks sat in the pool queue before draining.
 */
void
BM_ParallelForGrain(benchmark::State &state)
{
    const std::size_t grain = static_cast<std::size_t>(state.range(0));
    constexpr std::size_t n = 1 << 16;
    util::ThreadPool pool(8);
    std::vector<double> data(n, 1.0);

    util::Telemetry &telemetry = util::Telemetry::instance();
    telemetry.reset();
    telemetry.setEnabled(true);

    for (auto _ : state) {
        pool.parallelFor(
            n,
            [&](std::size_t i) {
                benchmark::DoNotOptimize(data[i] += 1.0);
            },
            grain);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(n));

    pool.shutdown(); // Quiesce late helper tasks before reading.
    telemetry.setEnabled(false);
    const util::MetricsRegistry &metrics = telemetry.metrics();
    const util::MetricSample wait_s = metrics.find("pool.queue_wait_s");
    const util::MetricSample tasks = metrics.find("pool.tasks");
    state.counters["pool_tasks"] =
        benchmark::Counter(static_cast<double>(tasks.count));
    state.counters["queue_wait_ms_mean"] = benchmark::Counter(
        wait_s.count == 0
            ? 0.0
            : wait_s.sum / static_cast<double>(wait_s.count) * 1e3);
    telemetry.reset();
}
BENCHMARK(BM_ParallelForGrain)
    ->Arg(1)
    ->Arg(16)
    ->Arg(256)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/**
 * Per-batch journal flush overhead: the BM_BatchEvaluate128 workload
 * (cold cache, serial) with Arg(1) attaching an EvalJournalWriter sink
 * that appends+flushes the batch, Arg(0) running journal-free. The
 * delta between the two is what checkpoint durability costs one
 * optimizer generation - the ISSUE budget is < 5 % of the no-journal
 * batch time.
 */
void
BM_JournalAppend(benchmark::State &state)
{
    const bool journaled = state.range(0) != 0;
    const auto &db = benchDatabase();

    const dse::DesignSpace space;
    util::Rng rng(0xBA7C);
    std::set<dse::Encoding> seen;
    std::vector<dse::Encoding> points;
    while (points.size() < 128) {
        const dse::Encoding encoding = space.randomEncoding(rng);
        if (seen.insert(encoding).second)
            points.push_back(encoding);
    }

    const std::string path =
        (std::filesystem::temp_directory_path() /
         "autopilot_bench_journal.csv")
            .string();

    for (auto _ : state) {
        state.PauseTiming(); // Fresh evaluator => cold memo cache.
        auto evaluator = std::make_unique<dse::DseEvaluator>(
            db, autopilot::airlearning::ObstacleDensity::Dense);
        std::unique_ptr<io::EvalJournalWriter> writer;
        if (journaled) {
            writer = std::make_unique<io::EvalJournalWriter>(path, 0x1);
            evaluator->setJournalSink(
                [&writer](std::span<const dse::Evaluation> batch) {
                    writer->append(batch);
                });
        }
        state.ResumeTiming();

        const auto results = evaluator->evaluateBatch(points);
        benchmark::DoNotOptimize(results.data());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            128);
    std::filesystem::remove(path);
}
BENCHMARK(BM_JournalAppend)
    ->Arg(0)
    ->Arg(1)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/**
 * Resume warm-start cost: replaying a 128-row journal prefix into a
 * fresh evaluator (preload: cache inserts + backend warm-start) versus
 * re-simulating the same 128 points from scratch (the work a resume
 * avoids). The ratio is the payoff of checkpoint/resume for one
 * generation-sized prefix; tiered replays re-screen analytically, so
 * they cost more than analytical replays but still skip every cycle-
 * accurate run.
 */
void
BM_ResumeWarmStart(benchmark::State &state, const char *backend_name)
{
    const auto &db = benchDatabase();

    const dse::DesignSpace space;
    util::Rng rng(0xBA7C);
    std::set<dse::Encoding> seen;
    std::vector<dse::Encoding> points;
    while (points.size() < 128) {
        const dse::Encoding encoding = space.randomEncoding(rng);
        if (seen.insert(encoding).second)
            points.push_back(encoding);
    }

    // The "journal": one uninterrupted run's evaluations.
    dse::DseEvaluator source(
        db, autopilot::airlearning::ObstacleDensity::Dense,
        backend_name);
    source.evaluateBatch(points);
    const std::vector<dse::Evaluation> journal =
        source.allEvaluations();

    for (auto _ : state) {
        state.PauseTiming();
        auto resumed = std::make_unique<dse::DseEvaluator>(
            db, autopilot::airlearning::ObstacleDensity::Dense,
            backend_name);
        state.ResumeTiming();

        resumed->preload(journal);
        benchmark::DoNotOptimize(resumed->evaluationCount());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            128);
}
BENCHMARK_CAPTURE(BM_ResumeWarmStart, analytical, "analytical")
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_ResumeWarmStart, tiered, "tiered")
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
