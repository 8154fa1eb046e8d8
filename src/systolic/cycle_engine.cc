#include "systolic/cycle_engine.h"

#include "util/logging.h"
#include "util/telemetry.h"

namespace autopilot::systolic
{

CycleEngine::CycleEngine(const AcceleratorConfig &config) : cfg(config)
{
    cfg.validate();
}

CycleEngine::CycleEngine(const AcceleratorConfig &config,
                         const ContentionProfile &contention)
    : cfg(config), profile(contention)
{
    cfg.validate();
    profile.validate();
    const std::string starved = profile.infeasibleReason(cfg);
    if (!starved.empty())
        util::fatal("CycleEngine: " + starved);
    bandwidthDerate = profile.enabled() ? profile.derate(cfg) : 1.0;
}

LayerResult
CycleEngine::runLayer(const nn::Layer &layer) const
{
    util::Telemetry &telemetry = util::Telemetry::instance();
    util::ScopedTimer sim_timer(
        telemetry.enabled()
            ? &telemetry.metrics().histogram(
                  "systolic.cycle.layer_sim_s")
            : nullptr);

    // The un-derated path stays the exact integer ceiling, so an empty
    // contention profile is bit-identical to the contention-free engine;
    // the derated path pays ceil(bytes / (BW * derate)).
    const BandwidthTransfer transfer(cfg.dramBytesPerCycle, bandwidthDerate);
    const FoldStream stream(layer, cfg);
    LayerResult result = timelineResult(
        layer, stream.shares(), jumpFoldTimeline(stream.runs(), transfer));

    if (telemetry.enabled()) {
        telemetry.metrics().counter("systolic.cycle.layers").add();
        telemetry.metrics()
            .counter("systolic.cycle.cycles")
            .add(static_cast<std::uint64_t>(result.totalCycles));
    }
    return result;
}

} // namespace autopilot::systolic
