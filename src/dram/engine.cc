#include "dram/engine.h"

#include "util/telemetry.h"

namespace autopilot::dram
{

DramCycleEngine::DramCycleEngine(const systolic::AcceleratorConfig &config,
                                 const DramSpec &spec)
    : cfg(config), dramSpec(spec), pureCycle(config)
{
    cfg.validate();
    dramSpec.validate();
    if (dramSpec.enabled()) {
        // Surface config-dependent degeneracies (refresh interval vs
        // burst time at this channel width) at construction, not in the
        // middle of a batch.
        ChannelTimeline probe(dramSpec, cfg);
    }
}

systolic::LayerResult
DramCycleEngine::runLayer(const nn::Layer &layer) const
{
    if (!dramSpec.enabled())
        return pureCycle.runLayer(layer);

    util::Telemetry &telemetry = util::Telemetry::instance();
    util::ScopedTimer sim_timer(
        telemetry.enabled()
            ? &telemetry.metrics().histogram("dram.layer_sim_s")
            : nullptr);

    const systolic::FoldStream stream(layer, cfg);

    // Fresh per-layer channel: generator phase, bank rows and refresh
    // state reset so layers are independent of simulation order.
    ChannelTimeline channel(dramSpec, cfg);

    // Same fold timeline as CycleEngine, one transfer per fold: a
    // transfer's completion depends on the channel's state when it is
    // issued, so there is no steady state to jump over. Within a
    // transfer the channel services same-row burst runs in closed form.
    const systolic::FoldTimeline timeline = systolic::runFoldTimeline(
        stream.runs(),
        [&channel](std::int64_t start, std::int64_t bytes, bool is_write) {
            return channel.transfer(start, bytes, is_write);
        });
    systolic::LayerResult result =
        systolic::timelineResult(layer, stream.shares(), timeline);

    runStats_.accumulate(channel.stats());

    if (telemetry.enabled()) {
        telemetry.metrics().counter("dram.layers").add();
        telemetry.metrics()
            .counter("dram.cycles")
            .add(static_cast<std::uint64_t>(result.totalCycles));
    }
    return result;
}

} // namespace autopilot::dram
