#include "systolic/trace.h"

#include "systolic/fold_stream.h"

namespace autopilot::systolic
{

std::string
traceEventKindName(TraceEventKind kind)
{
    switch (kind) {
      case TraceEventKind::DramFetch:     return "dram_fetch";
      case TraceEventKind::DramWriteback: return "dram_writeback";
      case TraceEventKind::SramRead:      return "sram_read";
      case TraceEventKind::SramWrite:     return "sram_write";
    }
    return "?";
}

std::int64_t
LayerTrace::totalOf(TraceEventKind kind) const
{
    std::int64_t total = 0;
    for (const TraceEvent &event : events) {
        if (event.kind == kind)
            total += event.amount;
    }
    return total;
}

void
LayerTrace::writeCsv(std::ostream &os) const
{
    os << "layer,fold,cycle,kind,amount\n";
    for (const TraceEvent &event : events) {
        os << layerName << ',' << event.foldIndex << ','
           << event.startCycle << ',' << traceEventKindName(event.kind)
           << ',' << event.amount << '\n';
    }
}

LayerTrace
traceLayer(const nn::Layer &layer, const AcceleratorConfig &config)
{
    const FoldStream stream(layer, config);
    const LayerTraffic &traffic = stream.shares().traffic();
    const std::int64_t fold_count = stream.shares().geometry().foldCount();

    auto share = [fold_count](std::int64_t total, std::int64_t fold) {
        const std::int64_t base = total / fold_count;
        const std::int64_t extra = total % fold_count;
        return base + (fold < extra ? 1 : 0);
    };

    LayerTrace trace;
    trace.layerName = layer.name;
    trace.events.reserve(static_cast<std::size_t>(fold_count) * 4);

    const std::int64_t sram_reads =
        traffic.ifmapSramReads + traffic.filterSramReads +
        traffic.psumSramReads;
    const std::int64_t sram_writes =
        traffic.ofmapSramWrites + traffic.psumSramWrites;

    // Same timeline as CycleEngine::runLayer, one event per fold step.
    runFoldTimeline(
        stream.runs(), BandwidthTransfer(config.dramBytesPerCycle),
        [&](const FoldStep &step) {
            const std::int64_t f = step.fold;
            if (step.fetchBytes > 0) {
                trace.events.push_back({f, step.fetchStart,
                                        TraceEventKind::DramFetch,
                                        step.fetchBytes});
            }
            trace.events.push_back({f, step.computeStart,
                                    TraceEventKind::SramRead,
                                    share(sram_reads, f)});
            trace.events.push_back({f, step.computeStart,
                                    TraceEventKind::SramWrite,
                                    share(sram_writes, f)});
            if (step.writebackBytes > 0) {
                trace.events.push_back({f, step.writebackStart,
                                        TraceEventKind::DramWriteback,
                                        step.writebackBytes});
            }
        });
    return trace;
}

} // namespace autopilot::systolic
