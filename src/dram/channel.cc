#include "dram/channel.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "util/logging.h"

namespace autopilot::dram
{

namespace
{

/// Deterministic 64-bit LCG (Knuth MMIX constants); the top 53 bits
/// feed both the jump decision and the jump target, so a stream's
/// address sequence is a pure function of its seed.
std::uint64_t
lcgNext(std::uint64_t state)
{
    return state * 6364136223846793005ULL + 1442695040888963407ULL;
}

double
lcgUniform(std::uint64_t state)
{
    return static_cast<double>(state >> 11) * 0x1.0p-53;
}

/// Burst-depth of the FIFO between a traffic source and the channel.
/// A source whose nominal rate exceeds its service rate (e.g. a pure
/// random-access stream on a busy channel) stalls once the FIFO fills -
/// backpressure, like any real AXI master - so its backlog is bounded
/// and the simulation stays linear in simulated time instead of
/// accumulating an ever-growing queue.
constexpr double kSourceFifoBursts = 8.0;

} // namespace

ChannelTimeline::ChannelTimeline(const DramSpec &spec,
                                 const systolic::AcceleratorConfig &config)
    : spec_(spec), bytesPerCycle(config.dramBytesPerCycle),
      burstBytes(spec.timing.burstBytes), banks(spec.timing)
{
    spec_.validate();
    util::fatalIf(bytesPerCycle <= 0,
                  "ChannelTimeline: dramBytesPerCycle must be >= 1");

    // The config-dependent half of the degenerate-parameter diagnosis:
    // a refresh interval that cannot cover even one worst-case burst at
    // this channel width means the channel refreshes forever instead of
    // transferring - diagnose it, never simulate it.
    const DramTiming &t = spec_.timing;
    const std::int64_t worstBurst =
        t.tRpCycles + t.tRcdCycles + t.tCasCycles +
        (t.burstBytes + bytesPerCycle - 1) / bytesPerCycle;
    if (t.tRefiCycles <= t.tRfcCycles + worstBurst) {
        std::ostringstream what;
        what << "ChannelTimeline: refresh interval tREFI ("
             << t.tRefiCycles
             << " cycles) is no longer than one refresh stall plus one "
                "worst-case burst ("
             << t.tRfcCycles << " + " << worstBurst
             << " cycles) - the channel can never make progress between "
                "refreshes; raise tREFI or shrink the burst";
        util::fatal(what.str());
    }

    const double cyclesPerSec = config.clockGhz * 1e9;
    for (const TrafficGeneratorSpec &generator : spec_.generators) {
        if (generator.bytesPerSec <= 0.0)
            continue; // Inert stream: injects nothing.
        GeneratorState state;
        state.spec = generator;
        state.interArrivalCycles =
            static_cast<double>(spec_.timing.burstBytes) * cyclesPerSec /
            generator.bytesPerSec;
        state.nextArrival = state.interArrivalCycles;
        state.window = FixedDivisor(generator.addressRange);
        state.slots = FixedDivisor(generator.addressRange /
                                   spec_.timing.burstBytes);
        state.rng = generator.seed;
        state.statsIndex = stats_.generators.size();
        stats_.generators.push_back({generator.name, 0, 0});
        generators.push_back(std::move(state));
    }
}

ChannelTimeline::GeneratorState *
ChannelTimeline::earliestGenerator()
{
    GeneratorState *best = nullptr;
    for (GeneratorState &candidate : generators) {
        if (best == nullptr || candidate.nextArrival < best->nextArrival)
            best = &candidate;
    }
    return best;
}

void
ChannelTimeline::serviceGenerator(GeneratorState &generator)
{
    const TrafficGeneratorSpec &gen = generator.spec;
    const std::int64_t burst = spec_.timing.burstBytes;

    if (gen.randomness > 0.0) {
        generator.rng = lcgNext(generator.rng);
        if (lcgUniform(generator.rng) < gen.randomness) {
            // Jump to a random burst-aligned slot; the stream then
            // continues linearly from there until the next jump.
            generator.rng = lcgNext(generator.rng);
            const std::int64_t draw =
                static_cast<std::int64_t>(generator.rng >> 11);
            generator.offset = generator.slots.remainder(draw) * burst;
        }
    }
    const std::int64_t addr =
        gen.addressBase + generator.window.remainder(generator.offset);
    generator.offset += gen.strideBytes;

    const std::int64_t arrival = static_cast<std::int64_t>(
        std::ceil(generator.nextArrival));
    const std::int64_t start = std::max(channelFree, arrival);
    channelFree = banks.service(addr, burst, start, bytesPerCycle,
                                stats_);
    generator.nextArrival += generator.interArrivalCycles;
    // Backpressure: the source cannot run more than one FIFO's worth of
    // bursts behind the channel. A saturated stream is throttled to its
    // service rate; an unsaturated one never hits the floor.
    const double fifoFloor =
        static_cast<double>(channelFree) -
        kSourceFifoBursts * generator.interArrivalCycles;
    if (generator.nextArrival < fifoFloor)
        generator.nextArrival = fifoFloor;

    ++stats_.backgroundRequests;
    stats_.backgroundBytes += burst;
    GeneratorStats &slice = stats_.generators[generator.statsIndex];
    ++slice.requests;
    slice.bytes += burst;
}

std::int64_t
ChannelTimeline::transfer(std::int64_t earliestStart, std::int64_t bytes,
                          bool write)
{
    if (bytes <= 0)
        return earliestStart;

    // Strict arrival order: background requests that arrived no later
    // than this transfer go first (fixed priority on ties). Each service
    // advances that generator's next arrival, so the backlog drains in
    // bounded steps and the NPU never starves. A generator's arrival
    // moves only when it is serviced, so once the NPU wins the channel
    // no background request can overtake it until the transfer ends.
    const double npuArrival = static_cast<double>(earliestStart);
    for (GeneratorState *front = earliestGenerator();
         front != nullptr && front->nextArrival <= npuArrival;
         front = earliestGenerator())
        serviceGenerator(*front);

    // The rest is the NPU's own back-to-back burst train: same-row hits
    // (or, closed-row, all misses) up to the next refresh advance in
    // closed form; each row head, partial tail and refresh crossing is
    // one service() call.
    std::int64_t remaining = bytes;
    std::int64_t done = std::max(channelFree, earliestStart);
    std::int64_t &npuAddr = write ? npuWriteAddr : npuReadAddr;
    while (remaining > 0) {
        std::int64_t bursts =
            banks.serviceRun(npuAddr, burstBytes.quotient(remaining), done,
                             bytesPerCycle, stats_);
        std::int64_t moved = bursts * burstBytes.divisor();
        if (bursts == 0) {
            moved = std::min(remaining, burstBytes.divisor());
            done = banks.service(npuAddr, moved, done, bytesPerCycle,
                                 stats_);
            bursts = 1;
        }
        npuAddr += moved;
        remaining -= moved;
        stats_.npuRequests += bursts;
        stats_.npuBytes += moved;
    }
    channelFree = done;
    return done;
}

} // namespace autopilot::dram
