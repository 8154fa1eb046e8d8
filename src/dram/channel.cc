#include "dram/channel.h"

#include <algorithm>
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

/// A drained stream's next arrival when its FIFO floor binds. Out of
/// line and cold on purpose: as a plain `if` the compiler turns the
/// clamp into a maxsd, which ties every burst's next arrival to the
/// previous burst's completion. A call stays a branch, predicted not
/// taken: the floor binds only right after a long NPU transfer and on a
/// saturated spec.
[[gnu::noinline, gnu::cold]] double
fifoFloorBinds(double fifoFloor)
{
    return fifoFloor;
}

} // namespace

ChannelTimeline::ChannelTimeline(const DramSpec &spec,
                                 const systolic::AcceleratorConfig &config)
    : burstBytes(spec.timing.burstBytes),
      banks(spec.timing, config.dramBytesPerCycle)
{
    spec.validate();

    // The config-dependent half of the degenerate-parameter diagnosis:
    // a refresh interval that cannot cover even one worst-case burst at
    // this channel width means the channel refreshes forever instead of
    // transferring - diagnose it, never simulate it.
    const DramTiming &t = spec.timing;
    const std::int64_t bytesPerCycle = config.dramBytesPerCycle;
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
    for (const TrafficGeneratorSpec &generator : spec.generators) {
        if (generator.bytesPerSec <= 0.0)
            continue; // Inert stream: injects nothing.
        Stream stream;
        stream.interArrivalCycles =
            static_cast<double>(t.burstBytes) * cyclesPerSec /
            generator.bytesPerSec;
        stream.nextArrival = stream.interArrivalCycles;
        stream.fifoSpan = kSourceFifoBursts * stream.interArrivalCycles;
        stream.randomness = generator.randomness;
        stream.rng = generator.seed;
        stream.addressBase = generator.addressBase;
        stream.strideBytes = generator.strideBytes;
        stream.window = FixedDivisor(generator.addressRange);
        stream.slots =
            FixedDivisor(generator.addressRange / t.burstBytes);
        stats_.generators.push_back({generator.name, 0, 0});
        streams.push_back(stream);
    }
}

[[gnu::always_inline]] inline double
ChannelTimeline::serviceStream(Stream &stream, double arrival,
                               std::int64_t &freeAt, RowCounts &rows)
{
    const std::int64_t burst = burstBytes.divisor();
    if (stream.randomness > 0.0) {
        stream.rng = lcgNext(stream.rng);
        if (lcgUniform(stream.rng) < stream.randomness) {
            // Jump to a random burst-aligned slot; the stream then
            // continues linearly from there until the next jump.
            stream.rng = lcgNext(stream.rng);
            const std::int64_t draw =
                static_cast<std::int64_t>(stream.rng >> 11);
            stream.offset = stream.slots.remainder(draw) * burst;
        }
    }
    const std::int64_t addr =
        stream.addressBase + stream.window.remainder(stream.offset);
    stream.offset += stream.strideBytes;

    freeAt = banks.serviceBurst(
        addr, std::max(freeAt, ceilNonNegative(arrival)), rows, stats_);
    ++stream.drained;
    // Backpressure: the source cannot run more than one FIFO's worth of
    // bursts behind the channel. A saturated stream is throttled to its
    // service rate; an unsaturated one never hits the floor.
    const double next = arrival + stream.interArrivalCycles;
    const double fifoFloor = static_cast<double>(freeAt) - stream.fifoSpan;
    if (next < fifoFloor) [[unlikely]]
        return fifoFloorBinds(fifoFloor);
    return next;
}

void
ChannelTimeline::drain(double npuArrival)
{
    // Channel occupancy and row outcomes live in registers for the
    // whole drain and are folded into the stats once at the end.
    std::int64_t freeAt = channelFree;
    RowCounts rows;
    if (streams.size() == 2) {
        // Both arrivals in registers: the pick is one compare (a tie
        // goes to the first stream), predicted from the streams' rate
        // pattern instead of waiting on a load. The scan below gives the
        // same result but costs 1.3-1.6x per burst (DESIGN.md §15).
        Stream &s0 = streams[0];
        Stream &s1 = streams[1];
        double a0 = s0.nextArrival;
        double a1 = s1.nextArrival;
        for (;;) {
            if (a1 < a0) {
                if (a1 > npuArrival)
                    break;
                a1 = serviceStream(s1, a1, freeAt, rows);
            } else {
                if (a0 > npuArrival)
                    break;
                a0 = serviceStream(s0, a0, freeAt, rows);
            }
        }
        s0.nextArrival = a0;
        s1.nextArrival = a1;
    } else {
        // Any other count: scan the contiguous stream array, earliest
        // arrival first, spec order on ties.
        Stream *const first = streams.data();
        Stream *const last = first + streams.size();
        while (first != last) {
            Stream *front = first;
            for (Stream *candidate = first + 1; candidate != last;
                 ++candidate) {
                if (candidate->nextArrival < front->nextArrival)
                    front = candidate;
            }
            if (front->nextArrival > npuArrival)
                break;
            front->nextArrival =
                serviceStream(*front, front->nextArrival, freeAt, rows);
        }
    }

    const std::int64_t burst = burstBytes.divisor();
    std::int64_t serviced = 0;
    for (std::size_t g = 0; g < streams.size(); ++g) {
        GeneratorStats &slice = stats_.generators[g];
        slice.requests += streams[g].drained;
        slice.bytes += streams[g].drained * burst;
        serviced += streams[g].drained;
        streams[g].drained = 0;
    }
    if (serviced == 0)
        return;
    channelFree = freeAt;
    banks.count(rows, stats_);
    stats_.backgroundRequests += serviced;
    stats_.backgroundBytes += serviced * burst;
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
    drain(static_cast<double>(earliestStart));

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
                             stats_);
        std::int64_t moved = bursts * burstBytes.divisor();
        if (bursts == 0) {
            moved = std::min(remaining, burstBytes.divisor());
            done = banks.service(npuAddr, moved, done, stats_);
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
