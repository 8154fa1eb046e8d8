/**
 * @file
 * Deterministic event-interleaved channel arbiter.
 *
 * One ChannelTimeline owns the channel for one layer simulation: the
 * NPU's prefetch/writeback transfers (driven by the engine's fold
 * timeline) and every background generator's bursts are serialized in
 * strict arrival order - a request is serviced before an NPU transfer
 * only when it arrived no later than the transfer's earliest start,
 * with ties broken by fixed stream priority (generators in spec order,
 * then the NPU). Arrival-order FCFS is starvation-free by construction:
 * a generator injects a bounded number of requests per time window, so
 * every NPU transfer completes in bounded time no matter how overloaded
 * the channel is - no feasibility derate needed, unlike the contention
 * profile. Each source sits behind a finite FIFO: when its nominal rate
 * exceeds what the channel can service, injection stalls (backpressure)
 * instead of accumulating an unbounded backlog, so an overloaded spec
 * costs simulated cycles, never unbounded simulation work.
 *
 * A generator's next arrival moves only when that generator is
 * serviced, so once an NPU transfer's first burst wins the channel no
 * background request can overtake the rest of the transfer. Its bursts
 * then walk consecutive addresses back to back, and each run of bursts
 * that classify alike (same-row hits under the open-row policy, misses
 * under closed-row) before the next refresh is serviced in closed form
 * by BankModel::serviceRun; only row heads, partial tails, refresh
 * crossings and background bursts go through BankModel::service one at
 * a time. Completions and stats equal the per-burst channel's exactly.
 * Every division on the burst path is by a constant of the timeline
 * (FixedDivisor: a shift and a mask for a power of two).
 *
 * Everything is integer/fixed-seed arithmetic on one thread; two
 * timelines built from the same spec and fed the same transfer sequence
 * produce bit-identical completions and stats, which is what makes the
 * dram backend byte-identical at any worker-thread count.
 */

#ifndef AUTOPILOT_DRAM_CHANNEL_H
#define AUTOPILOT_DRAM_CHANNEL_H

#include <cstdint>

#include "dram/bank_model.h"
#include "dram/config.h"
#include "systolic/config.h"

namespace autopilot::dram
{

/** One layer's shared-channel service timeline. */
class ChannelTimeline
{
  public:
    /**
     * @param spec   Validated channel description (enabled or not).
     * @param config Accelerator configuration; supplies the channel
     *               width (dramBytesPerCycle) and the NPU clock that
     *               converts generator bytes/s into cycles. Fatal when
     *               the refresh interval cannot even cover one burst at
     *               this width (the channel would never make progress).
     */
    ChannelTimeline(const DramSpec &spec,
                    const systolic::AcceleratorConfig &config);

    /**
     * Service one NPU transfer of @p bytes arriving at @p earliestStart,
     * split into burst-sized channel requests; background requests that
     * arrived earlier win the channel first, and same-row burst runs are
     * serviced in closed form. Returns the completion cycle of the last
     * burst (== @p earliestStart when bytes == 0).
     */
    std::int64_t transfer(std::int64_t earliestStart, std::int64_t bytes,
                          bool write);

    const ChannelStats &stats() const { return stats_; }

  private:
    struct GeneratorState
    {
        TrafficGeneratorSpec spec;
        double interArrivalCycles = 0.0;
        double nextArrival = 0.0;
        std::int64_t offset = 0; ///< Linear walk position in the window.
        FixedDivisor window;     ///< addressRange.
        FixedDivisor slots;      ///< Burst-aligned slots in the window.
        std::uint64_t rng = 0;
        std::size_t statsIndex = 0;
    };

    /// Service @p generator's front request; advances channel and
    /// arrival state.
    void serviceGenerator(GeneratorState &generator);

    /// The generator whose front request arrived earliest (ties by spec
    /// order), or null when no generator is active.
    GeneratorState *earliestGenerator();

    DramSpec spec_;
    std::int64_t bytesPerCycle;
    FixedDivisor burstBytes;
    BankModel banks;
    std::int64_t channelFree = 0;
    /// NPU stream walk positions: reads from the model/weight region,
    /// writes to a disjoint output region.
    std::int64_t npuReadAddr = 0;
    std::int64_t npuWriteAddr = 1ll << 28;
    std::vector<GeneratorState> generators;
    ChannelStats stats_;
};

} // namespace autopilot::dram

#endif // AUTOPILOT_DRAM_CHANNEL_H
