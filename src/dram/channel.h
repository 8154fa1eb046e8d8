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
 * by BankModel::serviceRun; only row heads, partial tails and refresh
 * crossings go through BankModel::service one at a time.
 *
 * The background bursts that arrived before a transfer are serviced by
 * one drain loop (DESIGN.md §15) built so that consecutive bursts do not
 * form one serial dependency chain: the arrival ceiling is exact integer
 * arithmetic (ceilNonNegative), the bank classifies each burst without a
 * branch (BankModel::serviceBurst), refresh catch-up is out of line,
 * channel occupancy and row outcomes stay in registers, and the FIFO
 * floor clamp is a predicted branch, so a stream's next arrival does not
 * wait on the burst it just issued. With the usual two streams (the UAV
 * camera and host) both arrivals live in registers and picking the
 * earliest is one compare. Each arrival is still the same chain of
 * `+=` in the same order, so completions and stats equal the per-burst
 * channel's exactly. Every division on the burst path is by a constant
 * of the timeline (FixedDivisor: a shift and a mask for a power of two).
 *
 * Everything is integer/fixed-seed arithmetic on one thread; two
 * timelines built from the same spec and fed the same transfer sequence
 * produce bit-identical completions and stats, which is what makes the
 * dram backend byte-identical at any worker-thread count.
 */

#ifndef AUTOPILOT_DRAM_CHANNEL_H
#define AUTOPILOT_DRAM_CHANNEL_H

#include <cstdint>
#include <vector>

#include "dram/bank_model.h"
#include "dram/config.h"
#include "systolic/config.h"

namespace autopilot::dram
{

/**
 * static_cast<std::int64_t>(std::ceil(x)) for 0 <= x < 2^63, exactly and
 * without a libm call: the truncation, plus one when it dropped a
 * fraction. Below 2^53 the truncation converts back to double exactly,
 * so the comparison is exact; from 2^52 up every double is an integer
 * and nothing is dropped.
 */
inline std::int64_t
ceilNonNegative(double x)
{
    const std::int64_t truncated = static_cast<std::int64_t>(x);
    return truncated + (static_cast<double>(truncated) < x);
}

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
    /// One background stream's drain state. The drain loop reads these
    /// fields on every burst; they sit in one contiguous array, arrival
    /// first, so picking the earliest arrival walks the array directly.
    struct Stream
    {
        double nextArrival = 0.0;
        double interArrivalCycles = 0.0;
        /// kSourceFifoBursts * interArrivalCycles: how far the source
        /// may fall behind the channel before backpressure stalls it.
        double fifoSpan = 0.0;
        double randomness = 0.0;
        std::uint64_t rng = 0;
        std::int64_t offset = 0; ///< Linear walk position in the window.
        std::int64_t addressBase = 0;
        std::int64_t strideBytes = 0;
        FixedDivisor window;      ///< addressRange.
        FixedDivisor slots;       ///< Burst-aligned slots in the window.
        std::int64_t drained = 0; ///< Bursts serviced by this drain.
    };

    /// Service, in arrival order (ties by spec order), every background
    /// burst that arrived no later than @p npuArrival.
    void drain(double npuArrival);

    /// Service @p stream's burst that arrived at @p arrival on a channel
    /// free from cycle @p freeAt; advances @p freeAt, counts the row
    /// outcome into @p rows and returns the stream's next arrival.
    double serviceStream(Stream &stream, double arrival,
                         std::int64_t &freeAt, RowCounts &rows);

    FixedDivisor burstBytes;
    BankModel banks;
    std::int64_t channelFree = 0;
    /// NPU stream walk positions: reads from the model/weight region,
    /// writes to a disjoint output region.
    std::int64_t npuReadAddr = 0;
    std::int64_t npuWriteAddr = 1ll << 28;
    std::vector<Stream> streams; ///< Active generators, in spec order.
    ChannelStats stats_;
};

} // namespace autopilot::dram

#endif // AUTOPILOT_DRAM_CHANNEL_H
