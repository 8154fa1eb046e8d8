/**
 * @file
 * Compiled fold timeline: a layer's fold sequence compiled once, and the
 * one double-buffered prefetch recurrence every fold-level engine runs
 * over it (CycleEngine, dram::DramCycleEngine).
 *
 *  - FoldShares hoists computeTraffic() and analyzeResidency() out of the
 *    fold loop and gives each fold's DRAM fetch and writeback bytes in
 *    O(1), from the fold's (row, column) position.
 *  - FoldStream compiles the whole fold sequence into runs of consecutive
 *    folds with identical (fetch bytes, writeback bytes, fold cycles).
 *    Run boundaries come in closed form from the evenShare remainders
 *    and the first-row / first-column / last-row / last-column folds, so
 *    compiling costs O(row folds), not O(folds).
 *  - runFoldTimeline() steps the recurrence fold by fold through any
 *    transfer function. It is the only path for a time-dependent
 *    channel (the bank-level DRAM tier), and with a fixed-bandwidth
 *    transfer it is the reference the tests check the jump against.
 *  - jumpFoldTimeline() gives the same result for a fixed-bandwidth
 *    transfer by jumping over each run's steady state in O(1); see
 *    DESIGN.md §18 for why the jump is exact.
 */

#ifndef AUTOPILOT_SYSTOLIC_FOLD_STREAM_H
#define AUTOPILOT_SYSTOLIC_FOLD_STREAM_H

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "nn/layer.h"
#include "systolic/config.h"
#include "systolic/engine.h"
#include "systolic/memory.h"
#include "systolic/tiling.h"

namespace autopilot::systolic
{

/**
 * Per-layer DRAM byte accounting with the layer-level work hoisted: each
 * tensor's DRAM bytes are split evenly over the folds that carry them,
 * the first (total % count) of those folds taking one byte more, so the
 * shares of all folds sum exactly to computeTraffic()'s totals.
 */
class FoldShares
{
  public:
    FoldShares(const nn::Layer &layer, const AcceleratorConfig &config);

    const FoldGeometry &geometry() const { return geom; }
    const LayerTraffic &traffic() const { return layerTraffic; }

    /** DRAM bytes fold (i, j) fetches before its compute can start. */
    std::int64_t fetchBytes(std::int64_t i, std::int64_t j) const
    {
        return bytes(ifmap, i, j) + bytes(filter, i, j);
    }

    /** DRAM bytes fold (i, j) writes back after its compute. */
    std::int64_t writebackBytes(std::int64_t i, std::int64_t j) const
    {
        return bytes(ofmap, i, j);
    }

  private:
    /** The folds that carry a share of one tensor's DRAM bytes. */
    enum class Carriers
    {
        EveryFold,   ///< Split over all folds by row-major index.
        FirstColumn, ///< Folds (i, 0), split by row fold i.
        FirstRow,    ///< Folds (0, j), split by column fold j.
        LastRow,     ///< Folds (rowFolds - 1, j), split by column fold j.
    };

    /** One tensor's bytes: carrier k gets base + (k < extra). */
    struct TensorShare
    {
        Carriers carriers = Carriers::EveryFold;
        std::int64_t base = 0;
        std::int64_t extra = 0;
    };

    TensorShare split(Carriers carriers, std::int64_t total) const;
    std::int64_t bytes(const TensorShare &share, std::int64_t i,
                       std::int64_t j) const;

    FoldGeometry geom;
    LayerTraffic layerTraffic;
    TensorShare ifmap;
    TensorShare filter;
    TensorShare ofmap;

    friend class FoldStream;
};

/** Consecutive folds whose timeline inputs are identical. */
struct FoldRun
{
    std::int64_t count = 0;          ///< Folds in the run (> 0).
    std::int64_t fetchBytes = 0;     ///< Per-fold DRAM fetch.
    std::int64_t writebackBytes = 0; ///< Per-fold DRAM writeback.
    std::int64_t cycles = 0;         ///< Per-fold compute cycles.

    bool operator==(const FoldRun &other) const = default;
};

/** A layer's fold sequence in row-major order, as maximal runs. */
class FoldStream
{
  public:
    FoldStream(const nn::Layer &layer, const AcceleratorConfig &config);

    const FoldShares &shares() const { return foldShares; }
    std::span<const FoldRun> runs() const { return foldRuns; }

  private:
    void append(std::int64_t count, std::int64_t i, std::int64_t j);

    FoldShares foldShares;
    std::vector<FoldRun> foldRuns;
};

/** End state of one layer's fold timeline. */
struct FoldTimeline
{
    std::int64_t computeDone = 0;       ///< Last fold's compute completion.
    std::int64_t lastWritebackDone = 0; ///< Last writeback's completion.
    std::int64_t computeBusy = 0;       ///< Sum of fold cycles.
    /// Folds advanced one recurrence step at a time; the others were
    /// jumped over (always every fold for runFoldTimeline()).
    std::int64_t steppedFolds = 0;

    std::int64_t totalCycles() const
    {
        return std::max(computeDone, lastWritebackDone);
    }
};

/**
 * Step the double-buffered prefetch timeline (cycle_engine.h) over
 * @p stream, one fold at a time.
 *
 * @param transfer `transfer(start, bytes, is_write)` returns when a DRAM
 *                 transfer of @p bytes issued at @p start completes. It
 *                 is called for every fold's fetch, and for its
 *                 writeback when that is non-empty, in timeline order.
 */
template <typename Transfer>
FoldTimeline
runFoldTimeline(std::span<const FoldRun> stream, Transfer &&transfer)
{
    FoldTimeline timeline;
    // The DRAM channel serializes fetches and writebacks; writebacks
    // queue behind the fetch stream as they are produced.
    std::int64_t dram_free = 0;
    std::int64_t compute_done_prev = 0; // Fold f-2 completion.
    std::int64_t fold = 0;
    for (const FoldRun &run : stream) {
        for (std::int64_t n = 0; n < run.count; ++n, ++fold) {
            // Prefetch for fold f may start once the channel is free and
            // the target buffer half is released (fold f-2 retired).
            const std::int64_t fetch_done =
                transfer(std::max(dram_free, compute_done_prev),
                         run.fetchBytes, false);
            dram_free = fetch_done;

            const std::int64_t compute_start =
                std::max(timeline.computeDone, fetch_done);
            compute_done_prev = timeline.computeDone;
            timeline.computeDone = compute_start + run.cycles;

            if (run.writebackBytes > 0) {
                timeline.lastWritebackDone =
                    transfer(std::max(dram_free, timeline.computeDone),
                             run.writebackBytes, true);
                dram_free = timeline.lastWritebackDone;
            }
        }
        timeline.computeBusy += run.count * run.cycles;
    }
    timeline.steppedFolds = fold;
    return timeline;
}

/**
 * Fixed-bandwidth DRAM transfer: its duration depends only on the byte
 * count, never on when it is issued (the cycle and contention tiers).
 */
class BandwidthTransfer
{
  public:
    /**
     * @param bytes_per_cycle  Peak DRAM bytes per cycle (> 0).
     * @param bandwidth_derate Effective-bandwidth fraction in (0, 1]; at
     *                         1 the duration is the exact integer
     *                         ceiling.
     */
    explicit BandwidthTransfer(std::int64_t bytes_per_cycle,
                               double bandwidth_derate = 1.0)
        : bytesPerCycle(bytes_per_cycle), derate(bandwidth_derate)
    {
    }

    /** Cycles to move @p bytes: ceil(bytes / (bytes per cycle * derate)). */
    std::int64_t cycles(std::int64_t bytes) const
    {
        if (derate >= 1.0)
            return (bytes + bytesPerCycle - 1) / bytesPerCycle;
        return static_cast<std::int64_t>(
            std::ceil(static_cast<double>(bytes) /
                      (static_cast<double>(bytesPerCycle) * derate)));
    }

    std::int64_t operator()(std::int64_t start, std::int64_t bytes,
                            bool /*is_write*/) const
    {
        return start + cycles(bytes);
    }

  private:
    std::int64_t bytesPerCycle;
    double derate;
};

/**
 * runFoldTimeline(stream, transfer) without stepping through each run's
 * steady state: once one step moves all three timeline clocks by the
 * same delta, every remaining step of the run does too, so the rest of
 * the run advances in one multiply. Bit-identical to stepping.
 */
FoldTimeline jumpFoldTimeline(std::span<const FoldRun> stream,
                              const BandwidthTransfer &transfer);

/** The LayerResult of @p layer run along @p timeline. */
LayerResult timelineResult(const nn::Layer &layer, const FoldShares &shares,
                           const FoldTimeline &timeline);

} // namespace autopilot::systolic

#endif // AUTOPILOT_SYSTOLIC_FOLD_STREAM_H
