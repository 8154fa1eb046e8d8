/**
 * @file
 * Scratchpad residency and DRAM traffic model.
 *
 * The three scratchpads (ifmap / filter / ofmap) are double-buffered: half
 * of each capacity holds the working set while the other half prefetches.
 * A tensor that fits in its half-capacity is fetched from DRAM exactly
 * once; otherwise it is re-fetched every time a fold pass needs it again,
 * with the refetch factor determined by the dataflow's reuse pattern.
 *
 * Partial sums that must cross row folds are 32-bit and always accumulate
 * on chip: when the full cross-fold working set does not fit the ofmap
 * scratchpad, the mapper chunks the streaming dimension so each chunk's
 * psums fit, re-streaming the stationary operand once per chunk (the
 * standard WS loop order). Psum traffic therefore never reaches DRAM;
 * the cost appears as extra stationary-operand fetches instead.
 *
 * This is the same fidelity level as SCALE-Sim's memory estimates: tensor
 * granularity residency with fold-derived reuse multipliers.
 */

#ifndef AUTOPILOT_SYSTOLIC_MEMORY_H
#define AUTOPILOT_SYSTOLIC_MEMORY_H

#include <cstdint>

#include "nn/layer.h"
#include "systolic/config.h"
#include "systolic/tiling.h"

namespace autopilot::systolic
{

/** Bytes used per partial-sum word (32-bit accumulators). */
constexpr std::int64_t psumBytes = 4;

/** Per-layer memory-system activity counts. */
struct LayerTraffic
{
    // DRAM traffic in bytes.
    std::int64_t ifmapDramBytes = 0;
    std::int64_t filterDramBytes = 0;
    std::int64_t ofmapDramBytes = 0;
    std::int64_t psumDramBytes = 0;

    // Scratchpad accesses in elements.
    std::int64_t ifmapSramReads = 0;
    std::int64_t filterSramReads = 0;
    std::int64_t ofmapSramWrites = 0;
    std::int64_t psumSramReads = 0;
    std::int64_t psumSramWrites = 0;

    /** Total DRAM bytes moved for the layer. */
    std::int64_t totalDramBytes() const
    {
        return ifmapDramBytes + filterDramBytes + ofmapDramBytes +
               psumDramBytes;
    }

    /** Total scratchpad accesses (reads + writes), in elements. */
    std::int64_t totalSramAccesses() const
    {
        return ifmapSramReads + filterSramReads + ofmapSramWrites +
               psumSramReads + psumSramWrites;
    }

    /** Accumulate another layer's counts into this one. */
    void accumulate(const LayerTraffic &other);
};

/** Residency of the three tensors in their scratchpads. */
struct Residency
{
    bool ifmapResident = false;  ///< Whole ifmap fits half its scratchpad.
    bool filterResident = false; ///< Whole filter set fits half capacity.
    /// True when all cross-fold partial sums fit at once (no stream
    /// chunking needed).
    bool psumOnChip = false;
    /// Number of stream-dimension chunks needed to keep psums on chip
    /// (1 when psumOnChip or when there is a single row fold).
    std::int64_t streamChunks = 1;
};

/** Determine tensor residency for a layer on a given configuration. */
Residency analyzeResidency(const nn::Layer &layer,
                           const AcceleratorConfig &config);

/**
 * Compute DRAM traffic and scratchpad access counts for one layer.
 *
 * @param layer    The layer (provides raw tensor footprints).
 * @param geometry Fold geometry from foldGeometry(layer.gemm(), config).
 * @param config   Accelerator configuration.
 *
 * How these totals split over the folds is FoldShares' job
 * (fold_stream.h).
 */
LayerTraffic computeTraffic(const nn::Layer &layer,
                            const FoldGeometry &geometry,
                            const AcceleratorConfig &config);

} // namespace autopilot::systolic

#endif // AUTOPILOT_SYSTOLIC_MEMORY_H
