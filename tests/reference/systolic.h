/**
 * @file
 * Reference systolic paths, kept as the oracles the library's closed-form
 * fold accounting and the cycle engine's jump path are checked against.
 * Test-only.
 *
 *  - scheduleGemm() materializes the per-fold schedule (one Fold per
 *    fold, row-major) that FoldGeometry gives in closed form;
 *    computeTraffic(), foldFetchBytes() and foldWritebackBytes() read
 *    the library's traffic and FoldShares through that schedule. They
 *    are thin adapters over foldGeometry(), foldCycles(),
 *    computeTraffic(FoldGeometry) and FoldShares, so the tests that use
 *    them still exercise the production code.
 *  - runLayerStepping() is CycleEngine::runLayer() with every fold
 *    stepped through runFoldTimeline() instead of jumped over.
 */

#ifndef AUTOPILOT_TESTS_REFERENCE_SYSTOLIC_H
#define AUTOPILOT_TESTS_REFERENCE_SYSTOLIC_H

#include <cstdint>
#include <vector>

#include "nn/layer.h"
#include "systolic/config.h"
#include "systolic/cycle_engine.h"
#include "systolic/memory.h"
#include "systolic/tiling.h"

namespace autopilot::systolic
{

/** One fold: the work mapped onto the array at one time. */
struct Fold
{
    std::int64_t rowsUsed = 0;   ///< PE rows occupied (<= peRows).
    std::int64_t colsUsed = 0;   ///< PE columns occupied (<= peCols).
    std::int64_t streamLen = 0;  ///< Elements streamed through the array.
    std::int64_t cycles = 0;     ///< Fill + stream + drain cycles.
    std::int64_t ifmapBytes = 0; ///< Ifmap tile fetched for this fold.
    std::int64_t filterBytes = 0;///< Filter tile fetched for this fold.
    std::int64_t ofmapBytes = 0; ///< Ofmap tile written back by this fold.
    std::int64_t macs = 0;       ///< Useful MACs performed in this fold.
};

/** Complete fold schedule of one layer. */
struct FoldSchedule
{
    std::int64_t rowFolds = 0; ///< Folds along the row-mapped dimension.
    std::int64_t colFolds = 0; ///< Folds along the column-mapped dimension.
    std::vector<Fold> folds;   ///< Row-major fold order.

    /** Total folds = rowFolds * colFolds. */
    std::int64_t foldCount() const { return rowFolds * colFolds; }

    /** Sum of per-fold compute cycles. */
    std::int64_t computeCycles() const;

    /** Sum of per-fold useful MACs. */
    std::int64_t totalMacs() const;
};

/**
 * Build the fold schedule for a layer on a given accelerator.
 *
 * @param gemm   GEMM view of the layer.
 * @param config Accelerator configuration (array shape and dataflow).
 */
FoldSchedule scheduleGemm(const nn::GemmShape &gemm,
                          const AcceleratorConfig &config);

/**
 * computeTraffic() for @p schedule, which must be
 * scheduleGemm(layer.gemm(), config).
 */
LayerTraffic computeTraffic(const nn::Layer &layer,
                            const FoldSchedule &schedule,
                            const AcceleratorConfig &config);

/**
 * DRAM bytes that fold @p fold_index must fetch before compute can start,
 * consistent with computeTraffic()'s totals: tensors that are resident are
 * only fetched during the first pass that touches them. A wrapper over
 * FoldShares (fold_stream.h), which the engines use directly.
 *
 * @param layer      The layer being executed.
 * @param schedule   Fold schedule from scheduleGemm(layer.gemm(), config).
 * @param config     Accelerator configuration.
 * @param fold_index Index into schedule.folds (row-major).
 */
std::int64_t foldFetchBytes(const nn::Layer &layer,
                            const FoldSchedule &schedule,
                            const AcceleratorConfig &config,
                            std::int64_t fold_index);

/**
 * DRAM bytes written back by fold @p fold_index (its final ofmap tiles),
 * consistent with computeTraffic()'s totals. A wrapper over FoldShares.
 */
std::int64_t foldWritebackBytes(const nn::Layer &layer,
                                const FoldSchedule &schedule,
                                const AcceleratorConfig &config,
                                std::int64_t fold_index);

/**
 * @p engine's runLayer() stepped one fold at a time over the same
 * FoldStream: the reference runLayer() must match field for field.
 */
LayerResult runLayerStepping(const CycleEngine &engine,
                             const nn::Layer &layer);

} // namespace autopilot::systolic

#endif // AUTOPILOT_TESTS_REFERENCE_SYSTOLIC_H
