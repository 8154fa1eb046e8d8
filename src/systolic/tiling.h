/**
 * @file
 * Fold (tile) scheduling of a GEMM onto the PE array.
 *
 * A layer lowered to an (M x K) * (K x N) GEMM is executed as a sequence of
 * folds. Which GEMM dimensions map to the array's rows and columns depends
 * on the dataflow (SCALE-Sim convention):
 *
 *   WS: rows <- K (window depth), cols <- N (filters); M streams.
 *   OS: rows <- M (output pixels), cols <- N (filters); K streams.
 *   IS: rows <- K (window depth), cols <- M (output pixels); N streams.
 *
 * Each fold has a fill/compute/drain cycle count derived from the classic
 * systolic pipeline timing. FoldGeometry gives every fold's shape and
 * cycles in closed form from its (row, column) position, so no engine
 * materializes a per-fold vector; the tests' per-fold oracle is a thin
 * adapter over it (tests/reference/systolic.h).
 */

#ifndef AUTOPILOT_SYSTOLIC_TILING_H
#define AUTOPILOT_SYSTOLIC_TILING_H

#include <algorithm>
#include <cstdint>

#include "nn/layer.h"
#include "systolic/config.h"

namespace autopilot::systolic
{

/**
 * Closed-form fold geometry of a layer: each fold's shape and cycles as
 * O(1) functions of its (row, column) position, folds in row-major
 * order. Only the last row fold and the last column fold can be
 * partial.
 */
struct FoldGeometry
{
    std::int64_t rowDim = 0;    ///< GEMM dimension mapped to array rows.
    std::int64_t colDim = 0;    ///< GEMM dimension mapped to array columns.
    std::int64_t streamDim = 0; ///< GEMM dimension streamed through.
    std::int64_t peRows = 0;
    std::int64_t peCols = 0;
    std::int64_t rowFolds = 0;
    std::int64_t colFolds = 0;

    std::int64_t foldCount() const { return rowFolds * colFolds; }

    /** PE rows occupied by row fold @p i. */
    std::int64_t rowsUsed(std::int64_t i) const
    {
        return std::min(peRows, rowDim - i * peRows);
    }

    /** PE columns occupied by column fold @p j. */
    std::int64_t colsUsed(std::int64_t j) const
    {
        return std::min(peCols, colDim - j * peCols);
    }

    /** Cycles of fold (i, j). */
    std::int64_t cycles(std::int64_t i, std::int64_t j) const;

    /**
     * Sum of all folds' cycles in closed form: the partial row/column
     * uses sum back to the full dimensions.
     */
    std::int64_t computeCycles() const
    {
        return 2 * colFolds * rowDim + rowFolds * colDim +
               foldCount() * (streamDim - 2);
    }
};

/** Fold geometry of a GEMM on a given accelerator (config validated). */
FoldGeometry foldGeometry(const nn::GemmShape &gemm,
                          const AcceleratorConfig &config);

/**
 * Cycles for a single fold given the array shape and streamed length.
 *
 * Timing follows the standard systolic pipeline: rows_used cycles to fill
 * (or pre-load the stationary operand), stream_len cycles of streaming,
 * rows_used + cols_used - 2 cycles to drain the last results.
 */
std::int64_t foldCycles(std::int64_t rows_used, std::int64_t cols_used,
                        std::int64_t stream_len);

} // namespace autopilot::systolic

#endif // AUTOPILOT_SYSTOLIC_TILING_H
