#include "systolic/tiling.h"

#include "util/logging.h"

namespace autopilot::systolic
{

using util::panicIf;

namespace
{

std::int64_t
ceilDiv(std::int64_t a, std::int64_t b)
{
    return (a + b - 1) / b;
}

/** GEMM dimensions assigned to array rows/columns/stream per dataflow. */
struct DimAssignment
{
    std::int64_t rowDim = 0;
    std::int64_t colDim = 0;
    std::int64_t streamDim = 0;
};

DimAssignment
assignDims(const nn::GemmShape &gemm, Dataflow dataflow)
{
    switch (dataflow) {
      case Dataflow::WeightStationary:
        return {gemm.k, gemm.n, gemm.m};
      case Dataflow::OutputStationary:
        return {gemm.m, gemm.n, gemm.k};
      case Dataflow::InputStationary:
        return {gemm.k, gemm.m, gemm.n};
    }
    util::panic("assignDims: unknown dataflow");
}

} // namespace

std::int64_t
foldCycles(std::int64_t rows_used, std::int64_t cols_used,
           std::int64_t stream_len)
{
    panicIf(rows_used <= 0 || cols_used <= 0 || stream_len <= 0,
            "foldCycles: non-positive fold dimension");
    // Preload/fill the stationary operand (rows_used), stream the moving
    // operand (stream_len), then drain the pipeline diagonal.
    return 2 * rows_used + cols_used + stream_len - 2;
}

std::int64_t
FoldGeometry::cycles(std::int64_t i, std::int64_t j) const
{
    return foldCycles(rowsUsed(i), colsUsed(j), streamDim);
}

FoldGeometry
foldGeometry(const nn::GemmShape &gemm, const AcceleratorConfig &config)
{
    panicIf(gemm.m <= 0 || gemm.n <= 0 || gemm.k <= 0,
            "foldGeometry: degenerate GEMM shape");
    config.validate();

    const DimAssignment dims = assignDims(gemm, config.dataflow);
    FoldGeometry geometry;
    geometry.rowDim = dims.rowDim;
    geometry.colDim = dims.colDim;
    geometry.streamDim = dims.streamDim;
    geometry.peRows = config.peRows;
    geometry.peCols = config.peCols;
    geometry.rowFolds = ceilDiv(dims.rowDim, config.peRows);
    geometry.colFolds = ceilDiv(dims.colDim, config.peCols);
    return geometry;
}

} // namespace autopilot::systolic
