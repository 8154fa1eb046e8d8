#include "systolic/memory.h"

#include <algorithm>

namespace autopilot::systolic
{

namespace
{

std::int64_t
halfCapacityBytes(int sram_kb)
{
    // Double buffering: half the scratchpad holds the working set.
    return static_cast<std::int64_t>(sram_kb) * 1024 / 2;
}

} // namespace

void
LayerTraffic::accumulate(const LayerTraffic &other)
{
    ifmapDramBytes += other.ifmapDramBytes;
    filterDramBytes += other.filterDramBytes;
    ofmapDramBytes += other.ofmapDramBytes;
    psumDramBytes += other.psumDramBytes;
    ifmapSramReads += other.ifmapSramReads;
    filterSramReads += other.filterSramReads;
    ofmapSramWrites += other.ofmapSramWrites;
    psumSramReads += other.psumSramReads;
    psumSramWrites += other.psumSramWrites;
}

Residency
analyzeResidency(const nn::Layer &layer, const AcceleratorConfig &config)
{
    const std::int64_t bpe = config.bytesPerElement;
    const nn::GemmShape gemm = layer.gemm();

    Residency residency;
    residency.ifmapResident =
        layer.ifmapElems() * bpe <= halfCapacityBytes(config.ifmapSramKb);
    residency.filterResident =
        layer.filterElems() * bpe <= halfCapacityBytes(config.filterSramKb);
    // Partial sums live in the ofmap scratchpad between row-fold passes.
    residency.psumOnChip =
        gemm.m * gemm.n * psumBytes <= halfCapacityBytes(config.ofmapSramKb);

    // When they do not fit, the stream dimension is chunked so each
    // chunk's psums (chunk x one column-fold's width) stay on chip.
    const std::int64_t stream_dim =
        config.dataflow == Dataflow::InputStationary ? gemm.n : gemm.m;
    const std::int64_t chunk_rows = std::max<std::int64_t>(
        1, halfCapacityBytes(config.ofmapSramKb) /
               (static_cast<std::int64_t>(config.peCols) * psumBytes));
    if (!residency.psumOnChip) {
        residency.streamChunks =
            (stream_dim + chunk_rows - 1) / chunk_rows;
    }
    return residency;
}

LayerTraffic
computeTraffic(const nn::Layer &layer, const FoldGeometry &geometry,
               const AcceleratorConfig &config)
{
    const std::int64_t row_folds = geometry.rowFolds;
    const std::int64_t col_folds = geometry.colFolds;
    const std::int64_t bpe = config.bytesPerElement;
    const nn::GemmShape gemm = layer.gemm();
    const Residency residency = analyzeResidency(layer, config);
    const std::int64_t ifmap_bytes = layer.ifmapElems() * bpe;
    const std::int64_t filter_bytes = layer.filterElems() * bpe;
    const std::int64_t ofmap_bytes = layer.ofmapElems() * bpe;

    LayerTraffic traffic;

    const bool crosses_folds =
        config.dataflow != Dataflow::OutputStationary &&
        row_folds > 1;
    const std::int64_t chunks =
        crosses_folds ? residency.streamChunks : 1;

    // --- DRAM traffic ---
    switch (config.dataflow) {
      case Dataflow::WeightStationary:
        traffic.ifmapDramBytes = residency.ifmapResident
            ? ifmap_bytes : ifmap_bytes * col_folds;
        // Weights are pinned once per stream chunk (once total when the
        // psums of the whole stream fit on chip), unless the filter set
        // is SRAM-resident.
        traffic.filterDramBytes = residency.filterResident
            ? filter_bytes : filter_bytes * chunks;
        break;
      case Dataflow::OutputStationary:
        traffic.ifmapDramBytes = residency.ifmapResident
            ? ifmap_bytes : ifmap_bytes * col_folds;
        traffic.filterDramBytes = residency.filterResident
            ? filter_bytes : filter_bytes * row_folds;
        break;
      case Dataflow::InputStationary:
        // The im2col footprint is pinned once per stream chunk.
        traffic.ifmapDramBytes = residency.ifmapResident
            ? ifmap_bytes : gemm.m * gemm.k * bpe * chunks;
        traffic.filterDramBytes = residency.filterResident
            ? filter_bytes : filter_bytes * col_folds;
        break;
    }
    traffic.ofmapDramBytes = ofmap_bytes;
    // Cross-fold partial sums always accumulate on chip (see file
    // comment); no psum DRAM traffic.
    traffic.psumDramBytes = 0;

    // --- Scratchpad accesses (elements) ---
    switch (config.dataflow) {
      case Dataflow::WeightStationary:
        traffic.ifmapSramReads = gemm.m * gemm.k * col_folds;
        traffic.filterSramReads = gemm.k * gemm.n * chunks;
        break;
      case Dataflow::OutputStationary:
        traffic.ifmapSramReads = gemm.m * gemm.k * col_folds;
        traffic.filterSramReads = gemm.k * gemm.n * row_folds;
        break;
      case Dataflow::InputStationary:
        traffic.ifmapSramReads = gemm.m * gemm.k * chunks;
        traffic.filterSramReads = gemm.k * gemm.n * col_folds;
        break;
    }
    traffic.ofmapSramWrites = gemm.m * gemm.n;
    if (crosses_folds) {
        traffic.psumSramReads = gemm.m * gemm.n * (row_folds - 1);
        traffic.psumSramWrites = traffic.psumSramReads;
    }

    return traffic;
}

} // namespace autopilot::systolic
