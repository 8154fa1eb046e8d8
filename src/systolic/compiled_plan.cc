#include "systolic/compiled_plan.h"

#include <algorithm>

#include "util/logging.h"

namespace autopilot::systolic
{

namespace
{

std::int64_t
ceilDiv(std::int64_t a, std::int64_t b)
{
    return (a + b - 1) / b;
}

/**
 * Fold 0's portion of total split evenly over share_count carriers
 * (FoldShares, fold_stream.h):
 * base + 1 extra byte whenever the division has a remainder, i.e.
 * ceil(total / share_count).
 */
std::int64_t
firstShare(std::int64_t total, std::int64_t share_count)
{
    return total / share_count + (total % share_count > 0 ? 1 : 0);
}

} // namespace

CompiledModelPlan
CompiledModelPlan::compile(const nn::Model &model)
{
    util::fatalIf(model.empty(),
                  "CompiledModelPlan::compile: empty model");

    CompiledModelPlan plan;
    plan.name_ = model.name();
    const std::size_t count = model.layers().size();
    plan.gemmM.reserve(count);
    plan.gemmN.reserve(count);
    plan.gemmK.reserve(count);
    plan.mk.reserve(count);
    plan.kn.reserve(count);
    plan.mn.reserve(count);
    plan.ifmapElems.reserve(count);
    plan.filterElems.reserve(count);
    plan.ofmapElems.reserve(count);

    for (const nn::Layer &layer : model.layers()) {
        const nn::GemmShape gemm = layer.gemm();
        util::panicIf(gemm.m <= 0 || gemm.n <= 0 || gemm.k <= 0,
                      "CompiledModelPlan::compile: degenerate GEMM "
                      "shape in layer " + layer.name);
        plan.gemmM.push_back(gemm.m);
        plan.gemmN.push_back(gemm.n);
        plan.gemmK.push_back(gemm.k);
        plan.mk.push_back(gemm.m * gemm.k);
        plan.kn.push_back(gemm.k * gemm.n);
        plan.mn.push_back(gemm.m * gemm.n);
        plan.ifmapElems.push_back(layer.ifmapElems());
        plan.filterElems.push_back(layer.filterElems());
        plan.ofmapElems.push_back(layer.ofmapElems());
        plan.totalMacs_ += gemm.macs();
    }
    return plan;
}

BatchRunView
allocateBatchRunView(std::size_t count, util::Arena &arena)
{
    BatchRunView view;
    view.totalCycles = arena.allocate<std::int64_t>(count);
    view.computeCycles = arena.allocate<std::int64_t>(count);
    view.stallCycles = arena.allocate<std::int64_t>(count);
    view.totalMacs = arena.allocate<std::int64_t>(count);
    view.traffic = arena.allocate<LayerTraffic>(count);
    return view;
}

void
evaluatePlanBatch(const CompiledModelPlan &plan,
                  std::span<const AcceleratorConfig> configs,
                  const BatchRunView &out)
{
    util::panicIf(out.totalCycles.size() != configs.size() ||
                      out.computeCycles.size() != configs.size() ||
                      out.stallCycles.size() != configs.size() ||
                      out.totalMacs.size() != configs.size() ||
                      out.traffic.size() != configs.size(),
                  "evaluatePlanBatch: view/config size mismatch");

    const std::size_t layers = plan.layerCount();

    for (std::size_t c = 0; c < configs.size(); ++c) {
        const AcceleratorConfig &cfg = configs[c];
        cfg.validate();

        const std::int64_t sr = cfg.peRows;
        const std::int64_t sc = cfg.peCols;
        const std::int64_t bpe = cfg.bytesPerElement;
        const std::int64_t dram_bpc = cfg.dramBytesPerCycle;
        // Half capacities: the scratchpads are double-buffered.
        const std::int64_t half_ifmap =
            static_cast<std::int64_t>(cfg.ifmapSramKb) * 1024 / 2;
        const std::int64_t half_filter =
            static_cast<std::int64_t>(cfg.filterSramKb) * 1024 / 2;
        const std::int64_t half_ofmap =
            static_cast<std::int64_t>(cfg.ofmapSramKb) * 1024 / 2;
        const std::int64_t chunk_rows =
            std::max<std::int64_t>(1, half_ofmap / (sc * psumBytes));
        const Dataflow dataflow = cfg.dataflow;

        std::int64_t acc_total = 0;
        std::int64_t acc_compute = 0;
        std::int64_t acc_macs = 0;
        LayerTraffic acc_traffic;

        for (std::size_t l = 0; l < layers; ++l) {
            const std::int64_t m = plan.gemmM[l];
            const std::int64_t n = plan.gemmN[l];
            const std::int64_t k = plan.gemmK[l];

            // Dimension assignment per dataflow (tiling.cc convention).
            std::int64_t row_dim = 0, col_dim = 0, stream_dim = 0;
            switch (dataflow) {
              case Dataflow::WeightStationary:
                row_dim = k; col_dim = n; stream_dim = m;
                break;
              case Dataflow::OutputStationary:
                row_dim = m; col_dim = n; stream_dim = k;
                break;
              case Dataflow::InputStationary:
                row_dim = k; col_dim = m; stream_dim = n;
                break;
            }

            const std::int64_t row_folds = ceilDiv(row_dim, sr);
            const std::int64_t col_folds = ceilDiv(col_dim, sc);
            const std::int64_t fold_count = row_folds * col_folds;

            // Closed form of sum_{i,j} foldCycles(r_i, c_j, s): the
            // partial row/column uses sum back to the full dims.
            const std::int64_t compute_cycles =
                2 * col_folds * row_dim + row_folds * col_dim +
                fold_count * (stream_dim - 2);

            // --- Residency (memory.cc analyzeResidency) ---
            const std::int64_t ifmap_bytes = plan.ifmapElems[l] * bpe;
            const std::int64_t filter_bytes = plan.filterElems[l] * bpe;
            const std::int64_t ofmap_bytes = plan.ofmapElems[l] * bpe;
            const bool ifmap_res = ifmap_bytes <= half_ifmap;
            const bool filter_res = filter_bytes <= half_filter;
            const bool psum_on_chip =
                plan.mn[l] * psumBytes <= half_ofmap;
            const std::int64_t chunk_stream_dim =
                dataflow == Dataflow::InputStationary ? n : m;
            const std::int64_t stream_chunks =
                psum_on_chip ? 1 : ceilDiv(chunk_stream_dim, chunk_rows);

            const bool crosses_folds =
                dataflow != Dataflow::OutputStationary && row_folds > 1;
            const std::int64_t chunks =
                crosses_folds ? stream_chunks : 1;

            // --- DRAM traffic (memory.cc computeTraffic) ---
            std::int64_t ifmap_dram = 0, filter_dram = 0;
            std::int64_t ifmap_sram = 0, filter_sram = 0;
            switch (dataflow) {
              case Dataflow::WeightStationary:
                ifmap_dram = ifmap_res ? ifmap_bytes
                                       : ifmap_bytes * col_folds;
                filter_dram = filter_res ? filter_bytes
                                         : filter_bytes * chunks;
                ifmap_sram = plan.mk[l] * col_folds;
                filter_sram = plan.kn[l] * chunks;
                break;
              case Dataflow::OutputStationary:
                ifmap_dram = ifmap_res ? ifmap_bytes
                                       : ifmap_bytes * col_folds;
                filter_dram = filter_res ? filter_bytes
                                         : filter_bytes * row_folds;
                ifmap_sram = plan.mk[l] * col_folds;
                filter_sram = plan.kn[l] * row_folds;
                break;
              case Dataflow::InputStationary:
                ifmap_dram = ifmap_res ? ifmap_bytes
                                       : plan.mk[l] * bpe * chunks;
                filter_dram = filter_res ? filter_bytes
                                         : filter_bytes * col_folds;
                ifmap_sram = plan.mk[l] * chunks;
                filter_sram = plan.kn[l] * col_folds;
                break;
            }
            const std::int64_t psum_sram =
                crosses_folds ? plan.mn[l] * (row_folds - 1) : 0;

            // --- First-tile latency: fold 0's evenShare portions ---
            std::int64_t fetch0 = 0;
            if (dataflow == Dataflow::InputStationary || !ifmap_res)
                fetch0 += firstShare(ifmap_dram, fold_count);
            else
                fetch0 += firstShare(ifmap_dram, row_folds);
            if (dataflow == Dataflow::OutputStationary && filter_res)
                fetch0 += firstShare(filter_dram, col_folds);
            else if (dataflow == Dataflow::InputStationary && filter_res)
                fetch0 += firstShare(filter_dram, row_folds);
            else
                fetch0 += firstShare(filter_dram, fold_count);

            // --- Layer timing (engine.cc runLayer) ---
            const std::int64_t dram_bytes =
                ifmap_dram + filter_dram + ofmap_bytes;
            const std::int64_t dram_cycles =
                (dram_bytes + dram_bpc - 1) / dram_bpc;
            const std::int64_t first_tile =
                (fetch0 + dram_bpc - 1) / dram_bpc;
            const std::int64_t total_cycles =
                std::max(compute_cycles, dram_cycles) + first_tile;

            acc_total += total_cycles;
            acc_compute += compute_cycles;
            acc_macs += m * n * k;
            acc_traffic.ifmapDramBytes += ifmap_dram;
            acc_traffic.filterDramBytes += filter_dram;
            acc_traffic.ofmapDramBytes += ofmap_bytes;
            acc_traffic.ifmapSramReads += ifmap_sram;
            acc_traffic.filterSramReads += filter_sram;
            acc_traffic.ofmapSramWrites += plan.mn[l];
            acc_traffic.psumSramReads += psum_sram;
            acc_traffic.psumSramWrites += psum_sram;
        }

        out.totalCycles[c] = acc_total;
        out.computeCycles[c] = acc_compute;
        out.stallCycles[c] = acc_total - acc_compute;
        out.totalMacs[c] = acc_macs;
        out.traffic[c] = acc_traffic;
    }
}

BatchRunView
evaluatePlanBatch(const CompiledModelPlan &plan,
                  std::span<const AcceleratorConfig> configs,
                  util::Arena &arena)
{
    BatchRunView view = allocateBatchRunView(configs.size(), arena);
    evaluatePlanBatch(plan, configs, view);
    return view;
}

} // namespace autopilot::systolic
