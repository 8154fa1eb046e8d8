/**
 * @file
 * Compiled model plans and the SoA analytical batch kernel.
 *
 * The scalar analytical path (AnalyticalEngine::run) re-derives, for
 * every (design, model) pair, facts that depend only on the model: the
 * per-layer GEMM lowering, tensor element counts and MAC totals.
 * CompiledModelPlan precomputes the model-only invariants once into
 * contiguous structure-of-arrays vectors; evaluatePlanBatch() then costs
 * N accelerator configurations against one plan with tight inner loops
 * over those arrays and no per-design heap allocation (scratch comes
 * from a util::Arena).
 *
 * Bit-exactness contract: for every configuration the kernel's
 * aggregates (cycles, MACs, LayerTraffic) are byte-identical to what
 * AnalyticalEngine::run computes on the same model - all arithmetic is
 * int64 and mirrors tiling.cc / memory.cc term for term:
 *
 *  - computeCycles: sum over folds of foldCycles(r_i, c_j, s)
 *      = sum_{i,j} (2 r_i + c_j + s - 2)
 *      = 2 * colFolds * rowDim + rowFolds * colDim
 *        + rowFolds * colFolds * (streamDim - 2),
 *    because the partial row/column uses sum back to the full dims.
 *  - traffic: computeTraffic()'s residency/chunk/reuse expressions.
 *  - first-tile latency: fold 0's evenShare() portions, where
 *    evenShare(total, count, 0) == ceil(total / count).
 *
 * The scalar engine remains the reference implementation; the
 * randomized property test (test_batch_kernel.cc) pins the equivalence
 * across dataflows and the whole hardware space.
 */

#ifndef AUTOPILOT_SYSTOLIC_COMPILED_PLAN_H
#define AUTOPILOT_SYSTOLIC_COMPILED_PLAN_H

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "nn/model.h"
#include "systolic/config.h"
#include "systolic/memory.h"
#include "util/arena.h"

namespace autopilot::systolic
{

/**
 * Model-only per-layer invariants in structure-of-arrays form.
 *
 * Compile once per model (the 27 bundled policies make this a tiny,
 * cacheable set), evaluate many configurations against it.
 */
class CompiledModelPlan
{
  public:
    /** Precompute the plan for @p model (fatal on an empty model). */
    static CompiledModelPlan compile(const nn::Model &model);

    const std::string &modelName() const { return name_; }
    std::size_t layerCount() const { return gemmM.size(); }

    /** Total useful MACs of one inference (config-independent). */
    std::int64_t totalMacs() const { return totalMacs_; }

    // Per-layer SoA arrays (all layerCount() long).
    std::vector<std::int64_t> gemmM; ///< GEMM output rows.
    std::vector<std::int64_t> gemmN; ///< GEMM output columns.
    std::vector<std::int64_t> gemmK; ///< GEMM reduction depth.
    std::vector<std::int64_t> mk;    ///< m * k (ifmap GEMM elements).
    std::vector<std::int64_t> kn;    ///< k * n (filter GEMM elements).
    std::vector<std::int64_t> mn;    ///< m * n (ofmap GEMM elements).
    std::vector<std::int64_t> ifmapElems;  ///< Raw ifmap tensor elements.
    std::vector<std::int64_t> filterElems; ///< Raw filter tensor elements.
    std::vector<std::int64_t> ofmapElems;  ///< Raw ofmap tensor elements.

  private:
    std::string name_;
    std::int64_t totalMacs_ = 0;
};

/**
 * SoA view of N whole-model run aggregates, one slot per configuration.
 * The spans point into arena scratch owned by the caller's batch scope.
 */
struct BatchRunView
{
    std::span<std::int64_t> totalCycles;
    std::span<std::int64_t> computeCycles;
    std::span<std::int64_t> stallCycles;
    std::span<std::int64_t> totalMacs;
    std::span<LayerTraffic> traffic; ///< Whole-model accumulated traffic.

    std::size_t size() const { return totalCycles.size(); }
};

/** Allocate a zeroed BatchRunView for @p count designs from @p arena. */
BatchRunView allocateBatchRunView(std::size_t count, util::Arena &arena);

/**
 * Cost every configuration in @p configs against @p plan, filling the
 * matching slot of @p out. Aggregates are byte-identical to
 * AnalyticalEngine(config).run(model) on the plan's source model (see
 * the file comment). Each configuration is validated exactly as the
 * scalar engine's constructor does. Pure; safe to call concurrently on
 * disjoint views.
 */
void evaluatePlanBatch(const CompiledModelPlan &plan,
                       std::span<const AcceleratorConfig> configs,
                       const BatchRunView &out);

/** Convenience overload: allocate the view from @p arena, then fill it. */
BatchRunView evaluatePlanBatch(const CompiledModelPlan &plan,
                               std::span<const AcceleratorConfig> configs,
                               util::Arena &arena);

} // namespace autopilot::systolic

#endif // AUTOPILOT_SYSTOLIC_COMPILED_PLAN_H
