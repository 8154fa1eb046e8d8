#include "reference/systolic.h"

#include "systolic/fold_stream.h"
#include "util/logging.h"

namespace autopilot::systolic
{

using util::panicIf;

std::int64_t
FoldSchedule::computeCycles() const
{
    std::int64_t total = 0;
    for (const Fold &fold : folds)
        total += fold.cycles;
    return total;
}

std::int64_t
FoldSchedule::totalMacs() const
{
    std::int64_t total = 0;
    for (const Fold &fold : folds)
        total += fold.macs;
    return total;
}

FoldSchedule
scheduleGemm(const nn::GemmShape &gemm, const AcceleratorConfig &config)
{
    const FoldGeometry geometry = foldGeometry(gemm, config);
    const std::int64_t stream = geometry.streamDim;
    const std::int64_t bpe = config.bytesPerElement;

    FoldSchedule schedule;
    schedule.rowFolds = geometry.rowFolds;
    schedule.colFolds = geometry.colFolds;
    schedule.folds.reserve(static_cast<std::size_t>(geometry.foldCount()));

    for (std::int64_t i = 0; i < schedule.rowFolds; ++i) {
        const std::int64_t rows_used = geometry.rowsUsed(i);
        for (std::int64_t j = 0; j < schedule.colFolds; ++j) {
            const std::int64_t cols_used = geometry.colsUsed(j);

            Fold fold;
            fold.rowsUsed = rows_used;
            fold.colsUsed = cols_used;
            fold.streamLen = stream;
            fold.cycles = foldCycles(rows_used, cols_used, stream);
            fold.macs = rows_used * cols_used * stream;

            switch (config.dataflow) {
              case Dataflow::WeightStationary:
                fold.filterBytes = rows_used * cols_used * bpe;
                fold.ifmapBytes = rows_used * stream * bpe;
                fold.ofmapBytes = cols_used * stream * bpe;
                break;
              case Dataflow::OutputStationary:
                fold.ifmapBytes = rows_used * stream * bpe;
                fold.filterBytes = cols_used * stream * bpe;
                fold.ofmapBytes = rows_used * cols_used * bpe;
                break;
              case Dataflow::InputStationary:
                fold.ifmapBytes = rows_used * cols_used * bpe;
                fold.filterBytes = rows_used * stream * bpe;
                fold.ofmapBytes = cols_used * stream * bpe;
                break;
            }
            schedule.folds.push_back(fold);
        }
    }
    return schedule;
}

LayerTraffic
computeTraffic(const nn::Layer &layer, const FoldSchedule &schedule,
               const AcceleratorConfig &config)
{
    const FoldGeometry geometry = foldGeometry(layer.gemm(), config);
    panicIf(geometry.rowFolds != schedule.rowFolds ||
                geometry.colFolds != schedule.colFolds,
            "computeTraffic: schedule is not the layer's on this config");
    return computeTraffic(layer, geometry, config);
}

std::int64_t
foldFetchBytes(const nn::Layer &layer, const FoldSchedule &schedule,
               const AcceleratorConfig &config, std::int64_t fold_index)
{
    panicIf(fold_index < 0 || fold_index >= schedule.foldCount(),
            "foldFetchBytes: fold index out of range");
    return FoldShares(layer, config)
        .fetchBytes(fold_index / schedule.colFolds,
                    fold_index % schedule.colFolds);
}

std::int64_t
foldWritebackBytes(const nn::Layer &layer, const FoldSchedule &schedule,
                   const AcceleratorConfig &config, std::int64_t fold_index)
{
    panicIf(fold_index < 0 || fold_index >= schedule.foldCount(),
            "foldWritebackBytes: fold index out of range");
    return FoldShares(layer, config)
        .writebackBytes(fold_index / schedule.colFolds,
                        fold_index % schedule.colFolds);
}

LayerResult
runLayerStepping(const CycleEngine &engine, const nn::Layer &layer)
{
    const AcceleratorConfig &cfg = engine.config();
    const ContentionProfile &profile = engine.contention();
    const BandwidthTransfer transfer(
        cfg.dramBytesPerCycle,
        profile.enabled() ? profile.derate(cfg) : 1.0);
    const FoldStream stream(layer, cfg);
    return timelineResult(layer, stream.shares(),
                          runFoldTimeline(stream.runs(), transfer));
}

} // namespace autopilot::systolic
