#include "systolic/fold_stream.h"

#include "util/logging.h"

namespace autopilot::systolic
{

FoldShares::FoldShares(const nn::Layer &layer,
                       const AcceleratorConfig &config)
    : geom(foldGeometry(layer.gemm(), config)),
      layerTraffic(computeTraffic(layer, geom, config))
{
    // computeTraffic() keeps every cross-fold partial sum on chip; a psum
    // spill would need fold shares of its own.
    util::panicIf(layerTraffic.psumDramBytes != 0,
                  "FoldShares: psum DRAM traffic has no fold shares");
    const Residency residency = analyzeResidency(layer, config);
    const Dataflow dataflow = config.dataflow;

    // Ifmap: every fold fetches its share, except that a resident WS/OS
    // ifmap is fetched only by the first column pass of each row fold.
    ifmap = split(dataflow == Dataflow::InputStationary ||
                          !residency.ifmapResident
                      ? Carriers::EveryFold
                      : Carriers::FirstColumn,
                  layerTraffic.ifmapDramBytes);

    // Filter: WS fetches per fold by construction; a resident OS/IS
    // filter set is fetched only by the first pass that touches it.
    Carriers filter_carriers = Carriers::EveryFold;
    if (residency.filterResident &&
        dataflow == Dataflow::OutputStationary)
        filter_carriers = Carriers::FirstRow;
    else if (residency.filterResident &&
             dataflow == Dataflow::InputStationary)
        filter_carriers = Carriers::FirstColumn;
    filter = split(filter_carriers, layerTraffic.filterDramBytes);

    // Final ofmap tiles leave the chip on the last row-fold pass (WS/IS);
    // OS row folds partition M, so every OS fold writes its own tile.
    ofmap = split(dataflow == Dataflow::OutputStationary
                      ? Carriers::EveryFold
                      : Carriers::LastRow,
                  layerTraffic.ofmapDramBytes);
}

FoldShares::TensorShare
FoldShares::split(Carriers carriers, std::int64_t total) const
{
    std::int64_t count = geom.foldCount();
    if (carriers == Carriers::FirstColumn)
        count = geom.rowFolds;
    else if (carriers != Carriers::EveryFold)
        count = geom.colFolds;
    return {carriers, total / count, total % count};
}

std::int64_t
FoldShares::bytes(const TensorShare &share, std::int64_t i,
                  std::int64_t j) const
{
    std::int64_t index = 0;
    switch (share.carriers) {
      case Carriers::EveryFold:
        index = i * geom.colFolds + j;
        break;
      case Carriers::FirstColumn:
        if (j != 0)
            return 0;
        index = i;
        break;
      case Carriers::FirstRow:
        if (i != 0)
            return 0;
        index = j;
        break;
      case Carriers::LastRow:
        if (i != geom.rowFolds - 1)
            return 0;
        index = j;
        break;
    }
    return share.base + (index < share.extra ? 1 : 0);
}

FoldStream::FoldStream(const nn::Layer &layer,
                       const AcceleratorConfig &config)
    : foldShares(layer, config)
{
    const FoldGeometry &geometry = foldShares.geometry();
    const std::int64_t cols = geometry.colFolds;

    // Within one row fold, a fold's inputs can change only after the
    // first column (FirstColumn shares), at the last column (the partial
    // column fold), and where a FirstRow/LastRow share's remainder runs
    // out. EveryFold shares run out of remainder at one row-major
    // position each. Cuts that change nothing merge away in append().
    std::vector<std::int64_t> column_cuts = {1, cols - 1};
    std::vector<std::int64_t> fold_cuts;
    for (const FoldShares::TensorShare *share :
         {&foldShares.ifmap, &foldShares.filter, &foldShares.ofmap}) {
        if (share->carriers == FoldShares::Carriers::EveryFold)
            fold_cuts.push_back(share->extra);
        else if (share->carriers != FoldShares::Carriers::FirstColumn)
            column_cuts.push_back(share->extra);
    }
    std::erase_if(column_cuts,
                  [cols](std::int64_t cut) { return cut <= 0 || cut >= cols; });
    column_cuts.push_back(cols);
    std::sort(column_cuts.begin(), column_cuts.end());
    std::sort(fold_cuts.begin(), fold_cuts.end());

    std::vector<std::int64_t> row_cuts;
    auto next_fold_cut = fold_cuts.begin();
    for (std::int64_t i = 0; i < geometry.rowFolds; ++i) {
        const std::int64_t row_start = i * cols;
        const std::vector<std::int64_t> *cuts = &column_cuts;
        if (next_fold_cut != fold_cuts.end() &&
            *next_fold_cut < row_start + cols) {
            // An EveryFold remainder runs out inside this row.
            row_cuts = column_cuts;
            for (; next_fold_cut != fold_cuts.end() &&
                   *next_fold_cut < row_start + cols;
                 ++next_fold_cut)
                row_cuts.push_back(*next_fold_cut - row_start);
            std::sort(row_cuts.begin(), row_cuts.end());
            cuts = &row_cuts;
        }
        std::int64_t j = 0;
        for (const std::int64_t cut : *cuts) {
            if (cut > j) {
                append(cut - j, i, j);
                j = cut;
            }
        }
    }
}

void
FoldStream::append(std::int64_t count, std::int64_t i, std::int64_t j)
{
    const FoldRun run{count, foldShares.fetchBytes(i, j),
                      foldShares.writebackBytes(i, j),
                      foldShares.geometry().cycles(i, j)};
    if (!foldRuns.empty()) {
        FoldRun &last = foldRuns.back();
        if (last.fetchBytes == run.fetchBytes &&
            last.writebackBytes == run.writebackBytes &&
            last.cycles == run.cycles) {
            last.count += count;
            return;
        }
    }
    foldRuns.push_back(run);
}

FoldTimeline
jumpFoldTimeline(std::span<const FoldRun> stream,
                 const BandwidthTransfer &transfer)
{
    FoldTimeline timeline;
    std::int64_t dram_free = 0;
    std::int64_t compute_done = 0;
    std::int64_t compute_done_prev = 0;
    for (const FoldRun &run : stream) {
        const std::int64_t fetch_cycles = transfer.cycles(run.fetchBytes);
        const bool writes = run.writebackBytes > 0;
        const std::int64_t writeback_cycles =
            writes ? transfer.cycles(run.writebackBytes) : 0;

        std::int64_t left = run.count;
        while (left > 0) {
            const std::int64_t dram_before = dram_free;
            const std::int64_t done_before = compute_done;
            const std::int64_t prev_before = compute_done_prev;

            // One step of runFoldTimeline()'s recurrence.
            const std::int64_t fetch_done =
                std::max(dram_free, compute_done_prev) + fetch_cycles;
            compute_done_prev = compute_done;
            compute_done = std::max(compute_done, fetch_done) + run.cycles;
            dram_free = writes ? std::max(fetch_done, compute_done) +
                                     writeback_cycles
                               : fetch_done;
            --left;
            ++timeline.steppedFolds;

            // The step is max-plus homogeneous: shifting all three
            // clocks by d shifts its result by d. So once a step moved
            // all three by the same delta, so does every later step of
            // this run, and the rest of the run is one multiply.
            const std::int64_t delta = compute_done - done_before;
            if (dram_free - dram_before == delta &&
                compute_done_prev - prev_before == delta) {
                dram_free += left * delta;
                compute_done += left * delta;
                compute_done_prev += left * delta;
                left = 0;
            }
        }
        if (writes)
            timeline.lastWritebackDone = dram_free;
        timeline.computeBusy += run.count * run.cycles;
    }
    timeline.computeDone = compute_done;
    return timeline;
}

LayerResult
timelineResult(const nn::Layer &layer, const FoldShares &shares,
               const FoldTimeline &timeline)
{
    LayerResult result;
    result.layerName = layer.name;
    result.gemm = layer.gemm();
    result.rowFolds = shares.geometry().rowFolds;
    result.colFolds = shares.geometry().colFolds;
    result.computeCycles = timeline.computeBusy;
    result.traffic = shares.traffic();
    result.totalCycles = timeline.totalCycles();
    result.stallCycles = result.totalCycles - result.computeCycles;
    return result;
}

} // namespace autopilot::systolic
