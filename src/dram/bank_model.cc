#include "dram/bank_model.h"

#include <algorithm>

#include "util/logging.h"

namespace autopilot::dram
{

void
ChannelStats::accumulate(const ChannelStats &other)
{
    rowHits += other.rowHits;
    rowMisses += other.rowMisses;
    rowConflicts += other.rowConflicts;
    activates += other.activates;
    precharges += other.precharges;
    refreshes += other.refreshes;
    npuRequests += other.npuRequests;
    npuBytes += other.npuBytes;
    backgroundRequests += other.backgroundRequests;
    backgroundBytes += other.backgroundBytes;
    if (generators.size() < other.generators.size())
        generators.resize(other.generators.size());
    for (std::size_t g = 0; g < other.generators.size(); ++g) {
        generators[g].name = other.generators[g].name;
        generators[g].requests += other.generators[g].requests;
        generators[g].bytes += other.generators[g].bytes;
    }
}

BankModel::BankModel(const DramTiming &config, std::int64_t bytesPerCycle)
    : timing(config),
      openRow(static_cast<std::size_t>(config.banks), -1),
      nextRefresh(config.tRefiCycles),
      closedMask(config.rowPolicy == RowPolicy::Closed ? -1 : 0)
{
    util::fatalIf(timing.banks <= 0 || timing.rowBytes <= 0 ||
                      timing.tRefiCycles <= 0,
                  "BankModel: degenerate timing - validate the DramSpec "
                  "before simulating");
    util::fatalIf(bytesPerCycle <= 0,
                  "BankModel: dramBytesPerCycle must be >= 1");
    rowBytes = FixedDivisor(timing.rowBytes);
    banks = FixedDivisor(timing.banks);
    burstBytes = FixedDivisor(timing.burstBytes);
    width = FixedDivisor(bytesPerCycle);
    burstTransfer = width.ceil(timing.burstBytes);
    std::int64_t latency = timing.tCasCycles;
    if (timing.rowPolicy == RowPolicy::Closed)
        latency += timing.tRcdCycles; // Every run burst is a miss.
    runCost = FixedDivisor(latency + burstTransfer);
}

std::int64_t
BankModel::catchUpRefresh(std::int64_t start, ChannelStats &stats)
{
    while (start >= nextRefresh) {
        const std::int64_t stallEnd = nextRefresh + timing.tRfcCycles;
        for (std::int64_t &row : openRow)
            row = -1;
        ++stats.refreshes;
        if (start < stallEnd)
            start = stallEnd;
        nextRefresh += timing.tRefiCycles;
    }
    return start;
}

std::int64_t
BankModel::service(std::int64_t addr, std::int64_t bytes,
                   std::int64_t start, ChannelStats &stats)
{
    start = catchUpRefresh(start, stats);
    RowCounts counts;
    const std::int64_t latency = classify(addr, counts);
    count(counts, stats);
    return start + latency + width.ceil(bytes);
}

std::int64_t
BankModel::serviceRun(std::int64_t addr, std::int64_t maxBursts,
                      std::int64_t &cycle, ChannelStats &stats)
{
    if (maxBursts <= 0 || cycle >= nextRefresh)
        return 0;
    std::int64_t bursts = maxBursts;
    if (timing.rowPolicy == RowPolicy::Open) {
        // Hits only: the burst must start in its bank's open row, and
        // so must every later burst that starts in the same row.
        const std::int64_t rowIndex = rowBytes.quotient(addr);
        const std::size_t bank =
            static_cast<std::size_t>(banks.remainder(rowIndex));
        if (openRow[bank] != banks.quotient(rowIndex))
            return 0;
        const std::int64_t rowEnd = (rowIndex + 1) * timing.rowBytes;
        bursts = std::min(bursts, burstBytes.ceil(rowEnd - addr));
    }
    // Closed: every row is precharged, so every burst is a miss; the
    // run cost holds tRCD then. Burst k starts at cycle + k * cost and
    // must start before the refresh deadline.
    bursts = std::min(bursts, runCost.ceil(nextRefresh - cycle));

    RowCounts counts;
    if (timing.rowPolicy == RowPolicy::Open)
        counts.hits = bursts;
    else
        counts.misses = bursts;
    count(counts, stats);
    cycle += bursts * runCost.divisor();
    return bursts;
}

} // namespace autopilot::dram
