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

BankModel::BankModel(const DramTiming &config)
    : timing(config),
      openRow(static_cast<std::size_t>(config.banks), -1),
      nextRefresh(config.tRefiCycles)
{
    util::fatalIf(timing.banks <= 0 || timing.rowBytes <= 0 ||
                      timing.tRefiCycles <= 0,
                  "BankModel: degenerate timing - validate the DramSpec "
                  "before simulating");
}

std::int64_t
BankModel::service(std::int64_t addr, std::int64_t bytes,
                   std::int64_t start, std::int64_t bytesPerCycle,
                   ChannelStats &stats)
{
    // Refresh is all-bank: catch up on every interval boundary the
    // channel slept through, close the rows, and push the request past
    // the stall when it lands inside one.
    while (start >= nextRefresh) {
        const std::int64_t stallEnd = nextRefresh + timing.tRfcCycles;
        for (std::int64_t &row : openRow)
            row = -1;
        ++stats.refreshes;
        if (start < stallEnd)
            start = stallEnd;
        nextRefresh += timing.tRefiCycles;
    }

    // floor(floor(a / R) / B) == floor(a / (R * B)) for a >= 0.
    const std::int64_t rowIndex = addr / timing.rowBytes;
    const std::size_t bank =
        static_cast<std::size_t>(rowIndex % timing.banks);
    const std::int64_t row = rowIndex / timing.banks;

    std::int64_t latency = timing.tCasCycles;
    if (openRow[bank] == row) {
        ++stats.rowHits;
    } else if (openRow[bank] < 0) {
        ++stats.rowMisses;
        ++stats.activates;
        latency += timing.tRcdCycles;
    } else {
        ++stats.rowConflicts;
        ++stats.activates;
        ++stats.precharges;
        latency += timing.tRpCycles + timing.tRcdCycles;
    }
    if (timing.rowPolicy == RowPolicy::Open) {
        openRow[bank] = row;
    } else {
        openRow[bank] = -1; // Auto-precharge: the next access misses.
        ++stats.precharges;
    }

    const std::int64_t transfer =
        (bytes + bytesPerCycle - 1) / bytesPerCycle;
    return start + latency + transfer;
}

std::int64_t
BankModel::serviceRun(std::int64_t addr, std::int64_t maxBursts,
                      std::int64_t &cycle, std::int64_t bytesPerCycle,
                      ChannelStats &stats)
{
    if (maxBursts <= 0 || cycle >= nextRefresh)
        return 0;
    const std::int64_t burst = timing.burstBytes;
    std::int64_t latency = timing.tCasCycles;
    std::int64_t bursts = maxBursts;
    if (timing.rowPolicy == RowPolicy::Open) {
        // Hits only: the burst must start in its bank's open row, and
        // so must every later burst that starts in the same row.
        const std::int64_t rowIndex = addr / timing.rowBytes;
        const std::size_t bank =
            static_cast<std::size_t>(rowIndex % timing.banks);
        if (openRow[bank] != rowIndex / timing.banks)
            return 0;
        const std::int64_t rowEnd = (rowIndex + 1) * timing.rowBytes;
        bursts = std::min(bursts, (rowEnd - addr + burst - 1) / burst);
    } else {
        // Closed: every row is precharged, so every burst is a miss.
        latency += timing.tRcdCycles;
    }
    const std::int64_t cost =
        latency + (burst + bytesPerCycle - 1) / bytesPerCycle;
    // Burst k starts at cycle + k * cost and must start before the
    // refresh deadline.
    bursts = std::min(bursts, (nextRefresh - cycle + cost - 1) / cost);

    if (timing.rowPolicy == RowPolicy::Open) {
        stats.rowHits += bursts;
    } else {
        stats.rowMisses += bursts;
        stats.activates += bursts;
        stats.precharges += bursts;
    }
    cycle += bursts * cost;
    return bursts;
}

} // namespace autopilot::dram
