/**
 * @file
 * Per-bank row-buffer state machine with gem5-style command timing.
 *
 * Addresses map row:bank:column (consecutive rows of one stream land in
 * different banks, the interleaving every real controller uses):
 *
 *   column = addr % rowBytes
 *   bank   = (addr / rowBytes) % banks
 *   row    =  addr / (rowBytes * banks)
 *
 * Each access classifies against the target bank's open row:
 *
 *   hit      - row already open:              tCAS
 *   miss     - bank idle (no open row):       tRCD + tCAS   (+activate)
 *   conflict - different row open:      tRP + tRCD + tCAS   (+precharge,
 *                                                            +activate)
 *
 * plus the data-transfer cycles ceil(bytes / dramBytesPerCycle). Under
 * the Closed row policy every access auto-precharges, so every access
 * is a miss - the locality-blind baseline. Refresh closes all rows and
 * stalls the channel tRFC cycles every tREFI cycles.
 */

#ifndef AUTOPILOT_DRAM_BANK_MODEL_H
#define AUTOPILOT_DRAM_BANK_MODEL_H

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "dram/config.h"

namespace autopilot::dram
{

/** Per-generator slice of the channel statistics. */
struct GeneratorStats
{
    std::string name;
    std::int64_t requests = 0;
    std::int64_t bytes = 0;
};

/** Command and traffic counters accumulated by a channel timeline. */
struct ChannelStats
{
    std::int64_t rowHits = 0;
    std::int64_t rowMisses = 0;
    std::int64_t rowConflicts = 0;
    std::int64_t activates = 0;
    std::int64_t precharges = 0;
    std::int64_t refreshes = 0;
    std::int64_t npuRequests = 0;
    std::int64_t npuBytes = 0;
    std::int64_t backgroundRequests = 0;
    std::int64_t backgroundBytes = 0;
    /// One entry per generator, in spec order.
    std::vector<GeneratorStats> generators;

    /** All classified accesses (hits + misses + conflicts). */
    std::int64_t accesses() const
    {
        return rowHits + rowMisses + rowConflicts;
    }

    /** Row-buffer hit fraction; 0 when nothing was accessed. */
    double rowHitRate() const
    {
        const std::int64_t total = accesses();
        return total > 0
                   ? static_cast<double>(rowHits) /
                         static_cast<double>(total)
                   : 0.0;
    }

    /** Bytes moved over the channel by anyone. */
    std::int64_t totalBytes() const { return npuBytes + backgroundBytes; }

    /** Fold @p other into this (generators matched by index). */
    void accumulate(const ChannelStats &other);
};

/**
 * Quotient and remainder of a non-negative dividend by a positive
 * divisor fixed for a channel's life (row size, bank count, burst size,
 * channel width, a run's cost): a shift and a mask when the divisor is a
 * power of two, plain / and % otherwise. Exact either way; the burst
 * path divides by these constants on every request, and a 64-bit divide
 * costs tens of cycles.
 */
class FixedDivisor
{
  public:
    explicit FixedDivisor(std::int64_t divisor = 1)
        : value(divisor),
          shift(std::has_single_bit(static_cast<std::uint64_t>(divisor))
                    ? std::countr_zero(static_cast<std::uint64_t>(divisor))
                    : -1)
    {
    }

    std::int64_t divisor() const { return value; }

    /** floor(a / divisor) for a >= 0. */
    std::int64_t
    quotient(std::int64_t a) const
    {
        return shift >= 0 ? a >> shift : a / value;
    }

    /** a mod divisor for a >= 0. */
    std::int64_t
    remainder(std::int64_t a) const
    {
        return shift >= 0 ? a & (value - 1) : a % value;
    }

    /** ceil(a / divisor) for a >= 0. */
    std::int64_t
    ceil(std::int64_t a) const
    {
        return quotient(a + value - 1);
    }

  private:
    std::int64_t value;
    int shift; ///< log2(divisor), or -1 when not a power of two.
};

/**
 * Row-buffer outcomes of a sequence of accesses. Activates and
 * precharges follow from these and the row policy (BankModel::count),
 * so a caller servicing many bursts keeps three register counters and
 * folds them into ChannelStats once.
 */
struct RowCounts
{
    std::int64_t hits = 0;
    std::int64_t misses = 0;
    std::int64_t conflicts = 0;
};

/** Bank state machines + refresh for one channel. */
class BankModel
{
  public:
    /**
     * @param timing        Validated channel timing.
     * @param bytesPerCycle Channel width (dramBytesPerCycle, >= 1);
     *                      fixes every request's transfer time.
     */
    BankModel(const DramTiming &timing, std::int64_t bytesPerCycle);

    /**
     * Service one request of @p bytes at @p addr on an idle channel,
     * starting no earlier than cycle @p start; returns the completion
     * cycle and folds the command counts into @p stats. The caller (the
     * channel timeline) owns request ordering and channel occupancy;
     * this models only bank state and timing.
     */
    std::int64_t service(std::int64_t addr, std::int64_t bytes,
                         std::int64_t start, ChannelStats &stats);

    /**
     * service() for one full burst: returns the completion cycle, counts
     * the row outcome into @p counts and any refresh into @p stats.
     * Inline for the channel's background drain loop; the transfer time
     * is the burst cost fixed at construction.
     */
    std::int64_t
    serviceBurst(std::int64_t addr, std::int64_t start, RowCounts &counts,
                 ChannelStats &stats)
    {
        if (start >= nextRefresh) [[unlikely]]
            start = catchUpRefresh(start, stats);
        return start + classify(addr, counts) + burstTransfer;
    }

    /**
     * Service, back to back from cycle @p cycle, up to @p maxBursts full
     * bursts at @p addr, addr + burstBytes, ... in closed form, exactly
     * as that many service() calls would. The run holds only while every
     * burst classifies alike and no refresh falls due: under the Open
     * policy each burst must start in a row that is already open (a
     * hit), under Closed each burst is a miss, and every burst must
     * start before the next refresh deadline. Advances @p cycle to the
     * last burst's completion and returns the bursts serviced (0 when
     * the first burst is a row head or a refresh crossing - service()
     * handles those).
     */
    std::int64_t serviceRun(std::int64_t addr, std::int64_t maxBursts,
                            std::int64_t &cycle, ChannelStats &stats);

    /// Fold @p counts into @p stats with the activates and precharges
    /// they imply under this model's row policy.
    void
    count(RowCounts counts, ChannelStats &stats) const
    {
        stats.rowHits += counts.hits;
        stats.rowMisses += counts.misses;
        stats.rowConflicts += counts.conflicts;
        stats.activates += counts.misses + counts.conflicts;
        stats.precharges += counts.conflicts;
        if (timing.rowPolicy == RowPolicy::Closed) // Auto-precharge.
            stats.precharges +=
                counts.hits + counts.misses + counts.conflicts;
    }

  private:
    /**
     * The one hit/miss/conflict classifier. Classifies an access at
     * @p addr against its bank's open row without a branch, counts it
     * into @p counts, leaves the row open (Open policy) or precharged
     * (Closed) and returns the command latency: tCAS, + tRCD unless it
     * hit, + tRP on a conflict. Rows are >= 0 and a precharged bank
     * holds -1, so the three outcomes are disjoint.
     */
    std::int64_t
    classify(std::int64_t addr, RowCounts &counts)
    {
        // floor(floor(a / R) / B) == floor(a / (R * B)) for a >= 0.
        const std::int64_t rowIndex = rowBytes.quotient(addr);
        std::int64_t &open =
            openRow[static_cast<std::size_t>(banks.remainder(rowIndex))];
        const std::int64_t row = banks.quotient(rowIndex);
        const std::int64_t held = open;
        const std::int64_t miss = held < 0;
        const std::int64_t hit = held == row;
        const std::int64_t conflict = 1 - miss - hit;
        counts.hits += hit;
        counts.misses += miss;
        counts.conflicts += conflict;
        open = row | closedMask;
        return timing.tCasCycles + ((hit - 1) & timing.tRcdCycles) +
               (-conflict & timing.tRpCycles);
    }

    /// Refresh is all-bank: catch up on every interval boundary the
    /// channel slept through, close the rows, and return @p start
    /// pushed past the stall when it lands inside one.
    std::int64_t catchUpRefresh(std::int64_t start, ChannelStats &stats);

    DramTiming timing;
    std::vector<std::int64_t> openRow; ///< Per bank; -1 = precharged.
    std::int64_t nextRefresh;
    /// OR-ed into a row on access: 0 keeps it open, -1 (Closed policy)
    /// auto-precharges it.
    std::int64_t closedMask;
    FixedDivisor rowBytes;
    FixedDivisor banks;
    FixedDivisor burstBytes;
    FixedDivisor width;         ///< Channel bytes per cycle.
    std::int64_t burstTransfer; ///< ceil(burstBytes / width).
    FixedDivisor runCost; ///< One serviceRun() burst: hit or miss cost.
};

} // namespace autopilot::dram

#endif // AUTOPILOT_DRAM_BANK_MODEL_H
