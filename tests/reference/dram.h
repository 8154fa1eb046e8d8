/**
 * @file
 * Reference bank-level DRAM channel, kept verbatim as the oracle
 * dram::ChannelTimeline is checked against on every transfer completion
 * and every ChannelStats field: BankModel::service, the generator setup
 * of the ChannelTimeline constructor, the background service and
 * transfer, each one burst at a time, with plain / and %, std::ceil and
 * a branchy hit/miss/conflict classification. Test-only; the library
 * services same-row NPU runs in closed form and drains background
 * bursts in a dedicated loop.
 */

#ifndef AUTOPILOT_TESTS_REFERENCE_DRAM_H
#define AUTOPILOT_TESTS_REFERENCE_DRAM_H

#include <cstdint>
#include <vector>

#include "dram/bank_model.h"
#include "dram/config.h"
#include "systolic/config.h"

namespace autopilot::dram::reference
{

/** Per-burst bank state machines + refresh (see dram::BankModel). */
class PerBurstBankModel
{
  public:
    explicit PerBurstBankModel(const DramTiming &config);

    /** Service one request (see dram::BankModel::service). */
    std::int64_t service(std::int64_t addr, std::int64_t bytes,
                         std::int64_t start, std::int64_t bytesPerCycle,
                         ChannelStats &stats);

  private:
    DramTiming timing;
    std::vector<std::int64_t> openRow;
    std::int64_t nextRefresh;
};

/** Per-burst channel timeline (see dram::ChannelTimeline). */
class PerBurstChannel
{
  public:
    PerBurstChannel(const DramSpec &spec,
                    const systolic::AcceleratorConfig &config);

    /** Service one NPU transfer (see dram::ChannelTimeline::transfer). */
    std::int64_t transfer(std::int64_t earliestStart, std::int64_t bytes,
                          bool write);

    const ChannelStats &stats() const { return stats_; }

  private:
    struct GeneratorState
    {
        TrafficGeneratorSpec spec;
        double interArrivalCycles = 0.0;
        double nextArrival = 0.0;
        std::int64_t offset = 0; ///< Linear walk position in the window.
        std::uint64_t rng = 0;
        std::size_t statsIndex = 0;
    };

    GeneratorState *earliestGenerator();
    void serviceGenerator(GeneratorState &generator);

    DramSpec spec_;
    std::int64_t bytesPerCycle;
    PerBurstBankModel banks;
    std::int64_t channelFree = 0;
    std::int64_t npuReadAddr = 0;
    std::int64_t npuWriteAddr = 1ll << 28;
    std::vector<GeneratorState> generators;
    ChannelStats stats_;
};

/** Every ChannelStats field equal, generator slices included. */
bool sameStats(const ChannelStats &a, const ChannelStats &b);

} // namespace autopilot::dram::reference

#endif // AUTOPILOT_TESTS_REFERENCE_DRAM_H
