/**
 * @file
 * CI perf smoke for the bank-level DRAM channel: drives
 * dram::ChannelTimeline and its per-burst reference
 * dram::reference::PerBurstChannel (tests/reference/dram.h) with the
 * same transfers and checks every completion and every ChannelStats
 * field for equality. Two corpora:
 *
 *  - fold timelines: every layer of every eighth bundled policy model on
 *    a randomized hardware-space corpus plus the space corners, under
 *    open-row, closed-row and saturated UAV channels (the NPU's burst
 *    runs plus short drains);
 *  - long drains: small NPU transfers 20k-200k cycles apart, so almost
 *    all the work is the background drain loop.
 *
 * Exits nonzero unless both agree on everything and the timeline is
 * faster than the reference on each corpus, timed within this one
 * process (so only the ratio matters, never the host's absolute speed).
 */

#include <chrono>
#include <cstdio>
#include <iterator>
#include <tuple>
#include <vector>

#include "dram/channel.h"
#include "dram/config.h"
#include "nn/e2e_template.h"
#include "reference/dram.h"
#include "systolic/fold_stream.h"
#include "util/rng.h"

using namespace autopilot;

namespace
{

double
nowSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Time and totals of one corpus on one path. */
struct Tally
{
    double seconds = 0.0;
    std::int64_t bursts = 0; ///< Background bursts serviced.
};

/// Run @p drive (which feeds transfers through a channel and returns
/// its completions) on a fresh channel of type Channel; time it.
template <class Channel, class Drive>
std::vector<std::int64_t>
timed(const dram::DramSpec &spec, const systolic::AcceleratorConfig &config,
      Drive &&drive, Tally &tally, dram::ChannelStats &stats)
{
    const double start = nowSeconds();
    Channel channel(spec, config);
    std::vector<std::int64_t> completions = drive(channel);
    tally.seconds += nowSeconds() - start;
    tally.bursts += channel.stats().backgroundRequests;
    stats = channel.stats();
    return completions;
}

/// Both paths over one drive; false (with a message) on any mismatch.
template <class Drive>
bool
compare(const char *corpus, const char *shape, const dram::DramSpec &spec,
        const systolic::AcceleratorConfig &config, Drive &&drive,
        Tally &fast, Tally &reference)
{
    dram::ChannelStats fastStats;
    dram::ChannelStats referenceStats;
    const std::vector<std::int64_t> a = timed<dram::ChannelTimeline>(
        spec, config, drive, fast, fastStats);
    const std::vector<std::int64_t> b =
        timed<dram::reference::PerBurstChannel>(spec, config, drive,
                                                reference, referenceStats);
    if (a != b || !dram::reference::sameStats(fastStats, referenceStats)) {
        std::fprintf(stderr,
                     "dram_perf_smoke: FAIL - %s (%s) @ %s: the timeline "
                     "and the per-burst reference disagree\n",
                     corpus, shape, config.name().c_str());
        return false;
    }
    return true;
}

} // namespace

int
main()
{
    dram::DramTiming closed;
    closed.rowPolicy = dram::RowPolicy::Closed;
    const struct
    {
        const char *name;
        dram::DramSpec spec;
    } shapes[] = {
        {"uav-open", dram::uavDramSpec(dram::DramTiming{}, 400e6, 200e6)},
        {"uav-closed", dram::uavDramSpec(closed, 400e6, 200e6)},
        {"saturated", dram::uavDramSpec(dram::DramTiming{}, 2e9, 1e9)},
    };

    std::vector<systolic::AcceleratorConfig> configs =
        systolic::HardwareSpace().sampleCorpus(3, 0xD5A3u);
    std::vector<nn::Model> models;
    const std::vector<nn::PolicyHyperParams> policies =
        nn::PolicySpace().enumerate();
    for (std::size_t p = 0; p < policies.size(); p += 8)
        models.push_back(nn::buildE2EModel(policies[p]));

    Tally foldFast, foldReference;
    std::size_t layers = 0;
    for (const auto &shape : shapes) {
        for (const systolic::AcceleratorConfig &config : configs) {
            for (const nn::Model &model : models) {
                for (const nn::Layer &layer : model.layers()) {
                    const systolic::FoldStream stream(layer, config);
                    auto drive = [&stream](auto &channel) {
                        std::vector<std::int64_t> done;
                        systolic::runFoldTimeline(
                            stream.runs(),
                            [&](std::int64_t start, std::int64_t bytes,
                                bool write) {
                                done.push_back(
                                    channel.transfer(start, bytes, write));
                                return done.back();
                            });
                        return done;
                    };
                    if (!compare("fold timelines", shape.name, shape.spec,
                                 config, drive, foldFast, foldReference))
                        return 1;
                    ++layers;
                }
            }
        }
    }

    Tally drainFast, drainReference;
    for (const auto &shape : shapes) {
        for (const int width : {32, 24}) {
            systolic::AcceleratorConfig config;
            config.dramBytesPerCycle = width;
            auto drive = [](auto &channel) {
                util::Rng rng(0x10D7A1u);
                std::vector<std::int64_t> done;
                std::int64_t cycle = 0;
                for (int i = 0; i < 300; ++i) {
                    cycle = channel.transfer(
                        cycle + rng.uniformInt(20000, 200000),
                        rng.uniformInt(1, 512), i % 2 == 0);
                    done.push_back(cycle);
                }
                return done;
            };
            if (!compare("long drains", shape.name, shape.spec, config,
                         drive, drainFast, drainReference))
                return 1;
        }
    }

    std::printf("dram_perf_smoke: %zu fold-timeline layers and %d long-drain "
                "runs, identical\n",
                layers, static_cast<int>(std::size(shapes)) * 2);
    bool faster = true;
    for (const auto &[corpus, fast, reference] :
         {std::tuple{"fold timelines", foldFast, foldReference},
          std::tuple{"long drains", drainFast, drainReference}}) {
        std::printf("dram_perf_smoke: %s: reference %.3f s, timeline %.3f "
                    "s (%.2f ns per background burst, NPU work included), "
                    "speedup %.2fx\n",
                    corpus, reference.seconds, fast.seconds,
                    fast.seconds * 1e9 / static_cast<double>(fast.bursts),
                    reference.seconds / fast.seconds);
        if (fast.seconds >= reference.seconds) {
            std::fprintf(stderr,
                         "dram_perf_smoke: FAIL - the timeline is not "
                         "faster than the per-burst reference on %s\n",
                         corpus);
            faster = false;
        }
    }
    if (!faster)
        return 1;
    std::printf("dram_perf_smoke: OK\n");
    return 0;
}
