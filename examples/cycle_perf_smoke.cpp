/**
 * @file
 * CI perf smoke for the compiled fold timeline: runs every layer of the
 * randomized hardware-space corpus (200 sampled configurations plus the
 * space corners, all three dataflows) x every bundled policy model
 * through CycleEngine::runLayer (FoldStream + steady-state jump) and
 * systolic::runLayerStepping (the same stream stepped fold by fold; the
 * test-side reference in tests/reference/systolic.h),
 * with and without a derating contention profile. Exits nonzero unless
 * the two agree to the cycle on every layer and the jump path is faster
 * than stepping, timed within this one process (so only the ratio
 * matters, never the host's absolute speed).
 */

#include <chrono>
#include <cstdio>
#include <vector>

#include "nn/e2e_template.h"
#include "reference/systolic.h"
#include "systolic/cycle_engine.h"

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

bool
sameResult(const systolic::LayerResult &a, const systolic::LayerResult &b)
{
    return a.totalCycles == b.totalCycles &&
           a.computeCycles == b.computeCycles &&
           a.stallCycles == b.stallCycles && a.rowFolds == b.rowFolds &&
           a.colFolds == b.colFolds &&
           a.traffic.totalDramBytes() == b.traffic.totalDramBytes() &&
           a.traffic.totalSramAccesses() == b.traffic.totalSramAccesses();
}

} // namespace

int
main()
{
    const std::vector<systolic::AcceleratorConfig> configs =
        systolic::HardwareSpace().sampleCorpus(200, 0xB47C11u);
    std::vector<nn::Model> models;
    for (const nn::PolicyHyperParams &policy :
         nn::PolicySpace().enumerate())
        models.push_back(nn::buildE2EModel(policy));

    systolic::ContentionProfile derated; // 2.4 of 6.4 GB/s taken.
    derated.cameraBytesPerSec = 1.6e9;
    derated.hostBytesPerSec = 0.8e9;

    std::size_t layers = 0;
    std::int64_t folds = 0;
    double fastSeconds = 0.0;
    double steppingSeconds = 0.0;
    std::int64_t checksum = 0;
    for (const systolic::ContentionProfile &profile :
         {systolic::ContentionProfile{}, derated}) {
        for (const systolic::AcceleratorConfig &config : configs) {
            const systolic::CycleEngine engine(config, profile);
            for (const nn::Model &model : models) {
                // Whole models back to back per path, so each timing
                // covers the same work with a warm instruction cache.
                std::vector<systolic::LayerResult> fast;
                std::vector<systolic::LayerResult> stepped;
                const double start = nowSeconds();
                for (const nn::Layer &layer : model.layers())
                    fast.push_back(engine.runLayer(layer));
                const double middle = nowSeconds();
                for (const nn::Layer &layer : model.layers())
                    stepped.push_back(
                        systolic::runLayerStepping(engine, layer));
                fastSeconds += middle - start;
                steppingSeconds += nowSeconds() - middle;

                for (std::size_t l = 0; l < fast.size(); ++l) {
                    if (!sameResult(fast[l], stepped[l])) {
                        std::fprintf(
                            stderr,
                            "cycle_perf_smoke: FAIL - %s layer %s @ %s%s: "
                            "jump %lld cycles, stepping %lld\n",
                            model.name().c_str(),
                            fast[l].layerName.c_str(),
                            config.name().c_str(),
                            profile.enabled() ? " (derated)" : "",
                            static_cast<long long>(fast[l].totalCycles),
                            static_cast<long long>(
                                stepped[l].totalCycles));
                        return 1;
                    }
                    folds += fast[l].rowFolds * fast[l].colFolds;
                    checksum += fast[l].totalCycles;
                }
                layers += fast.size();
            }
        }
    }

    std::printf("cycle_perf_smoke: %zu layers, %lld folds, identical "
                "(checksum %lld)\n",
                layers, static_cast<long long>(folds),
                static_cast<long long>(checksum));
    std::printf("cycle_perf_smoke: stepping %.3f s (%.2f ns/fold), jump "
                "%.3f s (%.2f ns/fold), speedup %.1fx\n",
                steppingSeconds, steppingSeconds * 1e9 / folds,
                fastSeconds, fastSeconds * 1e9 / folds,
                steppingSeconds / fastSeconds);
    if (fastSeconds >= steppingSeconds) {
        std::fprintf(stderr, "cycle_perf_smoke: FAIL - the jump path is "
                             "not faster than stepping\n");
        return 1;
    }
    std::printf("cycle_perf_smoke: OK\n");
    return 0;
}
