/**
 * @file
 * perfbench_selftest: the TimedBackend wrapper must not change results.
 *
 * Runs the bo-dense and cycle-nsga2 pipelines once on the built-in
 * backends and once with every backend wrapped (installTimedBackends),
 * and requires equal archive digests, a wrapper that actually saw the
 * Phase 2 points, and a clean output check on both runs. Exits 0 on
 * success, 1 on any mismatch.
 */

#include <algorithm>
#include <iostream>
#include <thread>

#include "timed_backend.h"
#include "workloads.h"

namespace
{

perfbench::Outcome
runPipeline(perfbench::Workload workload, int threads)
{
    const perfbench::PipelineJob job =
        perfbench::pipelineJob(workload, 1, 0, threads);
    autopilot::core::AutoPilot pilot(job.task);
    return perfbench::checkPipeline(job, pilot.designFor(job.uav));
}

} // namespace

int
main()
{
    const int threads = static_cast<int>(
        std::clamp(std::thread::hardware_concurrency(), 1u, 4u));
    const perfbench::Workload workloads[] = {
        perfbench::Workload::BoDense, perfbench::Workload::CycleNsga2};
    const char *names[] = {"bo-dense", "cycle-nsga2"};

    perfbench::Outcome plain[2];
    for (int i = 0; i < 2; ++i)
        plain[i] = runPipeline(workloads[i], threads);

    perfbench::installTimedBackends();
    int failures = 0;
    for (int i = 0; i < 2; ++i) {
        perfbench::backendLedger().reset();
        const perfbench::Outcome wrapped = runPipeline(workloads[i], threads);
        const auto points = perfbench::backendLedger().points.load();
        const bool ok = wrapped.digest == plain[i].digest && points > 0 &&
                        plain[i].problems.empty() &&
                        wrapped.problems.empty();
        std::cout << names[i] << ": unwrapped "
                  << perfbench::hexDigest(plain[i].digest) << ", wrapped "
                  << perfbench::hexDigest(wrapped.digest) << ", "
                  << points << " points through the wrapper, "
                  << plain[i].problems.size() + wrapped.problems.size()
                  << " failed checks: " << (ok ? "ok" : "FAIL") << "\n";
        failures += ok ? 0 : 1;
    }
    return failures == 0 ? 0 : 1;
}
