/**
 * @file
 * The benchmark's workloads, the inputs they derive from a seed, and the
 * output checks and digests every run applies to their results.
 *
 *  - bo-dense:    one AutoPilot pipeline with the paper's default flow
 *                 (dense obstacles, Bayesian optimization, analytical
 *                 backend); the optimizer does almost all the work.
 *  - cycle-nsga2: one pipeline on medium density with NSGA-II over the
 *                 cycle-stepped backend; the cycle kernel dominates and
 *                 NSGA-II re-proposes points, so the memo cache hits.
 *  - serve-mix:   six campaigns from three tenants through the campaign
 *                 service over one shared pool, with journals and
 *                 status files written to disk.
 */

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include <cstdint>
#include <string>
#include <vector>

#include "core/autopilot.h"
#include "dse/pareto.h"
#include "runner/service.h"

namespace perfbench
{

enum class Workload
{
    BoDense,
    CycleNsga2,
    ServeMix,
};

/** Parse "bo-dense" / "cycle-nsga2" / "serve-mix"; false otherwise. */
bool workloadFromName(const std::string &name, Workload &out);

/** Fixed hypervolume reference {1 - success, 12 W, 120 ms}. */
extern const autopilot::dse::Objectives kReference;

/** Largest relative hypervolume-history dip taken as rounding. */
extern const double kHvRounding;

/** 64-bit FNV-1a over raw bytes. */
class Fnv
{
  public:
    void bytes(const void *data, std::size_t size);
    void text(const std::string &value);
    void number(double value);
    void integer(std::int64_t value);
    std::uint64_t value() const { return hash; }

  private:
    std::uint64_t hash = 0xcbf29ce484222325ULL;
};

/** Hex rendering of a digest (16 lower-case digits). */
std::string hexDigest(std::uint64_t digest);

/** A single-pipeline workload (bo-dense or cycle-nsga2). */
struct PipelineJob
{
    autopilot::core::TaskSpec task;
    autopilot::uav::UavSpec uav;
};

/**
 * Input @p input of a pipeline workload's seed @p seed (each input is
 * one task seed); @p threads sizes the pipeline's private pool.
 */
PipelineJob pipelineJob(Workload workload, std::uint64_t seed, int input,
                        int threads);

/** What one run produced, reduced to the benchmark's outputs. */
struct Outcome
{
    std::uint64_t digest = 0;
    double frontHv = 0.0;          ///< Mean over campaigns for serve-mix.
    double selectedMissions = 0.0; ///< Mean over campaigns for serve-mix.
    int attempted = 0;             ///< Pipelines or campaigns submitted.
    int failed = 0;                ///< Of those, failed or rejected.
    double worstHvDip = 0.0;       ///< Largest relative history dip.
    std::vector<std::string> problems; ///< Failed output checks.
};

/**
 * Check and digest a finished pipeline: archive size equals the budget,
 * every objective is finite, the hypervolume history never decreases
 * (beyond kHvRounding) and ends at the front hypervolume, and the
 * selected design's mission count is finite.
 */
Outcome checkPipeline(const PipelineJob &job,
                      const autopilot::core::AutoPilotRun &run);

/** One serve-mix inbox submission. */
struct Submission
{
    std::string id;
    int budget = 0;
    std::string json;
};

/** The six serve-mix submissions of input @p input of seed @p seed. */
std::vector<Submission> serveMixSubmissions(std::uint64_t seed, int input);

/** serve-mix service settings over @p root with @p threads workers. */
autopilot::runner::ServiceConfig serveMixConfig(const std::string &root,
                                                int threads);

/** Write the submissions into @p root's inbox. */
void dropSubmissions(const std::string &root,
                     const std::vector<Submission> &submissions);

/**
 * Check and digest a finished serve-mix run from the files it left under
 * @p root: 6 of 6 campaigns completed and none rejected, each journal
 * holds at least the campaign's budget of rows with finite objectives,
 * each result row is "ok".
 */
Outcome checkServe(const std::string &root,
                   const std::vector<Submission> &submissions,
                   const autopilot::runner::ServiceReport &report);

/** Journal path of campaign @p id under a service @p root. */
std::string journalPath(const std::string &root, const std::string &id);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
