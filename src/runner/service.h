/**
 * @file
 * Campaign service: a file-drop daemon running many campaigns for many
 * tenants over one shared work-stealing pool.
 *
 * Layout under ServiceConfig::rootDir (created on demand):
 *
 *   inbox/<id>.json    submissions dropped by clients (write elsewhere,
 *                      rename into place - the scan assumes whole files)
 *   active/<id>.json   admitted-or-queued submissions; scanned at
 *                      startup so a SIGKILLed service resumes exactly
 *                      the campaigns it had accepted
 *   work/<id>/         per-campaign checkpoint root (Phase 1 policy
 *                      checkpoints + Phase 2 evaluation journals)
 *   status/<id>.status one small CSV per campaign, atomically rewritten
 *                      at every state transition with a monotonically
 *                      increasing sequence number
 *   results/<id>.result the deterministic campaign report, written once
 *                      when the campaign reaches a terminal state
 *   done/<id>.json     terminal submissions (completed, failed or
 *                      rejected), moved out of inbox/active
 *
 * Admission is per-tenant round-robin fair-share: submissions queue
 * FIFO within their tenant, and free campaign slots rotate across
 * tenants, so one tenant's burst of 50 campaigns cannot starve another
 * tenant's single run. All admitted campaigns execute their pipeline
 * stages on ONE shared util::ThreadPool (work-stealing), so a huge
 * campaign's tasks interleave with everyone else's.
 *
 * Crash safety: the on-disk truth is the submission file's location
 * (inbox -> active -> done) plus the per-campaign journals in work/.
 * Every move is a rename and every status/result write is
 * fsync+rename-atomic (io::writeFileAtomic), so a SIGKILL at any
 * instant loses at most one in-flight evaluation batch per campaign; a
 * restarted service re-admits everything in active/, resumes from the
 * journals, and produces byte-identical result files.
 *
 * A malformed or invalid submission is rejected (status file explains
 * why, the file moves to done/<id>.rejected) - it never takes the
 * daemon down. Draining: cancel the ServiceConfig::stop source; running
 * campaigns stop at the next batch boundary, stay in active/, and
 * resume on the next start.
 */

#ifndef AUTOPILOT_RUNNER_SERVICE_H
#define AUTOPILOT_RUNNER_SERVICE_H

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "dram/config.h"
#include "runner/campaign.h"
#include "uav/mission_profile.h"
#include "util/cancel.h"
#include "util/retry.h"
#include "util/thread_pool.h"

namespace autopilot::runner
{

/** One validated inbox submission (see parseSubmission for the JSON). */
struct CampaignSubmission
{
    std::string id;     ///< Inbox filename stem; names work/<id>/.
    std::string tenant; ///< Fair-share scheduling key.
    CampaignTask task;  ///< The pipeline run to execute.
};

/**
 * Parse and validate one submission document. @p id (the inbox file
 * stem) becomes the campaign id and task name. Returns false with a
 * diagnostic in @p error on any problem - malformed JSON, unknown keys,
 * bad types, out-of-range values, unknown backend/optimizer/uav/density
 * names - without ever calling fatal(): the service must reject one
 * file, not die.
 *
 * Recognized keys (all optional):
 *   tenant (string, default "default"), density (low|medium|dense),
 *   episodes, budget, seed, threads (numbers), optimizer, backend
 *   (registry names), uav (nano|spark|pelican), deadline_s,
 *   camera_mbps, host_mbps, npu_floor (numbers), airframe
 *   (quad|fixed-wing: single-scenario shorthand), mission_mix (array
 *   of scenario objects, see parseMissionMix; mutually exclusive with
 *   airframe). A submission naming neither flies the legacy quadrotor
 *   point-to-point mission, byte-identical to pre-airframe results.
 */
bool parseSubmission(const std::string &id, const std::string &text,
                     CampaignSubmission &out, std::string &error);

/**
 * Parse a mission-mix JSON document: an array of scenario objects with
 * keys name (string, [a-z0-9_-]{1,32}, unique), airframe
 * (quad|fixed-wing), mission (nav|search|delivery), weight and the
 * per-class numbers distance_m, area_m2 and spacing_m (search),
 * payload_g (delivery). Unknown keys are rejected and the assembled
 * mix is validated with uav::MissionMix::check. The same grammar is
 * accepted inline under a submission's "mission_mix" key and as the
 * standalone file behind campaign_runner's --mission-mix flag. Returns
 * false with a diagnostic in @p error; never calls fatal().
 */
bool parseMissionMix(const std::string &text, uav::MissionMix &out,
                     std::string &error);

/**
 * Program the background DRAM traffic of @p spec from camera and host
 * rates in MB/s, for the backend @p spec already names. The bank-level
 * dram::DramSpec carries the rates for "dram", and for "tiered" when
 * @p dramTiming is given (a dram_* key or --dram-* flag was set);
 * otherwise the flat systolic::ContentionProfile does, never both, so
 * no byte is charged twice. spec.contention.npuFloorFraction is left
 * as the caller set it.
 *
 * Returns false with a diagnosis in @p error, leaving @p spec alone,
 * when a rate overflows to a non-finite byte rate, when @p dramTiming is
 * given for any other backend, or when the channel would be degenerate
 * or starved: each of these would otherwise call fatal() at the task's
 * first evaluation. parseSubmission and campaign_runner's classic mode
 * both build their tasks' traffic here.
 */
bool applyBackgroundTraffic(double cameraMbps, double hostMbps,
                            const dram::DramTiming *dramTiming,
                            core::TaskSpec &spec, std::string &error);

/** Service-level knobs. */
struct ServiceConfig
{
    /// Service root; the inbox/active/work/status/results/done tree
    /// lives underneath. Required (fatal when empty).
    std::string rootDir;
    /// Campaigns running concurrently; queued submissions wait their
    /// tenant's round-robin turn. Must be >= 1.
    int maxActiveCampaigns = 2;
    /// Worker threads in the shared work-stealing pool all campaigns
    /// execute on; 0 uses the hardware concurrency.
    int poolThreads = 0;
    /// Inbox scan and stop-check interval. A campaign that finishes
    /// wakes serve() at once, so its slot is reaped and handed to the
    /// next queued submission without waiting for this poll.
    double pollSeconds = 0.2;
    /// Retry policy applied to every campaign's tasks.
    util::RetryPolicy retry;
    /// Drain signal: cancel it and serve() stops admitting, cancels
    /// running campaigns at their next batch boundary (they remain
    /// resumable in active/) and returns. Inert by default.
    util::CancelToken stop;
    /// When > 0, serve() also returns once this many campaigns reached
    /// a terminal state (completed or failed; rejections do not count)
    /// and none are running - a bounded batch mode for tests and smoke
    /// runs. Batch mode also returns when the service goes fully idle
    /// (nothing running, queued, or newly scanned), so a restart over
    /// an already-finished root exits instead of waiting forever; drop
    /// submissions into the inbox BEFORE serving in this mode.
    int maxCampaigns = 0;
};

/** What one serve() call did. */
struct ServiceReport
{
    std::size_t admitted = 0;    ///< Campaigns started (incl. resumed).
    std::size_t completed = 0;   ///< All tasks succeeded.
    std::size_t failed = 0;      ///< Terminal failure (retries/deadline).
    std::size_t rejected = 0;    ///< Invalid submissions turned away.
    std::size_t interrupted = 0; ///< Cancelled by drain; resumable.
};

/**
 * The daemon. Construct (validates config, creates the directory tree,
 * starts the shared pool), then serve() until drained.
 */
class CampaignService
{
  public:
    explicit CampaignService(const ServiceConfig &config);
    ~CampaignService();

    CampaignService(const CampaignService &) = delete;
    CampaignService &operator=(const CampaignService &) = delete;

    /**
     * Run the service loop: recover active/ submissions, then scan the
     * inbox, admit fair-share, reap finished campaigns, until the stop
     * token fires or the maxCampaigns bound is met. Blocks. Safe to
     * call once per instance.
     */
    ServiceReport serve();

    const ServiceConfig &config() const { return cfg; }

    /** The shared pool (for tests asserting scheduling behavior). */
    util::ThreadPool &pool() { return *sharedPool; }

  private:
    struct Pending;
    struct Active;

    std::string dir(const std::string &sub) const;
    void writeStatus(Pending &pending, const std::string &state,
                     const std::string &detail);
    void scanInbox(ServiceReport &report);
    void recoverActive(ServiceReport &report);
    void enqueue(std::unique_ptr<Pending> pending);
    void admitFairShare(ServiceReport &report);
    bool reapFinished(ServiceReport &report);
    void finalize(Active &campaign, ServiceReport &report);
    bool anyFinished() const;

    ServiceConfig cfg;
    std::unique_ptr<util::ThreadPool> sharedPool;
    /// FIFO queue per tenant; admission rotates across tenants.
    std::map<std::string, std::deque<std::unique_ptr<Pending>>> queues;
    std::string rrCursor; ///< Last tenant admitted (round-robin state).
    std::vector<std::unique_ptr<Active>> active;
    int admissionCounter = 0; ///< Global admission order stamp.
    std::size_t queuedCount = 0;
    bool served = false;
    /// A campaign thread sets its Active::done under this mutex and
    /// notifies campaignFinished; serve() waits on it between polls.
    std::mutex finishedMutex;
    std::condition_variable campaignFinished;
};

} // namespace autopilot::runner

#endif // AUTOPILOT_RUNNER_SERVICE_H
