/**
 * @file
 * Forwarding dse::EvalBackend that times the backend layer.
 *
 * TimedBackend owns the real backend and forwards every virtual to it
 * unchanged, so archives, journals and digests are byte-identical with
 * and without the wrapper. Around each call it records the wall time
 * the caller blocked in the backend and the number of points it asked
 * for, into one process-wide BackendLedger, and (when util::Telemetry
 * is on) a "perfbench.backend" trace span on the calling thread.
 *
 * installTimedBackends() re-registers every built-in registry name with
 * a factory that wraps the same concrete backend, so pipelines that
 * build their evaluator by name - core::AutoPilot and the campaign
 * service - receive a TimedBackend through the
 * DseEvaluator(db, density, std::unique_ptr<EvalBackend>) constructor.
 */

#ifndef PERFBENCH_TIMED_BACKEND_H
#define PERFBENCH_TIMED_BACKEND_H

#include <atomic>
#include <cstdint>
#include <memory>

#include "dse/eval_backend.h"

namespace perfbench
{

/** Process-wide totals of the backend layer. Thread-safe. */
struct BackendLedger
{
    std::atomic<std::uint64_t> calls{0};  ///< evaluate + evaluateBatch.
    std::atomic<std::uint64_t> points{0}; ///< Design points requested.
    std::atomic<std::uint64_t> busyNs{0}; ///< Caller-blocked wall time.

    void reset();
};

/** The ledger every TimedBackend records into. */
BackendLedger &backendLedger();

/** Forwards to an owned backend, timing every call. */
class TimedBackend final : public autopilot::dse::EvalBackend
{
  public:
    explicit TimedBackend(
        std::unique_ptr<autopilot::dse::EvalBackend> inner);

    std::string name() const override;
    autopilot::dse::Fidelity fidelity() const override;
    autopilot::dse::Evaluation
    evaluate(const autopilot::dse::DesignPoint &point) override;
    void evaluateBatch(std::span<const autopilot::dse::DesignPoint> points,
                       autopilot::util::ThreadPool *pool,
                       const CommitFn &commit) override;
    void warmStart(
        std::span<const autopilot::dse::Evaluation> replayed) override;

  private:
    std::unique_ptr<autopilot::dse::EvalBackend> inner;
};

/**
 * Replace every built-in backend factory in the process-wide registry
 * with one that returns the same backend wrapped in a TimedBackend.
 * Idempotent.
 */
void installTimedBackends();

} // namespace perfbench

#endif // PERFBENCH_TIMED_BACKEND_H
