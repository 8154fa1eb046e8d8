/**
 * @file
 * Pluggable cost-model backends for the Phase 2 evaluator.
 *
 * The paper treats the architectural simulator as a swappable black box
 * (Section III-B: "SCALE-Sim-style" performance plus CACTI/Micron-style
 * power); this layer makes the swap a string. A backend turns one
 * DesignPoint into one Evaluation; the DseEvaluator owns exactly one
 * backend and routes every cache miss through it, so the memoization,
 * batching and determinism machinery is shared by all cost models.
 *
 * Six registry names map onto two engines and one composition
 * (DESIGN.md section 9):
 *
 *  - AnalyticalBackend: closed-form AnalyticalEngine + NPU/SoC power
 *    stack, serving "analytical" (the default) and "quantized", which
 *    differ only in the archived backend name.
 *  - CycleBackend: cycle-stepped CycleEngine + the same power stack
 *    under a MemoryModel fixed at construction: "cycle" (ideal),
 *    "contention" (derated) or "dram" (banked).
 *  - TieredBackend ("tiered"): an analytical screen of every point plus
 *    CycleBackend verification of the Pareto-competitive ones; each
 *    Evaluation records which fidelity produced its archived numbers.
 *
 * Determinism: analytical and cycle evaluations are pure functions of
 * the design point. The tiered promotion decision is stateful (it
 * depends on every point screened before), so TieredBackend makes all
 * promotion decisions serially in request order inside evaluateBatch();
 * for a fixed request sequence - e.g. a seeded optimizer loop - results
 * are byte-identical at any worker-thread count.
 *
 * Telemetry: the DseEvaluator counts "dse.backend.<name>.points"; the
 * tiered backend counts "dse.tiered.screened" / "dse.tiered.promoted"
 * under a "dse.tiered.screen" span. The analytical batch path works in
 * SoA chunks, so its "dse.simulate" spans and "dse.simulate_s" /
 * "dse.screen_s" samples cover up to 32 points each; the cycle backend
 * keeps per-point samples.
 */

#ifndef AUTOPILOT_DSE_EVAL_BACKEND_H
#define AUTOPILOT_DSE_EVAL_BACKEND_H

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "airlearning/database.h"
#include "dram/bank_model.h"
#include "dram/config.h"
#include "dse/design_space.h"
#include "dse/evaluation.h"
#include "systolic/contention.h"
#include "util/thread_pool.h"

namespace autopilot::dse
{

class HypervolumeGain;

/** Everything a backend needs besides the design point itself. */
struct BackendContext
{
    /// Phase 1 policy database; must contain a record for every
    /// hyperparameter combination the backend will be asked about.
    const airlearning::PolicyDatabase *database = nullptr;
    /// Deployment scenario being designed for.
    airlearning::ObstacleDensity density =
        airlearning::ObstacleDensity::Low;
    /// Background DRAM traffic sharing the NPU's channel. Read by the
    /// derated memory model ("contention" and the tiered verify tier);
    /// the default (empty) profile keeps every result untouched.
    systolic::ContentionProfile contention;
    /// Bank-level DRAM channel description (timing + traffic
    /// generators). Read by the banked memory model ("dram" and, when
    /// enabled, the tiered verify tier); the default (no generators)
    /// keeps every result untouched. Mutually exclusive with a
    /// non-empty contention profile - the two encode the same
    /// background traffic at different fidelities, and billing it
    /// twice (flat derate + simulated interference) would double-charge
    /// latency and power.
    dram::DramSpec dram;
};

/** Abstract cost model: DesignPoint -> Evaluation. */
class EvalBackend
{
  public:
    /// Delivers the result for one batch index; may be invoked from
    /// pool workers concurrently, exactly once per index.
    using CommitFn = std::function<void(std::size_t, Evaluation &&)>;

    virtual ~EvalBackend() = default;

    /** Registry key ("analytical", "cycle", "tiered", ...). */
    virtual std::string name() const = 0;

    /** Fidelity of the numbers this backend archives. */
    virtual Fidelity fidelity() const = 0;

    /**
     * Evaluate one design point. The returned Evaluation carries every
     * field except the encoding (backends deal in decoded points; the
     * caller owns the encoding). Pure for the stateless backends;
     * thread-safe for all of them.
     */
    virtual Evaluation evaluate(const DesignPoint &point) = 0;

    /**
     * Evaluate a batch, committing each result as it becomes ready.
     *
     * The default implementation runs evaluate() for every point via
     * util::parallel_for on @p pool (serially when null), wrapped in
     * the per-point "dse.simulate" span and "dse.simulate_s" histogram.
     * Stateful backends override this to sequence their cross-point
     * decisions deterministically (see TieredBackend).
     */
    virtual void evaluateBatch(std::span<const DesignPoint> points,
                               util::ThreadPool *pool,
                               const CommitFn &commit);

    /**
     * Rebuild internal state from a replayed evaluation journal before
     * a resumed run re-enters the optimizer loop. @p replayed holds
     * every journaled evaluation in original request order - a strict
     * prefix of the interrupted run, because the journal commits whole
     * batches in request order. No-op for stateless backends; the
     * tiered backend re-screens the prefix to restore its analytical
     * front, counters and adaptive error statistics to byte-identical
     * values, so a resumed run promotes exactly as the uninterrupted
     * one would.
     */
    virtual void warmStart(std::span<const Evaluation> replayed);
};

/**
 * String-keyed backend factory registry.
 *
 * The six in-tree names (analytical, quantized, cycle, contention,
 * dram, tiered) are pre-registered; anything else (a remote simulator
 * shim, a test double) plugs in through registerFactory() and becomes
 * reachable from TaskSpec::backend without touching the evaluator.
 */
class BackendRegistry
{
  public:
    using Factory = std::function<std::unique_ptr<EvalBackend>(
        const BackendContext &)>;

    /** The process-wide registry (built-ins already registered). */
    static BackendRegistry &instance();

    /** Register (or replace) the factory for @p name. Thread-safe. */
    void registerFactory(const std::string &name, Factory factory);

    /** True when a factory for @p name exists. Thread-safe. */
    bool knows(const std::string &name) const;

    /** Registered names, sorted. Thread-safe. */
    std::vector<std::string> names() const;

    /**
     * Instantiate the backend registered under @p name (fatal on an
     * unknown name, listing the registered ones). Thread-safe.
     */
    std::unique_ptr<EvalBackend> create(const std::string &name,
                                        const BackendContext &context) const;

  private:
    BackendRegistry();

    mutable std::mutex mutex;
    std::map<std::string, Factory> factories;
};

/** Shorthand for BackendRegistry::instance().create(). */
std::unique_ptr<EvalBackend> makeBackend(const std::string &name,
                                         const BackendContext &context);

/**
 * Closed-form engine + power stack (the historical compute() path).
 *
 * evaluate() is the scalar reference implementation (fresh
 * AnalyticalEngine per point, exactly the pre-batch-kernel sequence).
 * evaluateBatch() runs the raw-speed path instead: points are grouped
 * by policy, each group costed against a cached
 * systolic::CompiledModelPlan by the SoA batch kernel with per-worker
 * thread-local util::Arena scratch, then lowered through the batched
 * power entry point - bit-identical to the scalar path by construction
 * and pinned by test_batch_kernel.cc / test_backends.cc.
 */
class AnalyticalBackend : public EvalBackend
{
  public:
    explicit AnalyticalBackend(const BackendContext &context);
    ~AnalyticalBackend() override;

    std::string name() const override { return registryName; }
    Fidelity fidelity() const override { return Fidelity::Analytical; }
    Evaluation evaluate(const DesignPoint &point) override;
    void evaluateBatch(std::span<const DesignPoint> points,
                       util::ThreadPool *pool,
                       const CommitFn &commit) override;

    /**
     * The batch path with screening instrumentation: identical results
     * to evaluateBatch(), but chunk timings go to @p screen_hist and the
     * per-chunk trace spans are named "dse.screen". Used by
     * TieredBackend's screen tier so the tiered pipeline rides the same
     * SoA kernel.
     */
    void screenBatch(std::span<const DesignPoint> points,
                     util::ThreadPool *pool, std::span<Evaluation> out,
                     util::Histogram *screen_hist);

  protected:
    /// The same backend archived under another registry name.
    AnalyticalBackend(const BackendContext &context, std::string name);

  private:
    struct PlanCache;

    void batchEvaluate(std::span<const DesignPoint> points,
                       util::ThreadPool *pool, const CommitFn &commit,
                       util::Histogram *chunk_hist,
                       const char *span_name);

    BackendContext ctx;
    std::string registryName;
    /// Compiled plans per policy (<= |PolicySpace| = 27 entries),
    /// built on first use behind a mutex.
    std::unique_ptr<PlanCache> plans;
};

/**
 * "quantized": AnalyticalBackend under the name a precision-axis run
 * archives. Pair it with TaskSpec::precisions to widen the 8th design
 * dimension; with the default int8-only axis it is bit-identical to
 * "analytical" except for the backend column.
 */
class QuantizedBackend : public AnalyticalBackend
{
  public:
    explicit QuantizedBackend(const BackendContext &context)
        : AnalyticalBackend(context, "quantized")
    {
    }
};

/** How a CycleBackend's DRAM channel serves the NPU's fetches. */
enum class MemoryModel
{
    Ideal,   ///< The NPU owns the channel ("cycle").
    Derated, ///< Bandwidth derated by BackendContext::contention, whose
             ///< bytes/s are charged to DRAM power ("contention").
    Banked,  ///< Bank-level channel shared with BackendContext::dram's
             ///< generators ("dram").
};

/**
 * Cycle-stepped engine + the same power stack, under one memory model
 * fixed for the backend's lifetime.
 *
 * evaluate() runs a systolic::CycleEngine over the derated profile
 * (empty unless Derated), or a dram::DramCycleEngine over the DramSpec
 * when Banked, then the shared success-rate and power tail once. With
 * generators the banked engine interleaves every NPU burst with the
 * background streams per bank, and DRAM power is billed from the
 * simulated command counts INSTEAD of a flat bytes/s surcharge, so the
 * background is charged once. Without generators, or Derated with an
 * empty profile, the numbers equal the ideal path bit for bit. Derated
 * rows record the profile's bytes/s and command-counted rows the
 * channel tag, so a journaled run resumes under the memory it was
 * written with. Pure per point: byte-identical at any thread count.
 *
 * Telemetry: Derated batches set "dse.backend.contention.background_bps".
 * Command-counted evaluations open "dram.gen.<name>" spans and add to
 * the "dse.dram.*" command counters; their batches set
 * "dse.dram.hit_rate_ppm".
 */
class CycleBackend : public EvalBackend
{
  public:
    explicit CycleBackend(const BackendContext &context,
                          MemoryModel memory = MemoryModel::Ideal);

    /** "cycle", "contention" or "dram", by memory model. */
    std::string name() const override;
    /** BankAccurate on a banked spec with generators, else
     * CycleAccurate. */
    Fidelity fidelity() const override;
    Evaluation evaluate(const DesignPoint &point) override;
    void evaluateBatch(std::span<const DesignPoint> points,
                       util::ThreadPool *pool,
                       const CommitFn &commit) override;

    /** Channel counters accumulated across every command-counted
     * evaluation since construction (monotonic; thread-safe). */
    dram::ChannelStats commandTotals() const;
    std::int64_t rowHits() const { return commandTotals().rowHits; }
    std::int64_t rowMisses() const { return commandTotals().rowMisses; }
    std::int64_t rowConflicts() const
    {
        return commandTotals().rowConflicts;
    }
    std::int64_t refreshes() const { return commandTotals().refreshes; }
    std::int64_t activates() const { return commandTotals().activates; }
    std::int64_t channelBytes() const
    {
        return commandTotals().totalBytes();
    }

  private:
    void countCommands(const dram::ChannelStats &stats);

    BackendContext ctx;
    MemoryModel memory;
    /// Banked over a spec with generators: the only case that bills
    /// DRAM power from simulated command counts.
    bool commandCounted;
    /// The profile the engine derates by: ctx.contention when Derated,
    /// else empty.
    systolic::ContentionProfile engineProfile;
    /// Stable per-generator trace-span names ("dram.gen.<name>");
    /// TraceSpan keeps the char pointer, so the strings must outlive
    /// every span.
    std::vector<std::string> genSpanNames;
    mutable std::mutex totalsMutex;
    dram::ChannelStats totals;
};

/** "contention": CycleBackend over the derated memory model. */
class ContentionBackend : public CycleBackend
{
  public:
    explicit ContentionBackend(const BackendContext &context)
        : CycleBackend(context, MemoryModel::Derated)
    {
    }
};

/** "dram": CycleBackend over the banked memory model. */
class DramBackend : public CycleBackend
{
  public:
    explicit DramBackend(const BackendContext &context)
        : CycleBackend(context, MemoryModel::Banked)
    {
    }
};

/** Tiered-promotion policy knobs. */
struct TieredPolicy
{
    /**
     * Relative hypervolume-contribution band. A screened point is
     * promoted to cycle-accurate re-evaluation when its analytical
     * objectives, improved componentwise by this fraction, still
     * contribute hypervolume against the running analytical front
     * (batch already absorbed) - i.e. the point is on the front or
     * within the band behind it. Must be positive: the relaxation is
     * also what lets a front member pass against its own front entry.
     * Wide enough to cover the analytical engine's timing error so
     * true front members are not screened out; the default tracks the
     * engine-validation p95 error (~1-2 %, see
     * bench_engine_validation) with margin.
     */
    double promotionBand = 0.02;
    /// Reference point for the contribution test ({1 - success, watts,
    /// ms}, minimized). Points entirely outside the box are never
    /// promoted - matching the OptimizerConfig default, which gives
    /// designs hotter than ~12 W or slower than ~120 ms no credit.
    Objectives referencePoint = {1.0, 12.0, 120.0};

    /**
     * Adaptive band: re-tune the promotion band from the analytical
     * engine's *measured* error during the run instead of trusting the
     * static default. Every promotion yields a free error sample (the
     * same point costed by both engines); after each batch the band is
     * set to errorMargin x the mean relative latency error observed so
     * far, clamped to [minBand, maxBand]. An optimistic analytical
     * model widens the band (so true front members near the boundary
     * are not screened out); an accurate one narrows it (fewer wasted
     * cycle-accurate runs). Deterministic: errors fold in request
     * order, so the band trajectory is byte-identical at any thread
     * count and across kill/resume (warmStart() reconstructs it from
     * the journal).
     */
    bool adaptive = false;
    double minBand = 0.005;  ///< Adaptive clamp floor.
    double maxBand = 0.10;   ///< Adaptive clamp ceiling.
    double errorMargin = 2.0; ///< Band = margin x mean observed error.
};

/**
 * Analytical screen + selective cycle-accurate verification.
 *
 * Batch flow: (1) screen every point analytically in parallel (pure);
 * (2) serially, absorb the whole batch into the running analytical
 * Pareto front, then test each screened point against that front and
 * mark the competitive ones for promotion (deciding after absorption
 * keeps an immature early-batch front from over-promoting);
 * (3) re-evaluate the promoted points on the cycle engine in
 * parallel. Non-promoted points archive their analytical numbers with
 * Fidelity::Analytical; promoted ones archive cycle numbers with
 * Fidelity::CycleAccurate - so downstream consumers always know which
 * cost model produced each row.
 *
 * Step (2) is the only stateful step and is sequenced on the calling
 * thread, so a fixed request sequence yields byte-identical results at
 * any thread count. Concurrent callers are serialized by a mutex but
 * their interleaving is then caller-determined.
 */
class TieredBackend : public EvalBackend
{
  public:
    TieredBackend(const BackendContext &context,
                  const TieredPolicy &policy = {});

    std::string name() const override { return "tiered"; }
    Fidelity fidelity() const override { return Fidelity::Mixed; }
    Evaluation evaluate(const DesignPoint &point) override;
    void evaluateBatch(std::span<const DesignPoint> points,
                       util::ThreadPool *pool,
                       const CommitFn &commit) override;

    /**
     * Restore the analytical front, screen/promotion counters and
     * adaptive error statistics from a journal prefix by re-screening
     * every replayed point (pure, cheap) in journal order. Rows that
     * were promoted (any non-analytical fidelity) contribute their
     * journaled cycle numbers to the adaptive error fold, so the band
     * trajectory resumes byte-identically without re-running the cycle
     * engine.
     */
    void warmStart(std::span<const Evaluation> replayed) override;

    const TieredPolicy &policy() const { return tierPolicy; }

    /** Points screened / promoted so far (monotonic). Thread-safe. */
    std::size_t screenedCount() const;
    std::size_t promotedCount() const;

    /** The promotion band currently in force (== policy().promotionBand
     * unless adaptive). Thread-safe. */
    double currentBand() const;

  private:
    /// Fold one screened objective vector into the running analytical
    /// front. Caller holds stateMutex.
    void absorb(const Objectives &screened);

    /// Band-relaxed hypervolume-contribution test against the running
    /// front, which @p frontGain was built from. Caller holds
    /// stateMutex.
    bool shouldPromote(const HypervolumeGain &frontGain,
                       const Objectives &screened) const;

    /// Fold one promoted point's analytical-vs-cycle relative latency
    /// error and re-derive the adaptive band. Caller holds stateMutex.
    void foldError(double analyticalLatencyMs, double cycleLatencyMs);

    AnalyticalBackend screen;
    /// The verify tier: banked when the context's DramSpec is enabled
    /// (only knee-adjacent promoted designs pay bank-level simulation),
    /// else derated by the context's contention profile - which with
    /// the default empty profile is the ideal cycle path. Promoted rows
    /// archive the verify tier's fidelity (BankAccurate or
    /// CycleAccurate).
    CycleBackend verify;
    TieredPolicy tierPolicy;

    mutable std::mutex stateMutex;
    /// Non-dominated analytical objectives seen so far.
    std::vector<Objectives> analyticalFront;
    std::size_t screened_ = 0;
    std::size_t promoted_ = 0;
    /// Band in force; tracks the adaptive fold, else the static policy.
    double band_;
    double errorSum_ = 0.0;      ///< Sum of relative latency errors.
    std::size_t errorCount_ = 0; ///< Promotions folded so far.
};

} // namespace autopilot::dse

#endif // AUTOPILOT_DSE_EVAL_BACKEND_H
