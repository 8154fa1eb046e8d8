#include "timed_backend.h"

#include <chrono>
#include <utility>

#include "util/telemetry.h"

namespace perfbench
{

namespace dse = autopilot::dse;

namespace
{

/** Times one call into the inner backend and books it on exit. */
class CallTimer
{
  public:
    explicit CallTimer(std::size_t points)
        : points(points), span("perfbench.backend", "perfbench"),
          start(std::chrono::steady_clock::now())
    {
    }

    ~CallTimer()
    {
        const auto elapsed = std::chrono::steady_clock::now() - start;
        BackendLedger &ledger = backendLedger();
        ledger.calls.fetch_add(1, std::memory_order_relaxed);
        ledger.points.fetch_add(points, std::memory_order_relaxed);
        ledger.busyNs.fetch_add(
            static_cast<std::uint64_t>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    elapsed)
                    .count()),
            std::memory_order_relaxed);
    }

    CallTimer(const CallTimer &) = delete;
    CallTimer &operator=(const CallTimer &) = delete;

  private:
    std::size_t points;
    autopilot::util::TraceSpan span;
    std::chrono::steady_clock::time_point start;
};

template <typename Backend>
void
registerWrapped(const char *name)
{
    dse::BackendRegistry::instance().registerFactory(
        name, [](const dse::BackendContext &context) {
            return std::make_unique<TimedBackend>(
                std::make_unique<Backend>(context));
        });
}

} // namespace

void
BackendLedger::reset()
{
    calls.store(0, std::memory_order_relaxed);
    points.store(0, std::memory_order_relaxed);
    busyNs.store(0, std::memory_order_relaxed);
}

BackendLedger &
backendLedger()
{
    static BackendLedger ledger;
    return ledger;
}

TimedBackend::TimedBackend(std::unique_ptr<dse::EvalBackend> inner)
    : inner(std::move(inner))
{
}

std::string
TimedBackend::name() const
{
    return inner->name();
}

dse::Fidelity
TimedBackend::fidelity() const
{
    return inner->fidelity();
}

dse::Evaluation
TimedBackend::evaluate(const dse::DesignPoint &point)
{
    const CallTimer timer(1);
    return inner->evaluate(point);
}

void
TimedBackend::evaluateBatch(std::span<const dse::DesignPoint> points,
                            autopilot::util::ThreadPool *pool,
                            const CommitFn &commit)
{
    const CallTimer timer(points.size());
    inner->evaluateBatch(points, pool, commit);
}

void
TimedBackend::warmStart(std::span<const dse::Evaluation> replayed)
{
    inner->warmStart(replayed);
}

void
installTimedBackends()
{
    // Mirrors the built-in factories of dse::BackendRegistry one for
    // one; the registry exposes no way to fetch a factory back.
    registerWrapped<dse::AnalyticalBackend>("analytical");
    registerWrapped<dse::QuantizedBackend>("quantized");
    registerWrapped<dse::CycleBackend>("cycle");
    registerWrapped<dse::TieredBackend>("tiered");
    registerWrapped<dse::ContentionBackend>("contention");
    registerWrapped<dse::DramBackend>("dram");
}

} // namespace perfbench
