#include "dse/evaluator.h"

#include "dse/eval_backend.h"
#include "util/logging.h"
#include "util/telemetry.h"

namespace autopilot::dse
{

DseEvaluator::DseEvaluator(const airlearning::PolicyDatabase &database,
                           airlearning::ObstacleDensity density,
                           const std::string &backend,
                           const systolic::ContentionProfile &contention,
                           const dram::DramSpec &dram,
                           const std::vector<int> &precisions)
    : DseEvaluator(database, density,
                   makeBackend(backend, BackendContext{&database,
                                                       density,
                                                       contention,
                                                       dram}),
                   precisions)
{
}

DseEvaluator::DseEvaluator(const airlearning::PolicyDatabase &database,
                           airlearning::ObstacleDensity density,
                           std::unique_ptr<EvalBackend> backend,
                           const std::vector<int> &precisions)
    : policyDb(database), scenario(density), designSpace(precisions),
      evalBackend(std::move(backend))
{
    util::fatalIf(evalBackend == nullptr,
                  "DseEvaluator: backend must not be null");
}

DseEvaluator::~DseEvaluator() = default;

std::string
DseEvaluator::backendName() const
{
    return evalBackend->name();
}

DseEvaluator::Shard &
DseEvaluator::shardFor(const Encoding &encoding)
{
    return shards[hashEncoding(encoding) % shardCount];
}

const DseEvaluator::Shard &
DseEvaluator::shardFor(const Encoding &encoding) const
{
    return shards[hashEncoding(encoding) % shardCount];
}

const Evaluation &
DseEvaluator::evaluate(const Encoding &encoding)
{
    return *evaluateBatch(std::span<const Encoding>(&encoding, 1))
                .front()
                .evaluation;
}

void
DseEvaluator::countBackendPoints(std::span<const DesignPoint> points) const
{
    util::MetricsRegistry &metrics = util::Telemetry::instance().metrics();
    metrics.counter("dse.backend." + evalBackend->name() + ".points")
        .add(points.size());
    if (!designSpace.precisionAxisEnabled())
        return;
    // Per-precision spread of the batch: how the search splits its
    // budget across the int8/fp16/fp32 axis.
    std::map<int, std::uint64_t> perWidth;
    for (const DesignPoint &point : points)
        ++perWidth[point.accel.bytesPerElement];
    for (const auto &[width, count] : perWidth) {
        metrics
            .counter("dse.quantized." + systolic::precisionName(width) +
                     ".points")
            .add(count);
    }
}

std::vector<BatchResult>
DseEvaluator::evaluateBatch(std::span<const Encoding> encodings)
{
    // Batch-boundary cancellation: checked before any reservation, so
    // a cancelled batch leaves no half-claimed nodes and the journal
    // (fed whole batches via the sink below) stays a clean prefix.
    cancelToken.check("dse::evaluateBatch");

    util::Telemetry &telemetry = util::Telemetry::instance();
    const bool telemetry_on = telemetry.enabled();
    util::TraceSpan batch_span("dse.evaluateBatch", "dse");

    std::vector<BatchResult> results(encodings.size());

    // --- Key-build pass: hash every encoding once up front ---
    // The reservation, commit and completion passes all need the
    // encoding's shard; hoisting the hash out of those loops computes
    // it once per request instead of three-plus times. The
    // "dse.cache.key_build_s" histogram prices the hoisted work.
    std::vector<std::size_t> shardIdx(encodings.size());
    {
        util::ScopedTimer key_timer(
            telemetry_on && !encodings.empty()
                ? &telemetry.metrics().histogram("dse.cache.key_build_s")
                : nullptr);
        for (std::size_t i = 0; i < encodings.size(); ++i)
            shardIdx[i] = hashEncoding(encodings[i]) % shardCount;
    }

    // --- Reservation pass (request order, on the calling thread) ---
    // First occurrence of an uncached key inserts a not-yet-ready node
    // and claims it for this batch; everything else is a cache hit
    // (possibly on a node another thread is still simulating). Doing
    // this serially in request order is what makes the evaluation-order
    // sequence - and therefore allEvaluations() - deterministic for a
    // fixed request sequence.
    /// One batch claim: the node plus its precomputed shard index, so
    /// the commit callback never re-hashes the encoding.
    struct Claim
    {
        Node *node;
        std::size_t shard;
    };
    std::vector<Claim> claimed; // Ours to simulate, in request order.
    for (std::size_t i = 0; i < encodings.size(); ++i) {
        Shard &shard = shards[shardIdx[i]];
        std::lock_guard<std::mutex> lock(shard.mutex);
        auto it = shard.entries.find(encodings[i]);
        if (it == shard.entries.end()) {
            auto node = std::make_unique<Node>();
            node->evaluation.encoding = encodings[i];
            Node *raw = node.get();
            {
                std::lock_guard<std::mutex> orderLock(orderMutex);
                raw->sequence = evaluationOrder.size();
                evaluationOrder.push_back(raw);
            }
            shard.entries.emplace(encodings[i], std::move(node));
            claimed.push_back({raw, shardIdx[i]});
            results[i] = {&raw->evaluation, true};
            missCount.fetch_add(1, std::memory_order_relaxed);
        } else {
            Node *node = it->second.get();
            // A preloaded (journal-replayed) node is fresh on its
            // first hit: the resumed optimizer must spend budget on it
            // at the same step the uninterrupted run did. Still a
            // cache hit - no simulation happens.
            bool fresh = false;
            if (node->replayFresh) {
                node->replayFresh = false;
                fresh = true;
            }
            results[i] = {&node->evaluation, fresh};
            hitCount.fetch_add(1, std::memory_order_relaxed);
        }
    }
    if (telemetry_on && !encodings.empty()) {
        // Route the cache traffic through the registry at the same
        // granularity as the atomics, so the exported metrics CSV always
        // agrees with cacheStats().
        telemetry.metrics()
            .counter("dse.cache.miss")
            .add(claimed.size());
        telemetry.metrics()
            .counter("dse.cache.hit")
            .add(encodings.size() - claimed.size());
    }

    // --- Simulation pass (delegated to the cost-model backend) ---
    // The backend computes each claimed point (fanning out over the
    // pool as it sees fit) and commits results as they become ready;
    // the commit publishes the node so waiters on other threads can
    // proceed before the whole batch finishes.
    if (!claimed.empty()) {
        std::vector<DesignPoint> points;
        points.reserve(claimed.size());
        for (const Claim &claim : claimed)
            points.push_back(
                designSpace.decode(claim.node->evaluation.encoding));
        if (telemetry_on)
            countBackendPoints(points);
        evalBackend->evaluateBatch(
            points, workers,
            [this, &claimed](std::size_t i, Evaluation &&evaluation) {
                Node *node = claimed[i].node;
                evaluation.encoding = node->evaluation.encoding;
                evaluation.scenario = scenarioTag;
                // Label the operand width only when the axis is
                // searchable: the "-" default selects the legacy
                // archive layout, keeping single-precision runs
                // byte-identical on disk.
                if (designSpace.precisionAxisEnabled()) {
                    evaluation.precision = systolic::precisionName(
                        evaluation.point.accel.bytesPerElement);
                }
                Shard &shard = shards[claimed[i].shard];
                {
                    std::lock_guard<std::mutex> lock(shard.mutex);
                    node->evaluation = std::move(evaluation);
                    node->ready.store(true, std::memory_order_release);
                }
                shard.ready.notify_all();
            });
    }

    // --- Completion pass: wait out other threads' in-flight nodes ---
    // Our own claims are ready after the backend batch returns; a hit
    // on a node claimed by a concurrent batch may still be simulating.
    for (std::size_t i = 0; i < encodings.size(); ++i) {
        Shard &shard = shards[shardIdx[i]];
        std::unique_lock<std::mutex> lock(shard.mutex);
        auto it = shard.entries.find(encodings[i]);
        Node *node = it->second.get();
        if (!node->ready.load(std::memory_order_acquire)) {
            inflightWaitCount.fetch_add(1, std::memory_order_relaxed);
            if (telemetry_on) {
                telemetry.metrics()
                    .counter("dse.cache.inflight_wait")
                    .add();
            }
            shard.ready.wait(lock, [node] {
                return node->ready.load(std::memory_order_acquire);
            });
        }
    }

    // --- Journal hook: offer the batch's own simulations, whole and
    // in request order, only after every one has committed ---
    if (journalSink && !claimed.empty()) {
        std::vector<Evaluation> committed;
        committed.reserve(claimed.size());
        for (const Claim &claim : claimed)
            committed.push_back(claim.node->evaluation);
        journalSink(committed);
    }

    return results;
}

void
DseEvaluator::preload(std::span<const Evaluation> evaluations)
{
    // The backend restores its cross-point state (tiered front,
    // adaptive band) from the same prefix the cache is loaded from.
    evalBackend->warmStart(evaluations);
    for (const Evaluation &evaluation : evaluations) {
        // Re-encode through THIS evaluator's space so cache keys are
        // normalized: a journal archives 7 encoding columns plus a
        // precision label, and the label's index depends on the
        // configured precision set. encode() also rejects (fatal, with
        // the dimension named) any replayed point outside the space -
        // the fingerprint gate upstream makes that unreachable in
        // normal operation.
        const Encoding key = designSpace.encode(evaluation.point);
        Shard &shard = shardFor(key);
        std::lock_guard<std::mutex> lock(shard.mutex);
        if (shard.entries.count(key) != 0)
            continue; // First replayed row wins; the rest are hits.
        auto node = std::make_unique<Node>();
        node->evaluation = evaluation;
        node->evaluation.encoding = key;
        node->replayFresh = true;
        {
            std::lock_guard<std::mutex> orderLock(orderMutex);
            node->sequence = evaluationOrder.size();
            evaluationOrder.push_back(node.get());
        }
        node->ready.store(true, std::memory_order_release);
        shard.entries.emplace(key, std::move(node));
    }
}

void
DseEvaluator::setJournalSink(
    std::function<void(std::span<const Evaluation>)> sink)
{
    journalSink = std::move(sink);
}

std::size_t
DseEvaluator::evaluationCount() const
{
    // Count only completed simulations, mirroring allEvaluations():
    // nodes reserved by another thread's in-flight batch are excluded
    // from both, so the two views always reconcile.
    std::lock_guard<std::mutex> lock(orderMutex);
    std::size_t ready = 0;
    for (const Node *node : evaluationOrder) {
        if (node->ready.load(std::memory_order_acquire))
            ++ready;
    }
    return ready;
}

std::size_t
DseEvaluator::reservedCount() const
{
    std::lock_guard<std::mutex> lock(orderMutex);
    return evaluationOrder.size();
}

std::vector<Evaluation>
DseEvaluator::allEvaluations() const
{
    std::vector<const Node *> snapshot;
    {
        std::lock_guard<std::mutex> lock(orderMutex);
        snapshot = evaluationOrder;
    }
    std::vector<Evaluation> all;
    all.reserve(snapshot.size());
    for (const Node *node : snapshot) {
        // Skip nodes another thread is still simulating; completed
        // entries keep their first-request order.
        if (node->ready.load(std::memory_order_acquire))
            all.push_back(node->evaluation);
    }
    return all;
}

CacheStats
DseEvaluator::cacheStats() const
{
    CacheStats stats;
    stats.hits = hitCount.load(std::memory_order_relaxed);
    stats.misses = missCount.load(std::memory_order_relaxed);
    stats.inflightWaits =
        inflightWaitCount.load(std::memory_order_relaxed);
    return stats;
}

} // namespace autopilot::dse
