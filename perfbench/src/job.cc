/**
 * @file
 * perfbench_job: run one workload once and print one JSON line.
 *
 *   perfbench_job --workload bo-dense|cycle-nsga2|serve-mix --seed N
 *                 --input I --threads N --dir DIR --spawn-ns NS
 *                 [--trace 0|1]
 *
 * The workload seed and the input index together pick the task seeds
 * (one pipeline, or six service submissions).
 *
 * --spawn-ns is the CLOCK_MONOTONIC time (ns) at which the caller
 * started this process; setup_s runs from there to the first call into
 * the job. With --trace 1 the run enables util::Telemetry, wraps every
 * backend in a TimedBackend, records spans around its own calls into
 * each layer, writes DIR/trace.json and adds a "layers" object to the
 * line. perfbench/run.py drives this binary; see perfbench/README.md.
 */

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "timed_backend.h"
#include "util/telemetry.h"
#include "workloads.h"

namespace
{

namespace core = autopilot::core;
namespace util = autopilot::util;
namespace fs = std::filesystem;
using perfbench::Workload;
using Clock = std::chrono::steady_clock;

std::int64_t
monotonicNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

double
seconds(Clock::duration d)
{
    return std::chrono::duration<double>(d).count();
}

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "perfbench_job: " << why
              << "\nusage: perfbench_job --workload NAME --seed N --input I "
                 "--threads N --dir DIR --spawn-ns NS [--trace 0|1]\n";
    std::exit(2);
}

/** The layer a span name belongs to; empty for spans we do not map. */
std::string
layerOf(const std::string &name)
{
    if (name == "perfbench.phase1" || name == "phase1")
        return "airlearning";
    if (name == "perfbench.phase2" || name == "phase2")
        return "dse.optimizer";
    if (name == "dse.evaluateBatch")
        return "dse.evaluator";
    if (name == "perfbench.backend")
        return "dse.backend";
    if (name == "perfbench.phase3" || name == "phase3")
        return "core";
    if (name == "perfbench.serve")
        return "runner";
    return {};
}

/** Per-layer span time: outermost totals and self time, in seconds. */
struct LayerTimes
{
    std::map<std::string, double> total;
    std::map<std::string, double> self;
};

/**
 * A span's parent is the innermost mapped span on the same thread that
 * encloses it. Self time is a span's duration minus its children's;
 * a layer's total counts only spans whose parent is another layer.
 */
LayerTimes
layerTimes(const std::vector<util::TraceEvent> &events)
{
    struct Span
    {
        int tid;
        std::int64_t start, end;
        std::string layer;
    };
    std::vector<Span> spans;
    for (const util::TraceEvent &event : events) {
        std::string layer = layerOf(event.name);
        if (!layer.empty())
            spans.push_back({event.tid, event.startUs,
                             event.startUs + event.durationUs,
                             std::move(layer)});
    }
    std::sort(spans.begin(), spans.end(), [](const Span &a, const Span &b) {
        if (a.tid != b.tid)
            return a.tid < b.tid;
        if (a.start != b.start)
            return a.start < b.start;
        return a.end > b.end; // Enclosing span first.
    });

    LayerTimes times;
    std::vector<const Span *> stack;
    for (const Span &span : spans) {
        while (!stack.empty() && (stack.back()->tid != span.tid ||
                                  stack.back()->end <= span.start))
            stack.pop_back();
        const double duration = static_cast<double>(span.end - span.start) /
                                1e6;
        times.self[span.layer] += duration;
        if (!stack.empty() && span.end <= stack.back()->end) {
            times.self[stack.back()->layer] -= duration;
            if (stack.back()->layer == span.layer) {
                stack.push_back(&span);
                continue;
            }
        }
        times.total[span.layer] += duration;
        stack.push_back(&span);
    }
    return times;
}

/** Telemetry readings by existing instrument name. */
struct Instruments
{
    const util::MetricsRegistry &metrics;

    double sum(const std::string &name) const
    {
        return metrics.find(name).sum;
    }
    double value(const std::string &name) const
    {
        return metrics.find(name).value;
    }
};

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/** Watches a service root for admissions and result files. */
class ServeWatcher
{
  public:
    ServeWatcher(std::string root, std::vector<std::string> ids)
        : root(std::move(root)), ids(std::move(ids)),
          admitted(this->ids.size(), -1.0), finished(this->ids.size(), -1.0)
    {
    }

    ServeWatcher(const ServeWatcher &) = delete;
    ServeWatcher &operator=(const ServeWatcher &) = delete;

    ~ServeWatcher() { stop(); }

    void start()
    {
        origin = Clock::now();
        thread = std::thread([this] {
            while (!stopping.load(std::memory_order_acquire)) {
                poll();
                std::this_thread::sleep_for(std::chrono::milliseconds(1));
            }
        });
    }

    void stop()
    {
        stopping.store(true, std::memory_order_release);
        if (thread.joinable())
            thread.join();
        poll(); // Anything written after the last poll.
    }

    /** Seconds from start() to each campaign's admission. */
    const std::vector<double> &admittedAt() const { return admitted; }

    /** Seconds from start() to each campaign's result file. */
    const std::vector<double> &finishedAt() const { return finished; }

  private:
    void poll()
    {
        const double now = seconds(Clock::now() - origin);
        for (std::size_t i = 0; i < ids.size(); ++i) {
            std::error_code ec;
            if (admitted[i] < 0 && fs::exists(root + "/work/" + ids[i], ec))
                admitted[i] = now;
            if (finished[i] < 0 &&
                fs::exists(root + "/results/" + ids[i] + ".result", ec))
                finished[i] = now;
        }
    }

    std::string root;
    std::vector<std::string> ids;
    std::vector<double> admitted, finished;
    Clock::time_point origin;
    std::atomic<bool> stopping{false};
    std::thread thread;
};

std::string
jsonNumber(double value)
{
    if (!std::isfinite(value))
        return "null";
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.9g", value);
    return buf;
}

std::string
jsonString(const std::string &text)
{
    std::string out = "\"";
    for (const char c : text) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += (static_cast<unsigned char>(c) < 0x20) ? ' ' : c;
    }
    return out + "\"";
}

} // namespace

int
main(int argc, char **argv)
{
    std::map<std::string, std::string> args;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        if (key.rfind("--", 0) != 0)
            usage("unexpected argument '" + key + "'");
        args[key.substr(2)] = argv[i + 1];
    }
    if (argc % 2 == 0)
        usage("every flag takes a value");
    for (const char *required :
         {"workload", "seed", "input", "threads", "dir", "spawn-ns"})
        if (!args.count(required))
            usage(std::string("missing --") + required);

    Workload workload = Workload::BoDense;
    if (!perfbench::workloadFromName(args["workload"], workload))
        usage("unknown workload '" + args["workload"] + "'");
    const std::uint64_t seed = std::stoull(args["seed"]);
    const int input = std::stoi(args["input"]);
    const int threads = std::stoi(args["threads"]);
    const std::string dir = args["dir"];
    const std::int64_t spawnNs = std::stoll(args["spawn-ns"]);
    const bool trace = args.count("trace") && args["trace"] == "1";
    if (threads < 1)
        usage("--threads must be >= 1");

    util::Telemetry &telemetry = util::Telemetry::instance();
    if (trace) {
        perfbench::installTimedBackends();
        telemetry.reset();
        telemetry.setEnabled(true);
    }
    fs::remove_all(dir);
    fs::create_directories(dir);

    perfbench::Outcome outcome;
    double setupS = 0.0;
    double wallS = 0.0;
    std::vector<double> turnaround, admitWait;
    int poolWorkers = threads;

    if (workload == Workload::ServeMix) {
        const std::string root = dir + "/service";
        const std::vector<perfbench::Submission> submissions =
            perfbench::serveMixSubmissions(seed, input);
        autopilot::runner::CampaignService service(
            perfbench::serveMixConfig(root, threads));
        perfbench::dropSubmissions(root, submissions);
        std::vector<std::string> ids;
        for (const perfbench::Submission &sub : submissions)
            ids.push_back(sub.id);
        ServeWatcher watcher(root, ids);

        setupS = static_cast<double>(monotonicNs() - spawnNs) / 1e9;
        const Clock::time_point start = Clock::now();
        watcher.start();
        autopilot::runner::ServiceReport report;
        {
            util::TraceSpan span("perfbench.serve", "perfbench");
            report = service.serve();
        }
        wallS = seconds(Clock::now() - start);
        watcher.stop();
        turnaround = watcher.finishedAt();
        admitWait = watcher.admittedAt();
        outcome = perfbench::checkServe(root, submissions, report);
    } else {
        const perfbench::PipelineJob job =
            perfbench::pipelineJob(workload, seed, input, threads);
        setupS = static_cast<double>(monotonicNs() - spawnNs) / 1e9;
        const Clock::time_point start = Clock::now();
        core::AutoPilot pilot(job.task);
        {
            util::TraceSpan span("perfbench.phase1", "perfbench");
            pilot.phase1();
        }
        {
            util::TraceSpan span("perfbench.phase2", "perfbench");
            pilot.phase2();
        }
        core::AutoPilotRun run;
        {
            util::TraceSpan span("perfbench.phase3", "perfbench");
            run = pilot.designFor(job.uav);
        }
        wallS = seconds(Clock::now() - start);
        turnaround = {wallS};
        poolWorkers = threads > 1 ? threads : 0;
        outcome = perfbench::checkPipeline(job, run);
    }

    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    const double peakRssMb = static_cast<double>(usage.ru_maxrss) / 1024.0;

    std::map<std::string, double> layers;
    if (trace) {
        telemetry.setEnabled(false);
        const LayerTimes times = layerTimes(telemetry.trace().events());
        const Instruments in{telemetry.metrics()};
        const perfbench::BackendLedger &ledger = perfbench::backendLedger();
        const double busyS =
            static_cast<double>(ledger.busyNs.load()) / 1e9;
        const double points = static_cast<double>(ledger.points.load());
        auto self = [&](const char *layer) {
            auto it = times.self.find(layer);
            return it == times.self.end() ? 0.0 : it->second;
        };
        auto total = [&](const char *layer) {
            auto it = times.total.find(layer);
            return it == times.total.end() ? 0.0 : it->second;
        };

        layers["airlearning.phase1_s"] = total("airlearning");
        layers["dse.optimize_s"] = total("dse.optimizer");
        layers["dse.optimizer.self_s"] = self("dse.optimizer");
        layers["dse.optimizer.bo_screen_s"] = in.sum("bo.screen_s");
        layers["dse.optimizer.bo_fit_s"] = in.sum("bo.fit_gp_s");
        layers["dse.optimizer.hv_update_s"] = in.sum("dse.hv_update_s");
        layers["dse.evaluator.self_s"] = self("dse.evaluator");
        const double hits = in.value("dse.cache.hit");
        const double misses = in.value("dse.cache.miss");
        layers["dse.evaluator.requests"] = hits + misses;
        layers["dse.evaluator.hit_ratio"] = ratio(hits, hits + misses);
        layers["dse.backend.busy_s"] = busyS;
        layers["dse.backend.points"] = points;
        layers["dse.backend.us_per_point"] = ratio(busyS * 1e6, points);
        layers["core.phase3_s"] = total("core");
        layers["systolic.cycle.layer_sim_s"] =
            in.sum("systolic.cycle.layer_sim_s");
        layers["systolic.sim_cycles"] =
            in.value("systolic.cycle.cycles") + in.value("systolic.cycles");
        layers["dram.layer_sim_s"] = in.sum("dram.layer_sim_s");
        layers["dram.sim_cycles"] = in.value("dram.cycles");
        const double rowHits = in.value("dse.dram.row_hits");
        layers["dram.row_hit_ratio"] =
            ratio(rowHits, rowHits + in.value("dse.dram.row_misses") +
                               in.value("dse.dram.row_conflicts"));
        layers["dse.tiered.promote_ratio"] =
            ratio(in.value("dse.tiered.promoted"),
                  in.value("dse.tiered.screened"));
        layers["util.pool.queue_wait_mean_ms"] =
            1e3 * in.value("pool.queue_wait_s");
        double workerBusyUs = 0.0;
        for (const util::MetricSample &sample :
             telemetry.metrics().snapshot()) {
            const std::string &name = sample.name;
            if (name.rfind("pool.worker.", 0) == 0 &&
                name.size() > 8 &&
                name.compare(name.size() - 8, 8, ".busy_us") == 0)
                workerBusyUs += sample.value;
        }
        layers["util.pool.busy_frac"] =
            ratio(workerBusyUs / 1e6, poolWorkers * wallS);
        layers["io.journal_rows"] = in.value("io.journal.rows");
        double journalBytes = 0.0;
        if (workload == Workload::ServeMix) {
            for (const perfbench::Submission &sub :
                 perfbench::serveMixSubmissions(seed, input)) {
                std::error_code ec;
                const auto size = fs::file_size(
                    perfbench::journalPath(dir + "/service", sub.id), ec);
                journalBytes += ec ? 0.0 : static_cast<double>(size);
            }
            double waitSum = 0.0;
            for (const double at : admitWait)
                waitSum += at;
            layers["runner.admit_wait_mean_s"] =
                ratio(waitSum, static_cast<double>(admitWait.size()));
        } else {
            layers["runner.admit_wait_mean_s"] = 0.0;
            // The pipeline runs on this thread alone, so the layers'
            // self times along it must account for the job's wall time.
            const double blocking =
                self("airlearning") + self("dse.optimizer") +
                self("dse.evaluator") + self("dse.backend") + self("core");
            layers["trace.blocking_coverage"] = ratio(blocking, wallS);
            if (std::abs(blocking / wallS - 1.0) > 0.10)
                outcome.problems.push_back(
                    "layer self times cover " +
                    jsonNumber(100.0 * blocking / wallS) +
                    "% of wall_s, outside 90-110%");
        }
        layers["io.journal_bytes"] = journalBytes;

        std::ofstream traceFile(dir + "/trace.json");
        telemetry.trace().writeChromeTrace(traceFile);
    }

    std::ostringstream os;
    os << "{\"workload\": " << jsonString(args["workload"])
       << ", \"seed\": " << seed << ", \"input\": " << input
       << ", \"threads\": " << threads
       << ", \"trace\": " << (trace ? 1 : 0)
       << ", \"digest\": " << jsonString(perfbench::hexDigest(outcome.digest))
       << ", \"setup_s\": " << jsonNumber(setupS)
       << ", \"wall_s\": " << jsonNumber(wallS)
       << ", \"peak_rss_mb\": " << jsonNumber(peakRssMb)
       << ", \"front_hv\": " << jsonNumber(outcome.frontHv)
       << ", \"selected_missions\": " << jsonNumber(outcome.selectedMissions)
       << ", \"attempted\": " << outcome.attempted
       << ", \"failed\": " << outcome.failed
       << ", \"worst_hv_dip\": " << jsonNumber(outcome.worstHvDip)
       << ", \"turnaround_s\": [";
    for (std::size_t i = 0; i < turnaround.size(); ++i)
        os << (i ? ", " : "") << jsonNumber(turnaround[i]);
    os << "], \"problems\": [";
    for (std::size_t i = 0; i < outcome.problems.size(); ++i)
        os << (i ? ", " : "") << jsonString(outcome.problems[i]);
    os << "], \"layers\": {";
    bool first = true;
    for (const auto &[name, value] : layers) {
        os << (first ? "" : ", ") << jsonString(name) << ": "
           << jsonNumber(value);
        first = false;
    }
    os << "}}";
    std::cout << os.str() << std::endl;
    return 0;
}
