#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <sstream>

#include "dse/hypervolume.h"
#include "io/journal.h"

namespace perfbench
{

namespace core = autopilot::core;
namespace dse = autopilot::dse;
namespace fs = std::filesystem;

const dse::Objectives kReference = {1.0, 12.0, 120.0};
const double kHvRounding = 1e-12;

namespace
{

/** SplitMix64 finalizer: spreads a small benchmark seed over 64 bits. */
std::uint64_t
mix(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/**
 * Task seed @p index of input @p input of workload seed @p seed, below
 * 1e9 (the largest seed a service submission accepts).
 */
int
taskSeed(std::uint64_t seed, int input, int index)
{
    return static_cast<int>(
        mix(mix(seed) + static_cast<std::uint64_t>(input) * 16 +
            static_cast<std::uint64_t>(index)) %
        1000000000);
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

bool
finite(const dse::Objectives &objectives)
{
    for (const double value : objectives)
        if (!std::isfinite(value))
            return false;
    return true;
}

} // namespace

bool
workloadFromName(const std::string &name, Workload &out)
{
    if (name == "bo-dense")
        out = Workload::BoDense;
    else if (name == "cycle-nsga2")
        out = Workload::CycleNsga2;
    else if (name == "serve-mix")
        out = Workload::ServeMix;
    else
        return false;
    return true;
}

void
Fnv::bytes(const void *data, std::size_t size)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < size; ++i) {
        hash ^= p[i];
        hash *= 0x100000001b3ULL;
    }
}

void
Fnv::text(const std::string &value)
{
    integer(static_cast<std::int64_t>(value.size()));
    bytes(value.data(), value.size());
}

void
Fnv::number(double value)
{
    std::uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof bits);
    bytes(&bits, sizeof bits);
}

void
Fnv::integer(std::int64_t value)
{
    bytes(&value, sizeof value);
}

std::string
hexDigest(std::uint64_t digest)
{
    std::ostringstream os;
    os << std::hex << std::setw(16) << std::setfill('0') << digest;
    return os.str();
}

PipelineJob
pipelineJob(Workload workload, std::uint64_t seed, int input, int threads)
{
    PipelineJob job;
    job.uav = autopilot::uav::zhangNano();
    job.task.seed = static_cast<std::uint64_t>(taskSeed(seed, input, 0));
    job.task.threads = threads;
    if (workload == Workload::BoDense) {
        job.task.density = autopilot::airlearning::ObstacleDensity::Dense;
        job.task.optimizer = "bo";
        job.task.backend = "analytical";
        job.task.dseBudget = 100;
    } else {
        job.task.density = autopilot::airlearning::ObstacleDensity::Medium;
        job.task.optimizer = "nsga2";
        job.task.backend = "cycle";
        job.task.dseBudget = 300;
    }
    return job;
}

Outcome
checkPipeline(const PipelineJob &job, const core::AutoPilotRun &run)
{
    Outcome out;
    out.attempted = 1;
    const dse::OptimizerResult &result = run.dseResult;
    Fnv fnv;
    for (const dse::Evaluation &eval : result.archive) {
        for (const int index : eval.encoding)
            fnv.integer(index);
        for (const double value : eval.objectives)
            fnv.number(value);
        fnv.number(eval.npuPowerW);
        fnv.number(eval.fps);
        fnv.text(eval.backend);
        fnv.integer(static_cast<std::int64_t>(eval.fidelity));
        if (!finite(eval.objectives))
            out.problems.push_back("non-finite objective in archive");
    }
    for (const double hv : result.hypervolumeHistory)
        fnv.number(hv);

    out.frontHv = result.finalHypervolume(kReference);
    out.selectedMissions = run.selected.missionScore();
    for (const int index : run.selected.eval.encoding)
        fnv.integer(index);
    fnv.number(out.selectedMissions);
    out.digest = fnv.value();

    const std::size_t budget =
        static_cast<std::size_t>(job.task.dseBudget);
    if (result.archive.size() != budget)
        out.problems.push_back(
            "archive holds " + std::to_string(result.archive.size()) +
            " evaluations, budget is " + std::to_string(budget));
    // hypervolume() sums slabs in floating point, so a point that only
    // splits a slab can round the total down by a few ulps; anything
    // beyond kHvRounding (relative) is a real decrease.
    const std::vector<double> &history = result.hypervolumeHistory;
    for (std::size_t i = 1; i < history.size(); ++i) {
        const double dip = (history[i - 1] - history[i]) / history[i - 1];
        out.worstHvDip = std::max(out.worstHvDip, dip);
    }
    if (out.worstHvDip > kHvRounding)
        out.problems.push_back("hypervolume history decreases by " +
                               std::to_string(out.worstHvDip) +
                               " (relative)");
    if (history.empty() || history.back() != out.frontHv)
        out.problems.push_back(
            "hypervolume history does not end at front_hv");
    if (!std::isfinite(out.selectedMissions))
        out.problems.push_back("selected design has non-finite missions");
    return out;
}

std::vector<Submission>
serveMixSubmissions(std::uint64_t seed, int input)
{
    // {id, tenant, budget, extra keys}; ids sort in submission order.
    struct Spec
    {
        const char *id;
        const char *tenant;
        int budget;
        const char *keys;
    };
    static const Spec specs[] = {
        {"c1-tiered-bo", "alpha", 120,
         R"("density": "dense", "backend": "tiered", "optimizer": "bo")"},
        {"c2-contention-nsga2", "alpha", 120,
         R"("density": "medium", "backend": "contention", )"
         R"("optimizer": "nsga2", "camera_mbps": 800)"},
        {"c3-dram-random", "bravo", 60,
         R"("density": "low", "backend": "dram", "optimizer": "random", )"
         R"("camera_mbps": 400, "host_mbps": 200)"},
        {"c4-cycle-sa", "bravo", 120,
         R"("density": "medium", "backend": "cycle", "optimizer": "sa", )"
         R"("airframe": "fixed-wing")"},
        {"c5-analytical-bo", "charlie", 120,
         R"("density": "low", "backend": "analytical", "optimizer": "bo")"},
        {"c6-quantized-nsga2", "charlie", 120,
         R"("density": "dense", "backend": "quantized", )"
         R"("optimizer": "nsga2", "precision": "int8,fp16,fp32")"},
    };
    std::vector<Submission> out;
    int index = 1;
    for (const Spec &spec : specs) {
        Submission sub;
        sub.id = spec.id;
        sub.budget = spec.budget;
        sub.json = std::string("{\"tenant\": \"") + spec.tenant +
                   "\", \"budget\": " + std::to_string(spec.budget) +
                   ", \"seed\": " + std::to_string(taskSeed(seed, input, index++)) +
                   ", " + spec.keys + "}\n";
        out.push_back(std::move(sub));
    }
    return out;
}

autopilot::runner::ServiceConfig
serveMixConfig(const std::string &root, int threads)
{
    autopilot::runner::ServiceConfig config;
    config.rootDir = root;
    config.maxActiveCampaigns = 2;
    config.poolThreads = threads;
    config.pollSeconds = 0.01;
    config.maxCampaigns = 6;
    return config;
}

void
dropSubmissions(const std::string &root,
                const std::vector<Submission> &submissions)
{
    for (const Submission &sub : submissions) {
        // Write beside the inbox, then rename in: the service scan
        // assumes whole files.
        const std::string staged = root + "/" + sub.id + ".json.tmp";
        std::ofstream(staged) << sub.json;
        fs::rename(staged, root + "/inbox/" + sub.id + ".json");
    }
}

std::string
journalPath(const std::string &root, const std::string &id)
{
    return root + "/work/" + id + "/" + id + "/journal.csv";
}

Outcome
checkServe(const std::string &root,
           const std::vector<Submission> &submissions,
           const autopilot::runner::ServiceReport &report)
{
    Outcome out;
    out.attempted = static_cast<int>(submissions.size());
    out.failed = static_cast<int>(submissions.size() - report.completed);
    if (report.completed != submissions.size() || report.rejected != 0)
        out.problems.push_back(
            std::to_string(report.completed) + " of " +
            std::to_string(submissions.size()) + " campaigns completed, " +
            std::to_string(report.rejected) + " rejected");

    Fnv fnv;
    for (const Submission &sub : submissions) {
        const std::string result =
            readFile(root + "/results/" + sub.id + ".result");
        const std::string journal = readFile(journalPath(root, sub.id));
        fnv.text(result);
        fnv.text(journal);

        // The result table row: task status attempts success socW
        // latms missions detail.
        std::istringstream rows(result);
        std::string line;
        bool rowSeen = false;
        while (std::getline(rows, line)) {
            std::istringstream fields(line);
            std::string task, status, attempts, success, soc, lat;
            double missions = 0.0;
            if (!(fields >> task) || task != sub.id)
                continue;
            rowSeen = (fields >> status >> attempts >> success >> soc >>
                       lat >> missions) &&
                      status == "ok" && std::isfinite(missions);
            out.selectedMissions += missions;
        }
        if (!rowSeen)
            out.problems.push_back(sub.id + ": no successful result row");

        // The journal holds every simulated point in request order; the
        // archive is its first budget rows (optimizers that propose whole
        // generations simulate a few points past the budget).
        std::istringstream stream(journal);
        const autopilot::io::JournalReplay replay =
            autopilot::io::readEvalJournal(stream);
        const std::size_t budget = static_cast<std::size_t>(sub.budget);
        if (!replay.found || replay.truncated ||
            replay.entries.size() < budget)
            out.problems.push_back(
                sub.id + ": journal holds " +
                std::to_string(replay.entries.size()) +
                " rows, budget is " + std::to_string(budget));
        std::vector<dse::Objectives> points;
        for (const dse::Evaluation &eval : replay.entries) {
            if (points.size() == budget)
                break;
            if (!finite(eval.objectives))
                out.problems.push_back(sub.id + ": non-finite objective");
            points.push_back(eval.objectives);
        }
        out.frontHv += dse::hypervolume(points, kReference);
    }
    const double campaigns = static_cast<double>(submissions.size());
    out.frontHv /= campaigns;
    out.selectedMissions /= campaigns;
    out.digest = fnv.value();
    return out;
}

} // namespace perfbench
