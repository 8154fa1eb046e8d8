#include "io/persistence.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <unistd.h>
#endif

#include "io/csv.h"
#include "util/logging.h"

namespace autopilot::io
{

void
syncFileToDisk(const std::string &path)
{
#if defined(__unix__) || defined(__APPLE__)
    const int fd = ::open(path.c_str(), O_RDONLY);
    util::fatalIf(fd < 0,
                  "syncFileToDisk: cannot open '" + path + "'");
    const int rc = ::fsync(fd);
    ::close(fd);
    util::fatalIf(rc != 0, "syncFileToDisk: fsync failed on '" + path +
                               "'");
#else
    (void)path;
#endif
}

void
syncParentDir(const std::string &path)
{
#if defined(__unix__) || defined(__APPLE__)
    std::filesystem::path parent =
        std::filesystem::path(path).parent_path();
    if (parent.empty())
        parent = ".";
    const int fd = ::open(parent.c_str(), O_RDONLY | O_DIRECTORY);
    util::fatalIf(fd < 0, "syncParentDir: cannot open directory '" +
                              parent.string() + "'");
    const int rc = ::fsync(fd);
    ::close(fd);
    util::fatalIf(rc != 0, "syncParentDir: fsync failed on '" +
                               parent.string() + "'");
#else
    (void)path;
#endif
}

void
writeFileAtomic(const std::string &path, const std::string &contents)
{
    const std::string tmpPath = path + ".tmp";
    {
        std::ofstream out(tmpPath, std::ios::trunc | std::ios::binary);
        util::fatalIf(!out, "writeFileAtomic: cannot open '" + tmpPath +
                                "' for writing");
        out << contents;
        out.flush();
        util::fatalIf(!out, "writeFileAtomic: write failed on '" +
                                tmpPath + "'");
    }
    // fsync BEFORE the rename: renaming an unsynced file can commit
    // the name change while the data is still only in the page cache,
    // so a power loss yields a duly-named empty/torn file.
    syncFileToDisk(tmpPath);
    util::fatalIf(std::rename(tmpPath.c_str(), path.c_str()) != 0,
                  "writeFileAtomic: cannot rename '" + tmpPath +
                      "' to '" + path + "'");
    syncParentDir(path);
}

namespace
{

const std::vector<std::string> databaseHeader = {
    "policy_id",    "layers",       "filters",
    "density",      "success_rate", "model_params",
    "model_macs",   "training_steps", "converged"};

/// Encoding columns of every archive layout: the seven legacy choice
/// indices. The 8th design dimension (precision) is archived as a
/// trailing LABEL column instead of an index - an index would be
/// ambiguous across precision sets ({1,2} and {1,2,4} number fp16
/// differently), and keeping the encoding columns fixed at seven is
/// what lets pre-precision journals replay byte-identically.
constexpr std::size_t encodedColumns = 7;

/// Every archive column, in layout order. Each accepted layout is a
/// prefix of this list (see acceptedWidths), so a newer layout only ever
/// appends columns and an older file loads with the absent trailing
/// fields at their defaults.
const std::vector<std::string> archiveColumns = {
    "layers_idx",  "filters_idx", "pe_rows_idx",   "pe_cols_idx",
    "ifmap_idx",   "filter_idx",  "ofmap_idx",     "success_rate",
    "npu_power_w", "soc_power_w", "latency_ms",    "fps",
    "backend",     "fidelity",    "contention_bps", "scenario",
    "dram",        "precision"};

/// Column index of each field that older layouts lack; a row carries
/// the field when it is wider than the index.
constexpr std::size_t backendColumn = 12;    // + fidelity (13)
constexpr std::size_t contentionColumn = 14;
constexpr std::size_t scenarioColumn = 15;
constexpr std::size_t dramColumn = 16;
constexpr std::size_t precisionColumn = 17;

/// Accepted layout widths, newest first: the precision-axis layout
/// (18), the single-precision default (17), pre-dram (16), pre-airframe
/// (15), pre-contention (14) and pre-backend (12). Absent columns load
/// as analytical fidelity, zero contention, scenario and dram "-".
constexpr std::size_t acceptedWidths[] = {18, 17, 16, 15, 14, 12};

/// The default single-precision layout: everything but the precision
/// label, which only a searchable precision axis writes.
constexpr std::size_t defaultWidth = precisionColumn;

std::vector<std::string>
archivePrefix(std::size_t width)
{
    return {archiveColumns.begin(),
            archiveColumns.begin() + static_cast<std::ptrdiff_t>(width)};
}

bool
densityFromName(const std::string &name,
                airlearning::ObstacleDensity &density)
{
    for (airlearning::ObstacleDensity candidate :
         airlearning::allDensities()) {
        if (airlearning::densityName(candidate) == name) {
            density = candidate;
            return true;
        }
    }
    return false;
}

std::string
formatDouble(double value)
{
    std::ostringstream os;
    os.precision(17);
    os << value;
    return os.str();
}

/**
 * Stream lines with CRLF tolerance and 1-based line accounting - the
 * shared front end of every tolerant reader, so parse diagnostics can
 * name the exact line a record was torn on.
 */
class LineReader
{
  public:
    explicit LineReader(std::istream &is) : in(is) {}

    bool
    next(std::string &line)
    {
        if (!std::getline(in, line))
            return false;
        if (!line.empty() && line.back() == '\r')
            line.pop_back();
        ++lineNumber;
        return true;
    }

    std::size_t line() const { return lineNumber; }

  private:
    std::istream &in;
    std::size_t lineNumber = 0;
};

/** Fail @p diag at the reader's current line with @p reason. */
void
failAt(ParseDiag &diag, const LineReader &reader,
       const std::string &reason)
{
    diag.ok = false;
    diag.line = reader.line();
    diag.reason = reason;
}

/**
 * Decode one archive row (already width-checked against its header,
 * so row.size() names the layout: a field is present when the row is
 * wider than its column index).
 * Returns the reason on a malformed field, empty on success.
 */
std::string
tryDecodeArchiveRow(const std::vector<std::string> &row,
                    const dse::DesignSpace &space, dse::Evaluation &eval)
{
    // Seven index columns in every layout; the precision dimension
    // arrives (if at all) as the trailing label column handled below.
    eval.encoding.fill(0);
    for (std::size_t d = 0; d < encodedColumns; ++d) {
        const std::string reason = tryParseInt(row[d], eval.encoding[d]);
        if (!reason.empty())
            return reason;
    }
    std::string reason = tryParseDouble(row[7], eval.successRate);
    if (reason.empty())
        reason = tryParseDouble(row[8], eval.npuPowerW);
    if (reason.empty())
        reason = tryParseDouble(row[9], eval.socPowerW);
    if (reason.empty())
        reason = tryParseDouble(row[10], eval.latencyMs);
    if (reason.empty())
        reason = tryParseDouble(row[11], eval.fps);
    if (!reason.empty())
        return reason;
    if (row.size() > backendColumn) {
        eval.backend = row[backendColumn];
        if (!dse::tryFidelityFromName(row[backendColumn + 1],
                                      eval.fidelity))
            return "unknown fidelity '" + row[backendColumn + 1] + "'";
    }
    if (row.size() > contentionColumn) {
        reason = tryParseDouble(row[contentionColumn],
                                eval.contentionBytesPerSec);
        if (!reason.empty())
            return reason;
        if (!(eval.contentionBytesPerSec >= 0.0) ||
            !std::isfinite(eval.contentionBytesPerSec))
            return "contention bytes/s must be finite and >= 0";
    }
    if (row.size() > scenarioColumn) {
        if (row[scenarioColumn].empty())
            return "empty scenario tag";
        eval.scenario = row[scenarioColumn];
    }
    if (row.size() > dramColumn) {
        if (row[dramColumn].empty())
            return "empty dram channel tag";
        eval.dramKey = row[dramColumn];
    }
    eval.point = space.decode(eval.encoding);
    if (row.size() > precisionColumn) {
        // Precision label column: decode through the default space
        // first (index 0 = int8), then override the operand width from
        // the archived label - the label, not an index, is what stays
        // unambiguous across precision sets.
        int width = 0;
        if (!systolic::precisionFromName(row[precisionColumn], width))
            return "unknown precision '" + row[precisionColumn] + "'";
        eval.precision = row[precisionColumn];
        eval.point.accel.bytesPerElement = width;
    }
    eval.objectives = {1.0 - eval.successRate, eval.socPowerW,
                       eval.latencyMs};
    return {};
}

} // namespace

void
writePolicyDatabase(const airlearning::PolicyDatabase &db,
                    std::ostream &os)
{
    for (std::size_t i = 0; i < databaseHeader.size(); ++i)
        os << databaseHeader[i]
           << (i + 1 == databaseHeader.size() ? "\n" : ",");
    for (const airlearning::PolicyRecord &record : db.all()) {
        os << record.policyId << ',' << record.params.numConvLayers
           << ',' << record.params.numFilters << ','
           << airlearning::densityName(record.density) << ','
           << formatDouble(record.successRate) << ','
           << record.modelParams << ',' << record.modelMacs << ','
           << record.trainingSteps << ','
           << (record.converged ? 1 : 0) << '\n';
    }
}

airlearning::PolicyDatabase
tryReadPolicyDatabase(std::istream &is, ParseDiag &diag)
{
    airlearning::PolicyDatabase db;
    LineReader reader(is);
    std::string line;
    if (!reader.next(line)) {
        diag = {false, 1, "empty stream"};
        return db;
    }
    if (splitCsvLine(line) != databaseHeader) {
        failAt(diag, reader, "unexpected header '" + line + "'");
        return db;
    }
    while (reader.next(line)) {
        if (line.empty())
            continue;
        const std::vector<std::string> row = splitCsvLine(line);
        if (row.size() != databaseHeader.size()) {
            failAt(diag, reader, "ragged row '" + line + "'");
            return db;
        }
        airlearning::PolicyRecord record;
        record.policyId = row[0];
        std::string reason =
            tryParseInt(row[1], record.params.numConvLayers);
        if (reason.empty())
            reason = tryParseInt(row[2], record.params.numFilters);
        if (reason.empty() && !densityFromName(row[3], record.density))
            reason = "unknown density '" + row[3] + "'";
        if (reason.empty())
            reason = tryParseDouble(row[4], record.successRate);
        if (reason.empty() && (record.successRate < 0.0 ||
                               record.successRate > 1.0))
            reason = "success rate outside [0, 1]";
        long long parsed64 = 0;
        if (reason.empty() &&
            (reason = tryParseInt64(row[5], parsed64)).empty())
            record.modelParams = parsed64;
        if (reason.empty() &&
            (reason = tryParseInt64(row[6], parsed64)).empty())
            record.modelMacs = parsed64;
        if (reason.empty() &&
            (reason = tryParseInt64(row[7], parsed64)).empty())
            record.trainingSteps = parsed64;
        int converged = 0;
        if (reason.empty())
            reason = tryParseInt(row[8], converged);
        if (!reason.empty()) {
            failAt(diag, reader, reason);
            return db;
        }
        record.converged = converged != 0;
        db.upsert(record);
    }
    return db;
}

airlearning::PolicyDatabase
readPolicyDatabase(std::istream &is)
{
    ParseDiag diag;
    airlearning::PolicyDatabase db = tryReadPolicyDatabase(is, diag);
    util::fatalIf(!diag.ok, "readPolicyDatabase: " + diag.reason +
                                " at line " +
                                std::to_string(diag.line));
    return db;
}

const std::vector<std::string> &
dseArchiveHeader()
{
    static const std::vector<std::string> header =
        archivePrefix(defaultWidth);
    return header;
}

const std::vector<std::vector<std::string>> &
dseArchiveAcceptedHeaders()
{
    static const std::vector<std::vector<std::string>> accepted = [] {
        std::vector<std::vector<std::string>> headers;
        for (std::size_t width : acceptedWidths)
            headers.push_back(archivePrefix(width));
        return headers;
    }();
    return accepted;
}

const std::vector<std::string> &
dsePrecisionArchiveHeader()
{
    return archiveColumns;
}

void
writeDseArchiveRow(const dse::Evaluation &eval, std::ostream &os)
{
    // Seven index columns in every layout (see encodedColumns); the
    // precision dimension is the trailing label column, present only on
    // precision-labelled rows so single-precision archives stay
    // byte-identical to the pre-precision format.
    for (std::size_t d = 0; d < encodedColumns; ++d)
        os << eval.encoding[d] << ',';
    os << formatDouble(eval.successRate) << ','
       << formatDouble(eval.npuPowerW) << ','
       << formatDouble(eval.socPowerW) << ','
       << formatDouble(eval.latencyMs) << ','
       << formatDouble(eval.fps) << ',' << eval.backend << ','
       << dse::fidelityName(eval.fidelity) << ','
       << formatDouble(eval.contentionBytesPerSec) << ','
       << eval.scenario << ',' << eval.dramKey;
    if (eval.precision != "-")
        os << ',' << eval.precision;
    os << '\n';
}

void
writeDseArchive(const std::vector<dse::Evaluation> &archive,
                std::ostream &os)
{
    // Precision-labelled rows select the wider layout; a run labels
    // either every row or none (the evaluator stamps labels only when
    // the axis is searchable), so checking the first row suffices.
    const bool precisionLabels =
        !archive.empty() && archive.front().precision != "-";
    const std::vector<std::string> &header =
        precisionLabels ? dsePrecisionArchiveHeader() : dseArchiveHeader();
    for (std::size_t i = 0; i < header.size(); ++i)
        os << header[i] << (i + 1 == header.size() ? "\n" : ",");
    for (const dse::Evaluation &eval : archive)
        writeDseArchiveRow(eval, os);
}

std::vector<dse::Evaluation>
tryReadDseArchive(std::istream &is, ParseDiag &diag)
{
    const dse::DesignSpace space;
    std::vector<dse::Evaluation> archive;
    LineReader reader(is);
    std::string line;
    if (!reader.next(line)) {
        diag = {false, 1, "empty stream"};
        return archive;
    }
    // The header must be one accepted prefix of archiveColumns; its
    // width is then the width of every row.
    const std::vector<std::string> header = splitCsvLine(line);
    const std::size_t width = header.size();
    if (std::find(std::begin(acceptedWidths), std::end(acceptedWidths),
                  width) == std::end(acceptedWidths) ||
        !std::equal(header.begin(), header.end(), archiveColumns.begin())) {
        failAt(diag, reader, "unexpected header '" + line + "'");
        return archive;
    }
    while (reader.next(line)) {
        if (line.empty())
            continue;
        const std::vector<std::string> row = splitCsvLine(line);
        if (row.size() != width) {
            failAt(diag, reader, "ragged row '" + line + "'");
            return archive;
        }
        dse::Evaluation eval;
        const std::string reason =
            tryDecodeArchiveRow(row, space, eval);
        if (!reason.empty()) {
            failAt(diag, reader, reason);
            return archive;
        }
        archive.push_back(std::move(eval));
    }
    return archive;
}

std::vector<dse::Evaluation>
readDseArchive(std::istream &is)
{
    ParseDiag diag;
    std::vector<dse::Evaluation> archive = tryReadDseArchive(is, diag);
    util::fatalIf(!diag.ok, "readDseArchive: " + diag.reason +
                                " at line " + std::to_string(diag.line));
    return archive;
}

} // namespace autopilot::io
