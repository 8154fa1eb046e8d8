#include "dse/hypervolume.h"

#include <algorithm>
#include <cmath>
#include <iterator>

#include "util/logging.h"

namespace autopilot::dse
{

namespace
{

using util::panicIf;

/** Clip points into the reference box; drop points with no volume. */
std::vector<Objectives>
clipToReference(const std::vector<Objectives> &points,
                const Objectives &reference)
{
    std::vector<Objectives> clipped;
    for (const Objectives &point : points) {
        panicIf(point.size() != reference.size(),
                "hypervolume: dimension mismatch");
        bool has_volume = true;
        for (std::size_t d = 0; d < point.size(); ++d) {
            if (point[d] >= reference[d]) {
                has_volume = false;
                break;
            }
        }
        if (has_volume)
            clipped.push_back(point);
    }
    return clipped;
}

double
hv1(const std::vector<Objectives> &points, const Objectives &reference)
{
    double best = reference[0];
    for (const Objectives &point : points)
        best = std::min(best, point[0]);
    return reference[0] - best;
}

/** 2-D sweep: sort by first objective ascending, accumulate strips. */
double
hv2(std::vector<Objectives> points, const Objectives &reference)
{
    std::sort(points.begin(), points.end(),
              [](const Objectives &a, const Objectives &b) {
                  if (a[0] != b[0])
                      return a[0] < b[0];
                  return a[1] < b[1];
              });
    double volume = 0.0;
    double prev_y = reference[1];
    for (const Objectives &point : points) {
        if (point[1] < prev_y) {
            volume += (reference[0] - point[0]) * (prev_y - point[1]);
            prev_y = point[1];
        }
    }
    return volume;
}

/** One point of a 3-objective set, flattened. */
struct Point3
{
    double x;
    double y;
    double z;
};

/** Flat copy of the points of a 3-objective set that have volume. */
std::vector<Point3>
boxedPoints3(const std::vector<Objectives> &points,
             const Objectives &reference)
{
    std::vector<Point3> boxed;
    boxed.reserve(points.size());
    for (const Objectives &point : points) {
        panicIf(point.size() != reference.size(),
                "hypervolume: dimension mismatch");
        if (point[0] < reference[0] && point[1] < reference[1] &&
            point[2] < reference[2])
            boxed.push_back({point[0], point[1], point[2]});
    }
    return boxed;
}

/** A corner of the 2-D staircase: a point no earlier point dominates. */
struct Corner
{
    double x;
    double y;
};

/** The (x, y) order hv2 sweeps in. */
bool
cornerLess(const Corner &a, const Corner &b)
{
    if (a.x != b.x)
        return a.x < b.x;
    return a.y < b.y;
}

/**
 * Insert @p point into a staircase kept in (x, y) order with strictly
 * falling y. hv2's sweep adds a strip only for a point whose y is below
 * every earlier point's y, so the staircase holds exactly the points
 * that add a strip, and sweeping it performs hv2's operations on the
 * whole active set in the same order. A point that ties an earlier one
 * on (x, y), or sits above the corner before it, adds nothing and is
 * dropped; corners after it that it covers are removed.
 */
void
insertCorner(std::vector<Corner> &stairs, const Corner &point)
{
    auto pos = std::upper_bound(stairs.begin(), stairs.end(), point,
                                cornerLess);
    if (pos != stairs.begin() && std::prev(pos)->y <= point.y)
        return;
    auto covered = pos;
    while (covered != stairs.end() && covered->y >= point.y)
        ++covered;
    if (covered == pos) {
        stairs.insert(pos, point);
    } else {
        *pos = point;
        stairs.erase(pos + 1, covered);
    }
}

/** hv2 of the active set, swept over its staircase. */
double
stairArea(const std::vector<Corner> &stairs, const Objectives &reference)
{
    double area = 0.0;
    double prev_y = reference[1];
    for (const Corner &corner : stairs) {
        area += (reference[0] - corner.x) * (prev_y - corner.y);
        prev_y = corner.y;
    }
    return area;
}

/**
 * 3-D slicing: sweep the third objective; each slab's cross-section is
 * the 2-D hypervolume of the points already "active" at that depth.
 * Points that tie on depth are all active before their slab is summed,
 * and zero-width slabs are skipped, so the result does not depend on
 * the order the sort leaves ties in. @p onSlab sees each summed slab's
 * depth, cross-section, running volume and staircase.
 */
template <typename OnSlab>
double
sweepSlabs(std::vector<Point3> points, const Objectives &reference,
           OnSlab &&onSlab)
{
    std::sort(points.begin(), points.end(),
              [](const Point3 &a, const Point3 &b) { return a.z < b.z; });
    double volume = 0.0;
    std::vector<Corner> stairs;
    for (std::size_t i = 0; i < points.size(); ++i) {
        insertCorner(stairs, {points[i].x, points[i].y});
        const double z_lo = points[i].z;
        const double z_hi =
            (i + 1 < points.size()) ? points[i + 1].z : reference[2];
        if (z_hi > z_lo) {
            const double area = stairArea(stairs, reference);
            volume += area * (z_hi - z_lo);
            onSlab(z_lo, area, volume, stairs);
        }
    }
    return volume;
}

} // namespace

double
hypervolume(const std::vector<Objectives> &points,
            const Objectives &reference)
{
    panicIf(reference.empty(), "hypervolume: empty reference");
    if (reference.size() == 3) {
        return sweepSlabs(boxedPoints3(points, reference), reference,
                          [](double, double, double,
                             const std::vector<Corner> &) {});
    }
    const std::vector<Objectives> clipped =
        clipToReference(points, reference);
    if (clipped.empty())
        return 0.0;
    switch (reference.size()) {
      case 1: return hv1(clipped, reference);
      case 2: return hv2(clipped, reference);
      default:
        util::fatal("hypervolume: only 1-3 objectives supported");
    }
}

HypervolumeGain::HypervolumeGain(const std::vector<Objectives> &points,
                                 const Objectives &reference)
    : reference(reference)
{
    if (reference.size() != 3) {
        fallbackPoints = points;
        baseVolume = hypervolume(points, reference);
        return;
    }
    stairBegin.push_back(0);
    baseVolume = sweepSlabs(
        boxedPoints3(points, reference), reference,
        [&](double z, double area, double volume,
            const std::vector<Corner> &active) {
            levelZ.push_back(z);
            levelArea.push_back(area);
            levelVolume.push_back(volume);
            double prefix = 0.0;
            double prev_y = reference[1];
            for (const Corner &corner : active) {
                prefix += (reference[0] - corner.x) * (prev_y - corner.y);
                prev_y = corner.y;
                stairs.push_back({corner.x, corner.y, prefix});
            }
            stairBegin.push_back(stairs.size());
        });
}

double
HypervolumeGain::nextZ(std::size_t level) const
{
    return level + 1 < levelZ.size() ? levelZ[level + 1] : reference[2];
}

/**
 * Cross-section of level @p level's active set plus @p candidate (level
 * -1 is the empty set). Returns false, leaving @p area alone, when the
 * candidate adds no strip there, i.e. the cross-section is unchanged.
 */
bool
HypervolumeGain::mergedArea(std::ptrdiff_t level,
                            const Objectives &candidate,
                            double &area) const
{
    const Step *begin = stairs.data();
    const Step *end = begin;
    if (level >= 0) {
        begin += stairBegin[static_cast<std::size_t>(level)];
        end = stairs.data() + stairBegin[static_cast<std::size_t>(level) + 1];
    }
    const double x = candidate[0];
    const double y = candidate[1];
    const Step *pos =
        std::upper_bound(begin, end, Corner{x, y},
                         [](const Corner &a, const Step &b) {
                             return cornerLess(a, {b.x, b.y});
                         });
    double sum = 0.0;
    double prev_y = reference[1];
    if (pos != begin) {
        const Step &before = *std::prev(pos);
        if (before.y <= y)
            return false;
        sum = before.prefix;
        prev_y = before.y;
    }
    sum += (reference[0] - x) * (prev_y - y);
    prev_y = y;
    for (; pos != end; ++pos) {
        if (pos->y < prev_y) {
            sum += (reference[0] - pos->x) * (prev_y - pos->y);
            prev_y = pos->y;
        }
    }
    area = sum;
    return true;
}

/**
 * 1-2 objectives: sweep the extended set and subtract the base. Kept
 * out of line so contribution()'s 3-objective path stays small.
 */
double
HypervolumeGain::fallbackContribution(const Objectives &candidate) const
{
    std::vector<Objectives> extended = fallbackPoints;
    extended.push_back(candidate);
    return std::max(0.0, hypervolume(extended, reference) - baseVolume);
}

double
HypervolumeGain::contribution(const Objectives &candidate) const
{
    if (reference.size() != 3)
        return fallbackContribution(candidate);
    panicIf(candidate.size() != 3, "hypervolume: dimension mismatch");
    for (std::size_t d = 0; d < 3; ++d) {
        if (candidate[d] >= reference[d])
            return 0.0; // Clipped: the grown set is the base set.
    }

    // The reference sweep over the set plus the candidate performs the
    // base sweep's operations until it reaches the candidate's depth, so
    // this resumes from the running volume stored just before it.
    const double z = candidate[2];
    const std::size_t levels = levelZ.size();
    std::size_t next = static_cast<std::size_t>(
        std::upper_bound(levelZ.begin(), levelZ.end(), z) -
        levelZ.begin());
    double volume = 0.0;
    if (next > 0 && levelZ[next - 1] == z) {
        // The candidate joins an existing level.
        --next;
        if (next > 0)
            volume = levelVolume[next - 1];
    } else {
        // The candidate opens a level: the slab it falls in is cut short
        // at z, and a slab of its own runs from z to the next depth.
        const auto above = static_cast<std::ptrdiff_t>(next) - 1;
        double area = 0.0;
        if (above >= 0) {
            if (above > 0)
                volume = levelVolume[next - 2];
            volume += levelArea[next - 1] * (z - levelZ[next - 1]);
            area = levelArea[next - 1];
        }
        mergedArea(above, candidate, area);
        volume += area * ((next < levels ? levelZ[next] : reference[2]) - z);
    }

    for (std::size_t level = next; level < levels; ++level) {
        double area = levelArea[level];
        if (!mergedArea(static_cast<std::ptrdiff_t>(level), candidate,
                        area)) {
            // Covered here, so covered at every later level too: the
            // remaining slabs are the base's. If the running volume
            // also matches, the sweep replays the base exactly.
            const double base_before =
                level > 0 ? levelVolume[level - 1] : 0.0;
            if (volume == base_before)
                return 0.0;
            for (; level < levels; ++level)
                volume += levelArea[level] * (nextZ(level) - levelZ[level]);
            break;
        }
        volume += area * (nextZ(level) - levelZ[level]);
    }
    return std::max(0.0, volume - baseVolume);
}

Objectives
defaultReference(const std::vector<Objectives> &points, double margin)
{
    panicIf(points.empty(), "defaultReference: empty point set");
    const std::size_t dims = points.front().size();
    Objectives lo = points.front();
    Objectives hi = points.front();
    for (const Objectives &point : points) {
        panicIf(point.size() != dims, "defaultReference: ragged points");
        for (std::size_t d = 0; d < dims; ++d) {
            lo[d] = std::min(lo[d], point[d]);
            hi[d] = std::max(hi[d], point[d]);
        }
    }
    Objectives reference(dims, 0.0);
    for (std::size_t d = 0; d < dims; ++d) {
        const double range = hi[d] - lo[d];
        const double pad = std::max(range * margin, 1e-6);
        reference[d] = hi[d] + pad;
    }
    return reference;
}

} // namespace autopilot::dse
