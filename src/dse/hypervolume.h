/**
 * @file
 * Exact hypervolume computation for minimization problems.
 *
 * The hypervolume of a point set against a reference point is the measure
 * of the objective-space region dominated by the set and bounded by the
 * reference. SMS-EGO [64] uses hypervolume gain as its acquisition value.
 *
 * Supports 1, 2 and 3 objectives exactly (AutoPilot optimizes exactly
 * three: success rate, power, latency). Fatal for higher dimensions.
 */

#ifndef AUTOPILOT_DSE_HYPERVOLUME_H
#define AUTOPILOT_DSE_HYPERVOLUME_H

#include <cstddef>

#include "dse/pareto.h"

namespace autopilot::dse
{

/**
 * Hypervolume of @p points against @p reference (all minimized).
 *
 * Points outside the reference box contribute only their clipped part;
 * fully dominated-by-reference-complement points contribute nothing.
 *
 * @param points    Objective vectors (need not be mutually non-dominated).
 * @param reference Reference point; must weakly exceed every coordinate of
 *                  interest (points beyond it are clipped out).
 */
double hypervolume(const std::vector<Objectives> &points,
                   const Objectives &reference);

/**
 * Hypervolume gained by adding a candidate to one fixed point set, for
 * scoring many candidates.
 *
 * Construction runs the 3-D slab sweep once and keeps, per distinct
 * depth, the slab's 2-D staircase with its running strip sums and the
 * running volume. contribution() then resumes the sweep at the
 * candidate's depth and recomputes only the slabs the candidate enters.
 * What it computes, and what it reuses from construction, are the
 * operations hypervolume() performs on the extended set, in the same
 * order, so the result is bit-identical to
 * max(0, hypervolume(points + candidate) - hypervolume(points)): that
 * two-sweep difference is the test-side reference
 * (tests/reference/hypervolume.h). With 1 or 2 objectives,
 * contribution() computes that difference itself. Immutable after
 * construction, so contribution() is safe to call from many threads.
 */
class HypervolumeGain
{
  public:
    HypervolumeGain(const std::vector<Objectives> &points,
                    const Objectives &reference);

    /** hypervolume(points, reference). */
    double base() const { return baseVolume; }

    /**
     * Hypervolume @p candidate adds to the points: non-negative, zero
     * when it is dominated or outside the reference box.
     */
    double contribution(const Objectives &candidate) const;

  private:
    /** One staircase corner with the strip sum up to and including it. */
    struct Step
    {
        double x;
        double y;
        double prefix;
    };

    Objectives reference;
    std::vector<Objectives> fallbackPoints; ///< 1-2 objectives only.
    double baseVolume = 0.0;
    std::vector<double> levelZ;       ///< Distinct depths, ascending.
    std::vector<double> levelArea;    ///< Cross-section at each depth.
    std::vector<double> levelVolume;  ///< Running volume after the slab.
    std::vector<std::size_t> stairBegin; ///< levelZ.size() + 1 offsets.
    std::vector<Step> stairs;         ///< Per-level staircases, flat.

    double fallbackContribution(const Objectives &candidate) const;
    double nextZ(std::size_t level) const;
    bool mergedArea(std::ptrdiff_t level, const Objectives &candidate,
                    double &area) const;
};

/**
 * A reference point for a point set: the componentwise maximum plus a
 * @p margin fraction of the per-component range (at least an absolute
 * floor to keep extreme points contributing).
 */
Objectives defaultReference(const std::vector<Objectives> &points,
                            double margin = 0.1);

} // namespace autopilot::dse

#endif // AUTOPILOT_DSE_HYPERVOLUME_H
