/**
 * @file
 * Tests for Pareto utilities, non-dominated sorting, crowding distance and
 * exact hypervolume (2-D and 3-D).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>

#include "dse/hypervolume.h"
#include "dse/pareto.h"
#include "reference/hypervolume.h"
#include "util/rng.h"

namespace dse = autopilot::dse;
using dse::Objectives;

// ---------------------------------------------------------- dominance ----

TEST(Pareto, DominatesBasics)
{
    EXPECT_TRUE(dse::dominates({1.0, 1.0}, {2.0, 2.0}));
    EXPECT_TRUE(dse::dominates({1.0, 2.0}, {1.0, 3.0}));
    EXPECT_FALSE(dse::dominates({1.0, 3.0}, {2.0, 2.0}));
    EXPECT_FALSE(dse::dominates({1.0, 1.0}, {1.0, 1.0})); // Not strict.
}

TEST(Pareto, EpsilonDominance)
{
    EXPECT_TRUE(dse::epsilonDominates({1.05, 1.0}, {1.0, 1.0}, 0.1));
    EXPECT_FALSE(dse::epsilonDominates({1.2, 1.0}, {1.0, 1.0}, 0.1));
}

TEST(Pareto, FrontExtraction)
{
    const std::vector<Objectives> points = {
        {1.0, 4.0}, {2.0, 3.0}, {3.0, 3.5}, {4.0, 1.0}, {2.5, 2.5}};
    const auto front = dse::paretoFrontIndices(points);
    // {3.0,3.5} is dominated by {2.0,3.0}; the rest are non-dominated.
    EXPECT_EQ(front.size(), 4u);
    for (std::size_t index : front)
        EXPECT_NE(index, 2u);
}

TEST(Pareto, DuplicatePointsBothKept)
{
    const std::vector<Objectives> points = {{1.0, 1.0}, {1.0, 1.0}};
    EXPECT_EQ(dse::paretoFrontIndices(points).size(), 2u);
}

TEST(Pareto, NonDominatedSortLayers)
{
    const std::vector<Objectives> points = {
        {1.0, 1.0},  // front 0
        {2.0, 2.0},  // front 1 (dominated only by front 0)
        {3.0, 3.0},  // front 2
        {0.5, 3.5},  // front 0 (trade-off)
    };
    const auto fronts = dse::nonDominatedSort(points);
    ASSERT_EQ(fronts.size(), 3u);
    EXPECT_EQ(fronts[0].size(), 2u);
    EXPECT_EQ(fronts[1].size(), 1u);
    EXPECT_EQ(fronts[1][0], 1u);
    EXPECT_EQ(fronts[2][0], 2u);
}

TEST(Pareto, CrowdingBoundariesInfinite)
{
    const std::vector<Objectives> points = {
        {1.0, 4.0}, {2.0, 3.0}, {3.0, 2.0}, {4.0, 1.0}};
    const std::vector<std::size_t> front = {0, 1, 2, 3};
    const auto crowding = dse::crowdingDistance(points, front);
    const double inf = std::numeric_limits<double>::infinity();
    EXPECT_EQ(crowding[0], inf);
    EXPECT_EQ(crowding[3], inf);
    EXPECT_GT(crowding[1], 0.0);
    EXPECT_LT(crowding[1], inf);
}

TEST(Pareto, CrowdingPrefersIsolatedPoints)
{
    // Middle points: one in a dense cluster, one isolated.
    const std::vector<Objectives> points = {
        {0.0, 10.0}, {1.0, 9.0}, {1.2, 8.8}, {6.0, 2.0}, {10.0, 0.0}};
    const std::vector<std::size_t> front = {0, 1, 2, 3, 4};
    const auto crowding = dse::crowdingDistance(points, front);
    EXPECT_GT(crowding[3], crowding[2]);
}

// -------------------------------------------------------- hypervolume ----

TEST(Hypervolume, SinglePoint2D)
{
    EXPECT_DOUBLE_EQ(dse::hypervolume({{1.0, 1.0}}, {3.0, 3.0}), 4.0);
}

TEST(Hypervolume, TwoPoint2DUnion)
{
    // Boxes (1,2)x(2,?) hand-computed: ref (4,4); points (1,3) and (3,1):
    // area = 3*1 + 1*(3-1)... enumerate: point A (1,3): box 3 wide, 1
    // tall = 3; point B (3,1): 1 wide, 3 tall = 3; overlap (1..4 x 3..4)
    // none: total 3 + 3 - 1 (overlap box 1x1 at [3,4]x[3,4])? Overlap of
    // [1,4]x[3,4] and [3,4]x[1,4] is [3,4]x[3,4] = 1.
    const double hv =
        dse::hypervolume({{1.0, 3.0}, {3.0, 1.0}}, {4.0, 4.0});
    EXPECT_DOUBLE_EQ(hv, 5.0);
}

TEST(Hypervolume, DominatedPointAddsNothing2D)
{
    const double base = dse::hypervolume({{1.0, 1.0}}, {4.0, 4.0});
    const double with_dominated =
        dse::hypervolume({{1.0, 1.0}, {2.0, 2.0}}, {4.0, 4.0});
    EXPECT_DOUBLE_EQ(base, with_dominated);
}

TEST(Hypervolume, PointOutsideReferenceClipped)
{
    EXPECT_DOUBLE_EQ(dse::hypervolume({{5.0, 5.0}}, {4.0, 4.0}), 0.0);
    EXPECT_DOUBLE_EQ(dse::hypervolume({}, {4.0, 4.0}), 0.0);
}

TEST(Hypervolume, SinglePoint3D)
{
    EXPECT_DOUBLE_EQ(
        dse::hypervolume({{1.0, 1.0, 1.0}}, {2.0, 3.0, 4.0}),
        1.0 * 2.0 * 3.0);
}

TEST(Hypervolume, ThreePoint3DHandComputed)
{
    // Staircase: (0,2,2), (2,0,2), (2,2,0) with ref (3,3,3).
    // By inclusion-exclusion: each box 3*1*1... compute: box A =
    // (3-0)(3-2)(3-2)=3; B=(3-2)(3-0)(3-2)=3; C=(3-2)(3-2)(3-0)=3.
    // Pairwise overlaps: A&B = (3-2)(3-2)(3-2)=1 etc. (three pairs),
    // triple overlap = 1. HV = 9 - 3 + 1 = 7.
    const double hv = dse::hypervolume(
        {{0.0, 2.0, 2.0}, {2.0, 0.0, 2.0}, {2.0, 2.0, 0.0}},
        {3.0, 3.0, 3.0});
    EXPECT_DOUBLE_EQ(hv, 7.0);
}

TEST(Hypervolume, MonotoneUnderAddition)
{
    autopilot::util::Rng rng(99);
    std::vector<Objectives> points;
    const Objectives reference = {1.0, 1.0, 1.0};
    double prev = 0.0;
    for (int i = 0; i < 40; ++i) {
        points.push_back(
            {rng.uniform(), rng.uniform(), rng.uniform()});
        const double hv = dse::hypervolume(points, reference);
        EXPECT_GE(hv, prev - 1e-12);
        EXPECT_LE(hv, 1.0 + 1e-12);
        prev = hv;
    }
}

TEST(Hypervolume, ContributionOfDominatedIsZero)
{
    const std::vector<Objectives> front = {{1.0, 1.0, 1.0}};
    EXPECT_DOUBLE_EQ(dse::hypervolumeContribution(
                         front, {2.0, 2.0, 2.0}, {3.0, 3.0, 3.0}),
                     0.0);
    EXPECT_GT(dse::hypervolumeContribution(front, {0.5, 2.0, 2.0},
                                           {3.0, 3.0, 3.0}),
              0.0);
}

TEST(Hypervolume, AgreesWithMonteCarlo3D)
{
    // Property: exact 3-D hypervolume matches a Monte-Carlo estimate.
    autopilot::util::Rng rng(7);
    std::vector<Objectives> points;
    for (int i = 0; i < 12; ++i)
        points.push_back(
            {rng.uniform(), rng.uniform(), rng.uniform()});
    const Objectives reference = {1.0, 1.0, 1.0};
    const double exact = dse::hypervolume(points, reference);

    int dominated = 0;
    const int samples = 200000;
    for (int s = 0; s < samples; ++s) {
        const double sx = rng.uniform();
        const double sy = rng.uniform();
        const double sz = rng.uniform();
        for (const Objectives &point : points) {
            if (point[0] <= sx && point[1] <= sy && point[2] <= sz) {
                ++dominated;
                break;
            }
        }
    }
    const double estimate = static_cast<double>(dominated) / samples;
    EXPECT_NEAR(exact, estimate, 0.01);
}

TEST(Hypervolume, DefaultReferenceExceedsAllPoints)
{
    const std::vector<Objectives> points = {{1.0, 5.0}, {3.0, 2.0}};
    const Objectives reference = dse::defaultReference(points);
    EXPECT_GT(reference[0], 3.0);
    EXPECT_GT(reference[1], 5.0);
    EXPECT_GT(dse::hypervolume(points, reference), 0.0);
}

// ------------------------------------------- fast-path differentials ----

namespace
{

/**
 * The slice-and-resort 3-D hypervolume the library used before its
 * allocation-free sweep, kept verbatim as the differential reference:
 * clip, sort by depth, and recompute each slab's 2-D cross-section from
 * a freshly sorted copy of the active set.
 */
double
referenceHv2(std::vector<Objectives> points, const Objectives &reference)
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

double
referenceHv3(const std::vector<Objectives> &all, const Objectives &reference)
{
    std::vector<Objectives> points;
    for (const Objectives &point : all) {
        if (point[0] < reference[0] && point[1] < reference[1] &&
            point[2] < reference[2])
            points.push_back(point);
    }
    std::sort(points.begin(), points.end(),
              [](const Objectives &a, const Objectives &b) {
                  return a[2] < b[2];
              });
    double volume = 0.0;
    std::vector<Objectives> active;
    for (std::size_t i = 0; i < points.size(); ++i) {
        active.push_back({points[i][0], points[i][1]});
        const double z_lo = points[i][2];
        const double z_hi =
            (i + 1 < points.size()) ? points[i + 1][2] : reference[2];
        if (z_hi > z_lo) {
            volume += referenceHv2(active, {reference[0], reference[1]}) *
                      (z_hi - z_lo);
        }
    }
    return volume;
}

double
referenceContribution(const std::vector<Objectives> &points,
                      const Objectives &candidate,
                      const Objectives &reference)
{
    std::vector<Objectives> extended = points;
    extended.push_back(candidate);
    return std::max(0.0, referenceHv3(extended, reference) -
                             referenceHv3(points, reference));
}

std::uint64_t
bits(double value)
{
    std::uint64_t out;
    std::memcpy(&out, &value, sizeof(out));
    return out;
}

/**
 * A random 3-objective set of @p size points inside and around
 * @p reference. A third of the coordinates come from a coarse grid, so
 * (x, y) and depth ties are common; some points repeat earlier ones
 * exactly; some sit on or beyond the reference.
 */
std::vector<Objectives>
tiedCloud(autopilot::util::Rng &rng, std::size_t size,
          const Objectives &reference)
{
    std::vector<Objectives> points;
    for (std::size_t i = 0; i < size; ++i) {
        if (!points.empty() && rng.uniform() < 0.1) {
            points.push_back(points[rng.uniformInt(
                0, static_cast<int>(points.size()) - 1)]);
            continue;
        }
        Objectives point(3);
        for (std::size_t d = 0; d < 3; ++d) {
            const double draw = rng.uniform();
            if (draw < 0.3)
                point[d] = reference[d] * rng.uniformInt(1, 8) / 8.0;
            else if (draw < 0.35)
                point[d] = reference[d] * 1.25;
            else
                point[d] = reference[d] * rng.uniform() * 1.05;
        }
        points.push_back(point);
    }
    return points;
}

} // namespace

TEST(HypervolumeFastPath, SweepBitIdenticalToSliceAndResort)
{
    autopilot::util::Rng rng(0x5EED);
    for (const Objectives &reference :
         {Objectives{1.0, 1.0, 1.0}, Objectives{1.0, 12.0, 120.0}}) {
        for (std::size_t size = 0; size <= 120; ++size) {
            for (int repeat = 0; repeat < 3; ++repeat) {
                const std::vector<Objectives> points =
                    tiedCloud(rng, size, reference);
                EXPECT_EQ(bits(dse::hypervolume(points, reference)),
                          bits(referenceHv3(points, reference)))
                    << "size " << size << ", repeat " << repeat;
            }
        }
    }
}

TEST(HypervolumeFastPath, GainBitIdenticalToContribution)
{
    autopilot::util::Rng rng(0xFACADE);
    const Objectives reference = {1.0, 12.0, 120.0};
    std::size_t checked = 0;
    for (std::size_t size : {0u, 1u, 2u, 5u, 12u, 30u, 64u, 120u}) {
        for (int repeat = 0; repeat < 4; ++repeat) {
            const std::vector<Objectives> cloud =
                tiedCloud(rng, size, reference);
            // Both a mutually non-dominated front (the BO screen's
            // input) and a raw set with dominated and clipped members.
            for (const std::vector<Objectives> &points :
                 {dse::paretoFront(cloud), cloud}) {
                const dse::HypervolumeGain gain(points, reference);
                ASSERT_EQ(bits(gain.base()),
                          bits(dse::hypervolume(points, reference)));

                std::vector<Objectives> candidates =
                    tiedCloud(rng, 40, reference);
                double lowest = reference[2];
                double highest = 0.0;
                for (std::size_t m = 0; m < points.size(); ++m) {
                    const Objectives &member = points[m];
                    if (member[2] >= reference[2])
                        continue;
                    lowest = std::min(lowest, member[2]);
                    highest = std::max(highest, member[2]);
                    if (m % (points.size() / 24 + 1) != 0)
                        continue;
                    // Duplicate, dominated, tied-z and shifted members.
                    candidates.push_back(member);
                    candidates.push_back(
                        {member[0] * 1.01, member[1] * 1.01, member[2]});
                    candidates.push_back({member[0] * 1.01,
                                          member[1] * 1.01,
                                          member[2] * 1.01});
                    candidates.push_back(
                        {member[0] * 0.9, member[1] * 1.1, member[2]});
                    candidates.push_back(
                        {member[0] * 0.5, member[1] * 0.5, member[2]});
                    candidates.push_back({member[0], member[1],
                                          std::nextafter(member[2], 0.0)});
                }
                // Lowest and highest depth, clipped on each axis.
                candidates.push_back({0.5, 6.0, lowest * 0.5});
                candidates.push_back({0.5, 6.0, 0.0});
                candidates.push_back(
                    {0.05, 0.5, (highest + reference[2]) / 2.0});
                candidates.push_back(
                    {0.05, 0.5, std::nextafter(reference[2], 0.0)});
                candidates.push_back({0.0, 0.0, 0.0});
                for (std::size_t d = 0; d < 3; ++d) {
                    Objectives clipped = {0.1, 1.0, 10.0};
                    clipped[d] = reference[d];
                    candidates.push_back(clipped);
                    clipped[d] = reference[d] * 2.0;
                    candidates.push_back(clipped);
                }
                // The points TieredBackend::shouldPromote scores: every
                // member relaxed by (1 - band) on all three axes, at the
                // adaptive clamp ends and the default band.
                for (const double band : {0.005, 0.02, 0.10}) {
                    for (const Objectives &member : points) {
                        Objectives relaxed = member;
                        for (double &component : relaxed)
                            component *= 1.0 - band;
                        candidates.push_back(relaxed);
                    }
                }

                for (const Objectives &candidate : candidates) {
                    const double expected = dse::hypervolumeContribution(
                        points, candidate, reference);
                    ASSERT_EQ(bits(gain.contribution(candidate)),
                              bits(expected))
                        << "size " << points.size() << ", candidate ("
                        << candidate[0] << ", " << candidate[1] << ", "
                        << candidate[2] << ")";
                    ASSERT_EQ(bits(expected),
                              bits(referenceContribution(points, candidate,
                                                         reference)));
                    ++checked;
                }
            }
        }
    }
    EXPECT_GT(checked, 2000u);
}

TEST(HypervolumeFastPath, GainFallsBackBelowThreeObjectives)
{
    const std::vector<Objectives> points = {{1.0, 4.0}, {3.0, 2.0}};
    const Objectives reference = {5.0, 5.0};
    const dse::HypervolumeGain gain(points, reference);
    EXPECT_EQ(gain.base(), dse::hypervolume(points, reference));
    for (const Objectives &candidate :
         {Objectives{2.0, 3.0}, Objectives{4.0, 4.0}, Objectives{6.0, 1.0},
          Objectives{0.5, 0.5}}) {
        EXPECT_EQ(gain.contribution(candidate),
                  dse::hypervolumeContribution(points, candidate,
                                               reference));
    }
}

TEST(HypervolumeDeath, RejectsHighDimensions)
{
    EXPECT_EXIT(dse::hypervolume({{1.0, 1.0, 1.0, 1.0}},
                                 {2.0, 2.0, 2.0, 2.0}),
                ::testing::ExitedWithCode(1), "objectives");
}
