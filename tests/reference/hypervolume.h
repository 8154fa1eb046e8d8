/**
 * @file
 * Reference hypervolume gain, kept verbatim as the oracle
 * dse::HypervolumeGain is checked against bit for bit: both volumes
 * recomputed from scratch for every candidate. Test-only.
 */

#ifndef AUTOPILOT_TESTS_REFERENCE_HYPERVOLUME_H
#define AUTOPILOT_TESTS_REFERENCE_HYPERVOLUME_H

#include <vector>

#include "dse/hypervolume.h"

namespace autopilot::dse
{

/**
 * Hypervolume gained by adding @p candidate to @p points.
 *
 * Non-negative; zero when the candidate is dominated. This recomputes
 * both volumes from scratch and is the reference HypervolumeGain is
 * checked against.
 */
double hypervolumeContribution(const std::vector<Objectives> &points,
                               const Objectives &candidate,
                               const Objectives &reference);

} // namespace autopilot::dse

#endif // AUTOPILOT_TESTS_REFERENCE_HYPERVOLUME_H
