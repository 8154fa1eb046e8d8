/**
 * @file
 * Reference episode rollout, kept verbatim as the oracle
 * airlearning::runEpisode and airlearning::evaluatePolicy are checked
 * against bit for bit: three passes over the obstacles per control step
 * (sense, steer and Environment::clearance), each recomputing the centre
 * distances, and a heap-allocated detection mask per episode. Test-only;
 * the library measures each centre distance once per step.
 */

#ifndef AUTOPILOT_TESTS_REFERENCE_ROLLOUT_H
#define AUTOPILOT_TESTS_REFERENCE_ROLLOUT_H

#include <cstdint>

#include "airlearning/environment.h"
#include "airlearning/policy.h"
#include "airlearning/rollout.h"
#include "util/rng.h"

namespace autopilot::airlearning::reference
{

/** Run one episode (see airlearning::runEpisode). */
EpisodeResult runEpisode(const Environment &env,
                         const PolicyCapability &capability,
                         const RolloutConfig &config, util::Rng &rng);

/** Evaluate a policy over many episodes (see
 *  airlearning::evaluatePolicy). */
EvaluationResult evaluatePolicy(const EnvironmentConfig &env_config,
                                const PolicyCapability &capability,
                                int episodes, std::uint64_t seed,
                                const RolloutConfig &config =
                                    RolloutConfig());

} // namespace autopilot::airlearning::reference

#endif // AUTOPILOT_TESTS_REFERENCE_ROLLOUT_H
