#include "reference/rollout.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "util/logging.h"

namespace autopilot::airlearning::reference
{

namespace
{

double
distance(double ax, double ay, double bx, double by)
{
    const double dx = ax - bx;
    const double dy = ay - by;
    return std::sqrt(dx * dx + dy * dy);
}

} // namespace

EpisodeResult
runEpisode(const Environment &env, const PolicyCapability &capability,
           const RolloutConfig &config, util::Rng &rng)
{
    util::fatalIf(config.speedMps <= 0.0 || config.dtSeconds <= 0.0,
                  "runEpisode: speed and dt must be positive");
    util::fatalIf(config.maxSteps <= 0, "runEpisode: maxSteps must be > 0");

    double x = env.start.x;
    double y = env.start.y;
    double current_heading =
        std::atan2(env.goal.y - y, env.goal.x - x);
    // Detection memory: once seen, an obstacle stays tracked.
    std::vector<bool> detected(env.obstacles.size(), false);

    EpisodeResult result;
    result.minClearanceM = std::numeric_limits<double>::max();

    for (int step = 0; step < config.maxSteps; ++step) {
        result.steps = step + 1;

        // --- Sense ---
        for (std::size_t i = 0; i < env.obstacles.size(); ++i) {
            if (detected[i])
                continue;
            const Obstacle &obstacle = env.obstacles[i];
            const double surface =
                distance(x, y, obstacle.x, obstacle.y) - obstacle.radius;
            const double effective_range =
                obstacle.camouflaged
                    ? std::min(0.6, capability.perceptionRangeM)
                    : capability.perceptionRangeM;
            if (surface <= effective_range &&
                rng.bernoulli(capability.detectionProb)) {
                detected[i] = true;
            }
        }

        // --- Steer: goal attraction + repulsion from tracked obstacles ---
        double hx = env.goal.x - x;
        double hy = env.goal.y - y;
        const double goal_dist = std::sqrt(hx * hx + hy * hy);
        if (goal_dist > 1e-9) {
            hx /= goal_dist;
            hy /= goal_dist;
        }
        const double goal_ux = hx;
        const double goal_uy = hy;
        for (std::size_t i = 0; i < env.obstacles.size(); ++i) {
            if (!detected[i])
                continue;
            const Obstacle &obstacle = env.obstacles[i];
            const double center_dist =
                distance(x, y, obstacle.x, obstacle.y);
            const double surface = center_dist - obstacle.radius;
            if (surface > config.avoidMarginM)
                continue;
            // Only react to obstacles ahead of the direction of travel,
            // unless dangerously close; repulsion from obstacles already
            // passed would cancel the goal attraction.
            if (center_dist > 1e-9) {
                const double toward_x = (obstacle.x - x) / center_dist;
                const double toward_y = (obstacle.y - y) / center_dist;
                const bool ahead =
                    toward_x * goal_ux + toward_y * goal_uy > -0.1;
                const bool panic = surface < 0.5 * config.avoidMarginM;
                if (!ahead && !panic)
                    continue;
                const double closeness =
                    (config.avoidMarginM - surface) / config.avoidMarginM;
                // Quadratic radial growth: gentle far out, dominant when
                // about to graze the surface.
                const double strength =
                    config.repulsionGain * closeness * closeness;
                // Slide around the obstacle: mostly tangential steering
                // (choosing the tangent that keeps goal progress) plus a
                // radial push-out. Pure radial repulsion creates local
                // minima between obstacle pairs.
                double tan_x = -toward_y;
                double tan_y = toward_x;
                if (tan_x * goal_ux + tan_y * goal_uy < 0.0) {
                    tan_x = -tan_x;
                    tan_y = -tan_y;
                }
                hx += strength * (1.0 * tan_x - 1.4 * toward_x);
                hy += strength * (1.0 * tan_y - 1.4 * toward_y);
            }
        }

        // --- Policy noise and vehicle dynamics ---
        double desired = std::atan2(hy, hx);
        desired += rng.normal(0.0, capability.headingNoiseRad);
        double delta = desired - current_heading;
        while (delta > M_PI)
            delta -= 2.0 * M_PI;
        while (delta < -M_PI)
            delta += 2.0 * M_PI;
        delta = std::clamp(delta, -config.maxTurnRadPerStep,
                           config.maxTurnRadPerStep);
        current_heading += delta;

        // --- Move ---
        const double step_len = config.speedMps * config.dtSeconds;
        x += step_len * std::cos(current_heading);
        y += step_len * std::sin(current_heading);
        if (config.windSigmaM > 0.0) {
            x += rng.normal(0.0, config.windSigmaM);
            y += rng.normal(0.0, config.windSigmaM);
        }
        x = std::clamp(x, 0.0, env.arenaSize);
        y = std::clamp(y, 0.0, env.arenaSize);
        result.pathLengthM += step_len;

        // --- Terminate ---
        const double clearance = env.obstacles.empty()
                                     ? env.arenaSize
                                     : env.clearance(x, y);
        result.minClearanceM = std::min(result.minClearanceM, clearance);
        if (clearance < config.robotRadiusM) {
            result.outcome = EpisodeOutcome::Collision;
            return result;
        }
        if (distance(x, y, env.goal.x, env.goal.y) <=
            config.goalToleranceM) {
            result.outcome = EpisodeOutcome::Success;
            return result;
        }
    }

    result.outcome = EpisodeOutcome::Timeout;
    return result;
}

EvaluationResult
evaluatePolicy(const EnvironmentConfig &env_config,
               const PolicyCapability &capability, int episodes,
               std::uint64_t seed, const RolloutConfig &config)
{
    util::fatalIf(episodes <= 0, "evaluatePolicy: episodes must be > 0");

    const EnvironmentGenerator generator(env_config);
    util::Rng master(seed);

    EvaluationResult aggregate;
    aggregate.episodes = episodes;
    double path_sum = 0.0;
    for (int episode = 0; episode < episodes; ++episode) {
        util::Rng env_rng =
            master.fork(static_cast<std::uint64_t>(episode) * 2);
        util::Rng episode_rng =
            master.fork(static_cast<std::uint64_t>(episode) * 2 + 1);
        const Environment env = generator.generate(env_rng);
        const EpisodeResult result =
            reference::runEpisode(env, capability, config, episode_rng);
        switch (result.outcome) {
          case EpisodeOutcome::Success:
            ++aggregate.successes;
            break;
          case EpisodeOutcome::Collision:
            ++aggregate.collisions;
            break;
          case EpisodeOutcome::Timeout:
            ++aggregate.timeouts;
            break;
        }
        path_sum += result.pathLengthM;
    }
    aggregate.meanPathLengthM = path_sum / episodes;
    return aggregate;
}

} // namespace autopilot::airlearning::reference
