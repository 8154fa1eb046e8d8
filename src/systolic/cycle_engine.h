/**
 * @file
 * Cycle-stepped accelerator engine.
 *
 * Runs the fold schedule through an explicit double-buffered prefetch
 * timeline over a single DRAM channel:
 *
 *   fetch_start[f]   = max(fetch_done[f-1], compute_done[f-2])
 *   fetch_done[f]    = fetch_start[f] + fetch_bytes[f] / BW
 *   compute_start[f] = max(compute_done[f-1], fetch_done[f])
 *   compute_done[f]  = compute_start[f] + fold_cycles[f]
 *
 * Writebacks share the DRAM channel and are issued after the producing
 * fold completes; the layer retires when both the last fold's compute and
 * all writebacks have drained. The compute_done[f-2] term models the two
 * buffer halves: the prefetch target for fold f is the half still in use
 * until fold f-2's compute finishes... (with two halves, fold f's buffer
 * is freed when fold f-2 completes, allowing fetch f to begin).
 *
 * runLayer() compiles the layer into a FoldStream and jumps over each
 * run's steady state (jumpFoldTimeline, fold_stream.h). The reference it
 * is checked against, the same stream stepped fold by fold through
 * runFoldTimeline(), lives with the tests (tests/reference/systolic.h).
 */

#ifndef AUTOPILOT_SYSTOLIC_CYCLE_ENGINE_H
#define AUTOPILOT_SYSTOLIC_CYCLE_ENGINE_H

#include "systolic/contention.h"
#include "systolic/engine.h"
#include "systolic/fold_stream.h"

namespace autopilot::systolic
{

/** Reference engine with an explicit prefetch/writeback timeline. */
class CycleEngine : public Engine
{
  public:
    /** @param config Accelerator configuration (validated). */
    explicit CycleEngine(const AcceleratorConfig &config);

    /**
     * @param config  Accelerator configuration (validated).
     * @param profile Background traffic sharing the DRAM channel
     *                (validated). Fetch/writeback cycles are scaled by
     *                the profile's effective-bandwidth derate; fatal at
     *                construction when the derated bandwidth is not
     *                positive (fully-contended channel with no QoS
     *                floor) - an infeasible profile must be diagnosed,
     *                not simulated into infinite fold times.
     */
    CycleEngine(const AcceleratorConfig &config,
                const ContentionProfile &profile);

    LayerResult runLayer(const nn::Layer &layer) const override;

    const AcceleratorConfig &config() const { return cfg; }
    const ContentionProfile &contention() const { return profile; }

  private:
    AcceleratorConfig cfg;
    ContentionProfile profile;
    /// Effective-bandwidth fraction left to the NPU; 1.0 when the
    /// profile is empty (exact integer fold-cycle path, bit-identical
    /// to the contention-free engine).
    double bandwidthDerate = 1.0;
};

} // namespace autopilot::systolic

#endif // AUTOPILOT_SYSTOLIC_CYCLE_ENGINE_H
