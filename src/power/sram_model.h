/**
 * @file
 * CACTI-style analytic SRAM energy and leakage model.
 *
 * The paper models scratchpad power with CACTI-P [49]; we reproduce the
 * scaling behaviour CACTI exhibits for single-banked scratchpads at 28 nm:
 * per-access energy grows roughly with the square root of capacity (longer
 * bit/word lines), leakage grows linearly with capacity.
 */

#ifndef AUTOPILOT_POWER_SRAM_MODEL_H
#define AUTOPILOT_POWER_SRAM_MODEL_H

#include <cstdint>

#include "power/technology.h"

namespace autopilot::power
{

/** Analytic SRAM macro model, parameterized by capacity and node. */
class SramModel
{
  public:
    /**
     * @param capacity_kb Macro capacity in KiB (> 0, fatal otherwise).
     * @param node        Process node; defaults to the 28 nm reference.
     */
    explicit SramModel(int capacity_kb,
                       const TechnologyNode &node = referenceNode());

    /** Energy of one 8-bit read, picojoules. */
    double readEnergyPj() const;

    /** Energy of one 8-bit write, picojoules (~1.1x read). */
    double writeEnergyPj() const;

    /** Standby leakage power, milliwatts. */
    double leakageMw() const;

  private:
    int kb;
    TechnologyNode tech;

    // 28 nm reference constants, calibrated so a 32 KiB macro costs
    // ~0.8 pJ per byte-read and leaks ~0.05 mW per KiB.
    static constexpr double baseReadPj = 0.8;
    static constexpr double baseCapacityKb = 32.0;
    static constexpr double writeFactor = 1.1;
    static constexpr double leakMwPerKb = 0.05;
};

} // namespace autopilot::power

#endif // AUTOPILOT_POWER_SRAM_MODEL_H
