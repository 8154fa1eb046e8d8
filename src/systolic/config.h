/**
 * @file
 * Accelerator configuration (the "DSSoC template" of Fig. 3a) and the
 * hardware half of the Table II design space.
 */

#ifndef AUTOPILOT_SYSTOLIC_CONFIG_H
#define AUTOPILOT_SYSTOLIC_CONFIG_H

#include <cstdint>
#include <string>
#include <vector>

#include "systolic/dataflow.h"

namespace autopilot::systolic
{

/**
 * Parameterized NPU template: a Sr x Sc systolic array with three
 * scratchpads (ifmap / filter / ofmap) and a DRAM interface.
 *
 * All scratchpads are double-buffered: half the capacity holds the working
 * tile while the other half is prefetched.
 */
struct AcceleratorConfig
{
    int peRows = 32;            ///< Systolic array height Sr.
    int peCols = 32;            ///< Systolic array width Sc.
    int ifmapSramKb = 256;      ///< Input feature-map scratchpad, KiB.
    int filterSramKb = 256;     ///< Filter scratchpad, KiB.
    int ofmapSramKb = 256;      ///< Output feature-map scratchpad, KiB.
    Dataflow dataflow = Dataflow::WeightStationary;
    double clockGhz = 0.2;      ///< NPU clock; 200 MHz default.
    int dramBytesPerCycle = 32; ///< DRAM interface width (bytes/cycle).
    int bytesPerElement = 1;    ///< INT8 quantized inference.

    /** Total number of processing elements. */
    std::int64_t peCount() const
    {
        return static_cast<std::int64_t>(peRows) * peCols;
    }

    /** Total on-chip SRAM capacity in KiB. */
    std::int64_t totalSramKb() const
    {
        return static_cast<std::int64_t>(ifmapSramKb) + filterSramKb +
               ofmapSramKb;
    }

    /** Short identifier, e.g. "ws_32x32_i256_f256_o256". */
    std::string name() const;

    /** Abort via fatal() when any field is out of its legal range. */
    void validate() const;

    bool operator==(const AcceleratorConfig &other) const = default;
};

/**
 * The hardware design space of Table II: PE rows/columns in
 * {8,...,1024}, scratchpad sizes in {32KB,...,4096KB}. The precision
 * axis (operand bytes per element) defaults to the single int8 choice,
 * which keeps legacy 7-dimension searches bit-identical; widening it to
 * {1,2,4} turns inference precision into an 8th search dimension.
 */
struct HardwareSpace
{
    std::vector<int> peRowChoices = {8, 16, 32, 64, 128, 256, 512, 1024};
    std::vector<int> peColChoices = {8, 16, 32, 64, 128, 256, 512, 1024};
    std::vector<int> sramKbChoices = {32, 64, 128, 256, 512, 1024, 2048,
                                      4096};
    std::vector<int> bytesPerElementChoices = {1};

    /** Number of distinct configurations (PEs x SRAMs x precisions). */
    std::int64_t cardinality() const;

    /** True when @p config uses only legal choice values (including
     *  bytesPerElement: an out-of-space precision is rejected here the
     *  same way DesignSpace::encode rejects it with a fatal). */
    bool contains(const AcceleratorConfig &config) const;

    /**
     * @p count configurations whose array and scratchpad sizes a seeded
     * Rng draws from this space, cycling WS/OS/IS, followed by the
     * space's smallest and largest corners: the randomized corpus the
     * engine differential tests and perf smokes run.
     */
    std::vector<AcceleratorConfig> sampleCorpus(std::size_t count,
                                                std::uint64_t seed) const;
};

/** Canonical label for an operand width: 1 -> "int8", 2 -> "fp16",
 *  4 -> "fp32". Aborts via fatal() on any other width. */
std::string precisionName(int bytesPerElement);

/** Inverse of precisionName. Returns false on an unknown label. */
bool precisionFromName(const std::string &name, int &bytesPerElement);

/**
 * Parse a comma-separated precision list ("int8,fp16,fp32") into
 * ascending operand widths. Rejects empty lists, unknown labels and
 * duplicates with a diagnosis in @p error.
 */
bool parsePrecisionList(const std::string &text,
                        std::vector<int> &bytesPerElement,
                        std::string &error);

/** Stable text form of a precision list, e.g. "int8+fp16+fp32"; used
 *  by task fingerprints and telemetry labels. */
std::string formatPrecisionList(const std::vector<int> &bytesPerElement);

} // namespace autopilot::systolic

#endif // AUTOPILOT_SYSTOLIC_CONFIG_H
