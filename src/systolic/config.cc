#include "systolic/config.h"

#include <algorithm>
#include <cctype>

#include "util/logging.h"
#include "util/rng.h"

namespace autopilot::systolic
{

using util::fatalIf;

std::string
AcceleratorConfig::name() const
{
    std::string label = dataflowName(dataflow);
    std::transform(label.begin(), label.end(), label.begin(),
                   [](unsigned char ch) {
                       return static_cast<char>(std::tolower(ch));
                   });
    return label + "_" + std::to_string(peRows) + "x" +
           std::to_string(peCols) + "_i" + std::to_string(ifmapSramKb) +
           "_f" + std::to_string(filterSramKb) + "_o" +
           std::to_string(ofmapSramKb);
}

void
AcceleratorConfig::validate() const
{
    fatalIf(peRows <= 0 || peCols <= 0,
            "AcceleratorConfig: PE dimensions must be positive");
    fatalIf(ifmapSramKb <= 0 || filterSramKb <= 0 || ofmapSramKb <= 0,
            "AcceleratorConfig: scratchpad sizes must be positive");
    fatalIf(clockGhz <= 0.0, "AcceleratorConfig: clock must be positive");
    fatalIf(dramBytesPerCycle <= 0,
            "AcceleratorConfig: DRAM width must be positive");
    fatalIf(bytesPerElement <= 0,
            "AcceleratorConfig: element size must be positive");
}

std::int64_t
HardwareSpace::cardinality() const
{
    const auto sram = static_cast<std::int64_t>(sramKbChoices.size());
    return static_cast<std::int64_t>(peRowChoices.size()) *
           static_cast<std::int64_t>(peColChoices.size()) * sram * sram *
           sram * static_cast<std::int64_t>(bytesPerElementChoices.size());
}

bool
HardwareSpace::contains(const AcceleratorConfig &config) const
{
    auto has = [](const std::vector<int> &choices, int value) {
        return std::find(choices.begin(), choices.end(), value) !=
               choices.end();
    };
    return has(peRowChoices, config.peRows) &&
           has(peColChoices, config.peCols) &&
           has(sramKbChoices, config.ifmapSramKb) &&
           has(sramKbChoices, config.filterSramKb) &&
           has(sramKbChoices, config.ofmapSramKb) &&
           has(bytesPerElementChoices, config.bytesPerElement);
}

std::vector<AcceleratorConfig>
HardwareSpace::sampleCorpus(std::size_t count, std::uint64_t seed) const
{
    util::Rng rng(seed);
    auto draw = [&rng](const std::vector<int> &choices) {
        return choices[rng.index(choices.size())];
    };
    std::vector<AcceleratorConfig> configs;
    configs.reserve(count + 2);
    for (std::size_t i = 0; i < count; ++i) {
        AcceleratorConfig config;
        config.peRows = draw(peRowChoices);
        config.peCols = draw(peColChoices);
        config.ifmapSramKb = draw(sramKbChoices);
        config.filterSramKb = draw(sramKbChoices);
        config.ofmapSramKb = draw(sramKbChoices);
        constexpr Dataflow dataflows[] = {Dataflow::WeightStationary,
                                          Dataflow::OutputStationary,
                                          Dataflow::InputStationary};
        config.dataflow = dataflows[i % 3];
        configs.push_back(config);
    }
    // The corners of the space on top of the random sample.
    for (const bool largest : {false, true}) {
        auto pick = [largest](const std::vector<int> &choices) {
            return largest
                       ? *std::max_element(choices.begin(), choices.end())
                       : *std::min_element(choices.begin(), choices.end());
        };
        AcceleratorConfig config;
        config.peRows = pick(peRowChoices);
        config.peCols = pick(peColChoices);
        config.ifmapSramKb = config.filterSramKb = config.ofmapSramKb =
            pick(sramKbChoices);
        configs.push_back(config);
    }
    return configs;
}

std::string
precisionName(int bytesPerElement)
{
    switch (bytesPerElement) {
    case 1:
        return "int8";
    case 2:
        return "fp16";
    case 4:
        return "fp32";
    default:
        util::fatal("precisionName: unsupported operand width " +
                    std::to_string(bytesPerElement) +
                    " bytes (want 1, 2 or 4)");
    }
}

bool
precisionFromName(const std::string &name, int &bytesPerElement)
{
    if (name == "int8") {
        bytesPerElement = 1;
    } else if (name == "fp16") {
        bytesPerElement = 2;
    } else if (name == "fp32") {
        bytesPerElement = 4;
    } else {
        return false;
    }
    return true;
}

bool
parsePrecisionList(const std::string &text,
                   std::vector<int> &bytesPerElement, std::string &error)
{
    std::vector<int> parsed;
    std::string token;
    std::size_t start = 0;
    while (start <= text.size()) {
        const std::size_t comma = text.find(',', start);
        token = text.substr(start, comma == std::string::npos
                                       ? std::string::npos
                                       : comma - start);
        // Trim surrounding whitespace so "int8, fp16" parses.
        while (!token.empty() &&
               std::isspace(static_cast<unsigned char>(token.front())))
            token.erase(token.begin());
        while (!token.empty() &&
               std::isspace(static_cast<unsigned char>(token.back())))
            token.pop_back();
        int width = 0;
        if (!precisionFromName(token, width)) {
            error = "unknown precision '" + token +
                    "' (want int8|fp16|fp32)";
            return false;
        }
        if (std::find(parsed.begin(), parsed.end(), width) !=
            parsed.end()) {
            error = "duplicate precision '" + token + "'";
            return false;
        }
        parsed.push_back(width);
        if (comma == std::string::npos)
            break;
        start = comma + 1;
    }
    if (parsed.empty()) {
        error = "empty precision list";
        return false;
    }
    std::sort(parsed.begin(), parsed.end());
    bytesPerElement = std::move(parsed);
    return true;
}

std::string
formatPrecisionList(const std::vector<int> &bytesPerElement)
{
    std::string out;
    for (const int width : bytesPerElement) {
        if (!out.empty())
            out += '+';
        out += precisionName(width);
    }
    return out;
}

} // namespace autopilot::systolic
