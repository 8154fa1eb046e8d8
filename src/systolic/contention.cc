#include "systolic/contention.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "util/logging.h"

namespace autopilot::systolic
{

namespace
{

double
peakBytesPerSec(const AcceleratorConfig &config)
{
    return static_cast<double>(config.dramBytesPerCycle) *
           config.clockGhz * 1e9;
}

} // namespace

double
ContentionProfile::derate(const AcceleratorConfig &config) const
{
    const double share = 1.0 - totalBytesPerSec() / peakBytesPerSec(config);
    return std::max(share, npuFloorFraction);
}

std::string
ContentionProfile::rateReason() const
{
    // !(x >= 0) instead of x < 0: NaN rates must not slip through.
    if (!(cameraBytesPerSec >= 0.0) || !std::isfinite(cameraBytesPerSec))
        return "camera rate must be finite and >= 0";
    if (!(hostBytesPerSec >= 0.0) || !std::isfinite(hostBytesPerSec))
        return "host rate must be finite and >= 0";
    if (!(npuFloorFraction >= 0.0) || npuFloorFraction >= 1.0)
        return "QoS floor outside [0, 1)";
    return {};
}

void
ContentionProfile::validate() const
{
    const std::string reason = rateReason();
    if (!reason.empty())
        util::fatal("ContentionProfile: " + reason);
}

std::string
ContentionProfile::infeasibleReason(const AcceleratorConfig &config) const
{
    std::string reason = rateReason();
    if (!reason.empty() || !enabled() || derate(config) > 0.0)
        return reason;
    std::ostringstream what;
    what << "contention profile leaves no DRAM bandwidth to the NPU "
            "(background "
         << totalBytesPerSec() << " B/s >= peak "
         << peakBytesPerSec(config)
         << " B/s and no QoS floor) - raise npuFloorFraction or lower "
            "the background load";
    return what.str();
}

} // namespace autopilot::systolic
