#include "systolic/contention.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "util/logging.h"

namespace autopilot::systolic
{

namespace
{

/// The configuration-independent checks: rates and the QoS floor.
std::string
rateReason(const ContentionProfile &profile)
{
    // !(x >= 0) instead of x < 0: NaN rates must not slip through.
    if (!(profile.cameraBytesPerSec >= 0.0) ||
        !std::isfinite(profile.cameraBytesPerSec))
        return "camera rate must be finite and >= 0";
    if (!(profile.hostBytesPerSec >= 0.0) ||
        !std::isfinite(profile.hostBytesPerSec))
        return "host rate must be finite and >= 0";
    if (!(profile.npuFloorFraction >= 0.0) ||
        profile.npuFloorFraction >= 1.0)
        return "QoS floor outside [0, 1)";
    return {};
}

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

void
ContentionProfile::validate() const
{
    const std::string reason = rateReason(*this);
    if (!reason.empty())
        util::fatal("ContentionProfile: " + reason);
}

std::string
ContentionProfile::infeasibleReason(const AcceleratorConfig &config) const
{
    std::string reason = rateReason(*this);
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
