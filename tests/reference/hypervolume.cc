#include "reference/hypervolume.h"

#include <algorithm>

namespace autopilot::dse
{

double
hypervolumeContribution(const std::vector<Objectives> &points,
                        const Objectives &candidate,
                        const Objectives &reference)
{
    const double base = hypervolume(points, reference);
    std::vector<Objectives> extended = points;
    extended.push_back(candidate);
    const double grown = hypervolume(extended, reference);
    return std::max(0.0, grown - base);
}

} // namespace autopilot::dse
