#include "util/rng.h"

#include <cmath>

#include "util/logging.h"

namespace autopilot::util
{

std::uint64_t
SplitMix64::next()
{
    std::uint64_t z = (state += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

Rng::Rng(std::uint64_t seed)
{
    SplitMix64 sm(seed);
    for (auto &word : state)
        word = sm.next();
}

int
Rng::uniformInt(int lo, int hi)
{
    panicIf(lo > hi, "Rng::uniformInt: lo > hi");
    const std::uint64_t span = static_cast<std::uint64_t>(hi) - lo + 1;
    return lo + static_cast<int>(next64() % span);
}

std::size_t
Rng::index(std::size_t n)
{
    panicIf(n == 0, "Rng::index: empty range");
    return static_cast<std::size_t>(next64() % n);
}

double
Rng::normal()
{
    if (hasSpareNormal) {
        hasSpareNormal = false;
        return spareNormal;
    }
    double u1 = 0.0;
    do {
        u1 = uniform();
    } while (u1 <= 0.0);
    const double u2 = uniform();
    const double radius = std::sqrt(-2.0 * std::log(u1));
    const double angle = 2.0 * M_PI * u2;
    spareNormal = radius * std::sin(angle);
    hasSpareNormal = true;
    return radius * std::cos(angle);
}

double
Rng::normal(double mean, double stddev)
{
    return mean + stddev * normal();
}

Rng
Rng::fork(std::uint64_t tag)
{
    // Mix the tag with fresh output so forked streams diverge even for
    // adjacent tags.
    return Rng(next64() ^ (tag * 0xD1B54A32D192ED03ull));
}

} // namespace autopilot::util
