// fixture-path: apps/{}
// Selftest fixture: outside the determinism core, durations measured
// with steady_clock and configuration read from the environment are
// fine. Only the core bans every host clock and entropy source.

#include <chrono>
#include <cstdlib>
#include <random>

namespace fixture
{

double
elapsedSeconds(unsigned seed)
{
    const auto start = std::chrono::steady_clock::now();
    std::mt19937 rng(seed);
    const char *jobs = std::getenv("DYNASPAM_JOBS");
    volatile unsigned sink = rng() + (jobs ? 1u : 0u);
    (void)sink;
    const std::chrono::duration<double> took =
        std::chrono::steady_clock::now() - start;
    return took.count();
}

} // namespace fixture
