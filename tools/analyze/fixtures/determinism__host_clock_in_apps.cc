// fixture-path: apps/{}
// Selftest fixture: legacy RNG and wall-clock reads outside the
// determinism core. apps/ and the rest of src/ may time durations
// with steady_clock, but never seed from or report the wall clock.

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <ctime>
#include <sys/time.h>
#include <vector>

namespace fixture
{

long
legacyRng(std::vector<int> &order)
{
    srand(42);
    std::random_shuffle(order.begin(), order.end());
    return rand();
}

long
wallClock()
{
    timeval tv{};
    gettimeofday(&tv, nullptr);
    const auto now = std::chrono::system_clock::now();
    return long(time(nullptr)) + tv.tv_sec +
           long(now.time_since_epoch().count());
}

} // namespace fixture
