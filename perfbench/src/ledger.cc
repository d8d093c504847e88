#include "ledger.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/types.hh"

namespace perfbench
{

std::optional<double>
percentile(std::vector<double> samples, double q)
{
    const std::size_t n = samples.size();
    if (n == 0 || !(q > 0.0 && q < 1.0))
        return std::nullopt;
    const auto rank = std::size_t(std::ceil(q * double(n)));
    if (rank == 0 || n - rank < kMinSamplesBeyond)
        return std::nullopt;
    std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                     samples.end());
    return samples[rank - 1];
}

Tail
tailPercentile(const std::vector<double> &samples, double q_max)
{
    if (auto v = percentile(samples, q_max))
        return Tail{q_max, *v};
    const std::size_t n = samples.size();
    if (n <= 2 * kMinSamplesBeyond)
        return Tail{0.5, median(samples)};
    const std::size_t rank = n - kMinSamplesBeyond;
    std::vector<double> sorted = samples;
    std::nth_element(sorted.begin(), sorted.begin() + (rank - 1),
                     sorted.end());
    return Tail{double(rank) / double(n), sorted[rank - 1]};
}

std::string
tailLabel(const Tail &tail, std::size_t n, const std::string &of)
{
    char buf[128];
    std::snprintf(buf, sizeof(buf), "p%.3g of %zu %s", tail.q * 100.0, n,
                  of.c_str());
    return buf;
}

double
median(std::vector<double> samples)
{
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    const std::size_t n = samples.size();
    return n % 2 ? samples[n / 2]
                 : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

std::string
digestHex(const std::string &bytes)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(
                      dynaspam::bits::fnv1a(bytes.data(), bytes.size())));
    return buf;
}

void
Ledger::record(bool ok, const std::string &what)
{
    std::lock_guard<std::mutex> lock(mutex);
    attempts++;
    if (ok)
        return;
    failures_++;
    if (examples.size() < 8)
        examples.push_back(what);
}

void
checkSweep(Ledger &ledger,
           const std::vector<dynaspam::runner::JobOutcome> &outcomes,
           const std::string &bytes, const std::string &reference,
           const std::string &what)
{
    const bool same = reference.empty() || bytes == reference;
    for (const dynaspam::runner::JobOutcome &o : outcomes) {
        const bool ok = o.result.functionallyCorrect && same;
        ledger.record(ok, ok ? std::string()
                             : what + ": " + o.job.key() +
                                   (same ? " not functionally correct"
                                         : " report bytes differ"));
    }
}

void
checkResponse(Ledger &ledger, int status, bool body_ok,
              const std::string &what)
{
    const bool ok = status == 200 && body_ok;
    ledger.record(ok, ok ? std::string()
                         : what + ": HTTP " + std::to_string(status) +
                               (status == 200 ? " with a wrong body" : ""));
}

std::uint64_t
Ledger::attempted() const
{
    std::lock_guard<std::mutex> lock(mutex);
    return attempts;
}

std::uint64_t
Ledger::failed() const
{
    std::lock_guard<std::mutex> lock(mutex);
    return failures_;
}

double
Ledger::errorFrac() const
{
    std::lock_guard<std::mutex> lock(mutex);
    return attempts ? double(failures_) / double(attempts) : 0.0;
}

std::vector<std::string>
Ledger::failures() const
{
    std::lock_guard<std::mutex> lock(mutex);
    return examples;
}

} // namespace perfbench
