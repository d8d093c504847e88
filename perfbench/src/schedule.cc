#include "schedule.hh"

#include <map>
#include <sstream>
#include <stdexcept>

#include "workloads/workload.hh"

namespace perfbench
{

using dynaspam::runner::Job;

namespace
{

/** SplitMix64: small, fast and identical on every platform. */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed) : state(seed) {}

    std::uint64_t next();

    /** Uniform in [0, bound); @p bound must be > 0. */
    std::uint64_t below(std::uint64_t bound);

  private:
    std::uint64_t state;
};

/** Fisher-Yates shuffle of @p items under @p seed. */
template <typename T>
void
shuffle(std::vector<T> &items, std::uint64_t seed)
{
    Rng rng(seed);
    for (std::size_t i = items.size(); i > 1; i--)
        std::swap(items[i - 1], items[rng.below(i)]);
}

std::uint64_t
Rng::next()
{
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

std::uint64_t
Rng::below(std::uint64_t bound)
{
    // Rejection sampling keeps the draw unbiased for any bound.
    const std::uint64_t limit = ~std::uint64_t(0) - (~std::uint64_t(0) % bound);
    std::uint64_t x;
    do {
        x = next();
    } while (x >= limit);
    return x % bound;
}

} // namespace

std::vector<Job>
coldSweepJobs(std::uint64_t seed)
{
    std::vector<Job> jobs = dynaspam::runner::sweepJobs(
        "fig8", dynaspam::workloads::allWorkloadNames(), kSweepScale, 32);
    shuffle(jobs, seed);
    return jobs;
}

std::vector<Job>
forkSweepJobs(const std::vector<std::uint64_t> &warmup_insts,
              std::uint64_t seed)
{
    const std::vector<std::string> &names =
        dynaspam::workloads::allWorkloadNames();
    if (warmup_insts.size() != names.size())
        throw std::invalid_argument("one warmup length per kernel");
    std::vector<Job> jobs;
    for (std::size_t k = 0; k < names.size(); k++) {
        for (Job job : dynaspam::runner::sweepJobs("table5", {names[k]},
                                                   kSweepScale, 32)) {
            job.warmupInsts = warmup_insts[k];
            jobs.push_back(job);
        }
    }
    shuffle(jobs, seed);
    return jobs;
}

std::vector<std::size_t>
canonicalOrder(const std::vector<Job> &jobs, const std::vector<Job> &canonical)
{
    std::multimap<std::string, std::size_t> byKey;
    for (std::size_t i = 0; i < jobs.size(); i++)
        byKey.emplace(jobs[i].key(), i);
    std::vector<std::size_t> order;
    order.reserve(canonical.size());
    for (const Job &job : canonical) {
        auto it = byKey.find(job.key());
        if (it == byKey.end())
            throw std::invalid_argument("job lists differ: " + job.key());
        order.push_back(it->second);
        byKey.erase(it);
    }
    return order;
}

std::vector<std::vector<std::string>>
missCatalogue()
{
    std::vector<std::vector<std::string>> strata;
    for (const char *kernel : {"bp", "bt", "ld", "nw", "knn"})
        for (const char *mode : {"baseline-ooo", "mapping-only",
                                 "accel-nospec", "accel-spec", "accel-naive"}) {
            std::vector<std::string> specs;
            for (unsigned len : {16u, 20u, 24u, 28u, 32u, 36u, 40u, 48u})
                for (unsigned fabrics : {1u, 2u, 4u, 8u}) {
                    std::ostringstream os;
                    os << "{\"workload\": \"" << kernel << "\", \"mode\": \""
                       << mode << "\", \"trace_length\": " << len
                       << ", \"num_fabrics\": " << fabrics
                       << ", \"scale\": 2}";
                    specs.push_back(os.str());
                }
            strata.push_back(std::move(specs));
        }
    return strata;
}

ServeSchedule
makeServeSchedule(std::uint64_t seed)
{
    ServeSchedule s;
    // Fig8 over one cheap kernel each: 4 jobs per body, 32 in all, far
    // inside the server's smallest retained-job tier.
    for (const char *kernel :
         {"bp", "bfs", "bt", "ld", "knn", "nw", "pf", "ptf"}) {
        s.hotBodies.push_back(std::string("{\"sweep\": \"fig8\", ") +
                              "\"workloads\": [\"" + kernel +
                              "\"], \"scale\": 1, \"trace_length\": 32}");
        s.hotJobs += 4;
    }

    // Stratified draw: every run of strata.size() consecutive misses
    // holds one spec of each (kernel, mode) stratum, so the cost mix of
    // the misses a run reaches barely depends on the seed.
    std::vector<std::vector<std::string>> strata = missCatalogue();
    for (std::size_t k = 0; k < strata.size(); k++)
        shuffle(strata[k], seed + k + 1);
    std::vector<std::string> misses;
    for (std::size_t round = 0; round < strata.front().size(); round++) {
        std::vector<std::size_t> order(strata.size());
        for (std::size_t k = 0; k < order.size(); k++)
            order[k] = k;
        shuffle(order, seed * 31 + round);
        for (std::size_t k : order)
            misses.push_back(strata[k][round]);
    }
    Rng rng(seed ^ 0x5eed5eed5eed5eedull);
    for (const std::string &miss : misses) {
        const std::uint64_t slot = rng.below(kBlockRequests);
        for (unsigned i = 0; i < kBlockRequests; i++) {
            Request r;
            if (i == slot) {
                r.target = "/run";
                r.body = miss;
            } else {
                r.hit = true;
                r.hot = unsigned(rng.below(s.hotBodies.size()));
                r.target = "/sweep";
                r.body = s.hotBodies[r.hot];
            }
            s.requests.push_back(std::move(r));
        }
    }
    return s;
}

std::string
scheduleBytes(const ServeSchedule &schedule)
{
    std::string out;
    for (const std::string &body : schedule.hotBodies)
        out += "hot " + body + "\n";
    for (const Request &r : schedule.requests)
        out += r.target + " " + r.body + "\n";
    return out;
}

} // namespace perfbench
