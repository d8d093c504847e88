/**
 * @file
 * Seeded inputs: the job lists of the sweep workloads and the request
 * schedule of the serving workloads. The same seed always yields the
 * same bytes; the program under test sees only what these build.
 */

#ifndef PERFBENCH_SCHEDULE_HH
#define PERFBENCH_SCHEDULE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "runner/job.hh"

namespace perfbench
{

/** Problem scale of the sweep workloads. */
inline constexpr unsigned kSweepScale = 2;

/** Warmup prefix of a sweep-fork job, as a share of its oracle length. */
inline constexpr double kForkWarmupShare = 0.5;

/**
 * The Figure 8 sweep over all 11 kernels (4 modes each), in the order
 * the seed permutes it to. Canonical order is sweepJobs' order.
 */
std::vector<dynaspam::runner::Job> coldSweepJobs(std::uint64_t seed);

/**
 * The Table 5 sweep over all 11 kernels (accel-spec x 1/2/4/8 fabrics),
 * each job warming up for @p warmup_insts[k] committed instructions
 * (indexed like runner allWorkloadNames()), in seeded order.
 */
std::vector<dynaspam::runner::Job>
forkSweepJobs(const std::vector<std::uint64_t> &warmup_insts,
              std::uint64_t seed);

/**
 * Restore canonical order: @p items[i] belongs to @p jobs[i]; the
 * result is sorted like @p canonical (which must hold the same jobs).
 */
std::vector<std::size_t>
canonicalOrder(const std::vector<dynaspam::runner::Job> &jobs,
               const std::vector<dynaspam::runner::Job> &canonical);

/** One request of a serving schedule. */
struct Request
{
    bool hit = false;           ///< a repeat of a primed hot-set body
    unsigned hot = 0;           ///< hot-set index (hits only)
    std::string target;         ///< "/sweep" or "/run"
    std::string body;
};

/** Requests per block; each block holds exactly one miss. */
inline constexpr unsigned kBlockRequests = 10;

/** A seeded serving schedule. */
struct ServeSchedule
{
    /** Hot-set /sweep bodies: primed during set-up, then cache hits. */
    std::vector<std::string> hotBodies;
    /** Jobs the hot set expands to (what the server must retain). */
    unsigned hotJobs = 0;
    /** Every block of kBlockRequests: one unique /run miss, the rest
     *  seeded hot-set hits. Long enough that a run never exhausts it. */
    std::vector<Request> requests;
};

/** The schedule for @p seed. */
ServeSchedule makeServeSchedule(std::uint64_t seed);

/**
 * The fixed miss catalogue: distinct /run specs at scale 2 over kernels
 * whose single-job costs sit within ~2x of each other, so the miss tail
 * measures the miss path rather than which kernel a seed drew. Grouped
 * into one stratum per (kernel, mode); every stratum has the same size.
 * Disjoint from the hot set (scale 1).
 */
std::vector<std::vector<std::string>> missCatalogue();

/** A byte rendering of @p schedule, for determinism checks. */
std::string scheduleBytes(const ServeSchedule &schedule);

} // namespace perfbench

#endif // PERFBENCH_SCHEDULE_HH
