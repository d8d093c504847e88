/**
 * @file
 * Run bookkeeping shared by every workload: the operation ledger behind
 * `attempted`/`failed`, the metrics a run reports, and the order
 * statistics used to summarise timings.
 */

#ifndef PERFBENCH_LEDGER_HH
#define PERFBENCH_LEDGER_HH

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "runner/report.hh"

namespace perfbench
{

/**
 * A percentile is reported only when at least this many samples lie
 * beyond it; below that it is one outlier wide.
 */
inline constexpr std::size_t kMinSamplesBeyond = 10;

/**
 * Nearest-rank percentile @p q (0 < q < 1) of @p samples.
 * @return nullopt when fewer than kMinSamplesBeyond samples rank above it
 */
std::optional<double> percentile(std::vector<double> samples, double q);

/** A tail percentile and which one it is. */
struct Tail
{
    double q = 0.5;
    double value = 0.0;
};

/**
 * The highest percentile up to @p q_max that has kMinSamplesBeyond
 * samples beyond it: @p q_max itself when there are enough samples,
 * otherwise the rank kMinSamplesBeyond below the top. Falls back to the
 * median when even that would sit below it.
 */
Tail tailPercentile(const std::vector<double> &samples, double q_max);

/** "p99 of 4000 requests": which percentile a Tail is, over what. */
std::string tailLabel(const Tail &tail, std::size_t n, const std::string &of);

/** Median (mean of the middle pair for an even count; 0 when empty). */
double median(std::vector<double> samples);

/** 64-bit FNV-1a of @p bytes, printed as 16 hex digits. */
std::string digestHex(const std::string &bytes);

/**
 * Operations attempted and failed in one run. A failure is a job that
 * throws or is not functionally correct, output bytes that differ from
 * their reference, or a non-200 response. Thread-safe.
 */
class Ledger
{
  public:
    /** Count one operation; a failed one records @p what (first few). */
    void record(bool ok, const std::string &what);

    std::uint64_t attempted() const;
    std::uint64_t failed() const;
    double errorFrac() const;
    std::vector<std::string> failures() const;

  private:
    mutable std::mutex mutex;
    std::uint64_t attempts = 0;         // guarded by mutex
    std::uint64_t failures_ = 0;        // guarded by mutex
    std::vector<std::string> examples;  // guarded by mutex
};

/**
 * Count every job of one sweep: ok when it is functionally correct and
 * the sweep's report @p bytes equal @p reference (empty: no reference).
 */
void checkSweep(Ledger &ledger,
                const std::vector<dynaspam::runner::JobOutcome> &outcomes,
                const std::string &bytes, const std::string &reference,
                const std::string &what);

/** Count one HTTP exchange: ok on status 200 with an acceptable body. */
void checkResponse(Ledger &ledger, int status, bool body_ok,
                   const std::string &what);

/** Everything one workload run hands back to main(). */
struct RunOutput
{
    Ledger ledger;
    /** By name; units come from the vocabulary in metrics.hh. */
    std::map<std::string, double> metrics;
    /** Human-readable facts printed before the result line. */
    std::map<std::string, std::string> info;
    /** Traced runs: traced minus untraced wall time. */
    double tracingOverheadSeconds = 0.0;

    void set(const std::string &name, double value) { metrics[name] = value; }
};

} // namespace perfbench

#endif // PERFBENCH_LEDGER_HH
