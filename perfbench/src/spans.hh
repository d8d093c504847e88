/**
 * @file
 * In-memory spans recorded by the benchmark around its calls into the
 * program's layers, and the per-layer self times derived from them.
 *
 * A span has a name (`<layer>` or `<layer>.<part>`), a start, an end,
 * the span that caused it and the trace it belongs to (one sweep, one
 * request). Spans are kept in memory and written out when the run ends.
 * A span's self time is its duration minus the part of its interval that
 * its child spans cover; children may run concurrently on other threads,
 * so the covered part is the union of their intervals, not their sum.
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench
{

using Clock = std::chrono::steady_clock;

/** Seconds elapsed since @p since. */
double secondsSince(Clock::time_point since);

/** The time point @p seconds from now. */
Clock::time_point secondsFromNow(double seconds);

/** One finished span; times are nanoseconds from the tracer's origin. */
struct Span
{
    std::string name;
    std::uint64_t id = 0;
    std::uint64_t parent = 0;   ///< 0: a root span
    std::uint64_t trace = 0;    ///< shared by the spans of one sweep/request
    std::uint32_t thread = 0;
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;

    double seconds() const { return double(endNs - startNs) * 1e-9; }
};

/** Per-name aggregate of a span list. */
struct LayerTotals
{
    std::uint64_t count = 0;
    double totalSeconds = 0.0;
    double selfSeconds = 0.0;
};

/** Self time of every span, in input order (see file comment). */
std::vector<double> selfSeconds(const std::vector<Span> &spans);

/** Count, total and self time per span name. */
std::map<std::string, LayerTotals> layerTotals(const std::vector<Span> &spans);

/**
 * Span recorder. A disabled tracer hands out inert scopes and never
 * reads the clock, so untraced code paths cost one branch per scope.
 * Scopes nest per thread; a scope opened on a pool thread names its
 * parent (and trace) explicitly.
 */
class Tracer
{
  public:
    explicit Tracer(bool enabled);

    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    /** RAII span: records itself into the tracer when destroyed. */
    class Scope
    {
      public:
        Scope(Scope &&other) noexcept;
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;
        Scope &operator=(Scope &&) = delete;
        ~Scope();

        std::uint64_t id() const { return span.id; }
        std::uint64_t trace() const { return span.trace; }

      private:
        friend class Tracer;
        Scope(Tracer *tracer, Span span, std::uint64_t saved_parent,
              std::uint64_t saved_trace);

        Tracer *tracer;             ///< nullptr: inert
        Span span;
        std::uint64_t savedParent;  ///< thread's open span before this one
        std::uint64_t savedTrace;
    };

    /** Open a span under this thread's innermost open span. */
    Scope span(std::string name);

    /** Open a span under an explicit @p parent in trace @p trace. */
    Scope span(std::string name, std::uint64_t parent, std::uint64_t trace);

    /** Open a root span that starts a new trace. */
    Scope root(std::string name);

    /** Snapshot of every finished span. */
    std::vector<Span> spans() const;

    /**
     * Write the spans as Chrome trace-event JSON ("X" events, one tid
     * per recording thread), with @p extra appended as top-level keys
     * (a pre-rendered `"key": value, ...` list, may be empty).
     */
    bool writeChromeJson(const std::string &path,
                         const std::string &extra) const;

  private:
    Scope open(std::string name, std::uint64_t parent, std::uint64_t trace);
    void finish(Span span);
    std::int64_t nowNs() const;

    const bool on;
    const Clock::time_point origin;
    mutable std::mutex mutex;
    std::vector<Span> finished;     // guarded by mutex
    std::uint64_t nextId = 1;       // guarded by mutex
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH
