/**
 * @file
 * Pipeline/fabric event-tracing layer.
 *
 * A TraceSink buffers two kinds of events while a simulation runs:
 *
 *  - per-instruction pipeline records (one InstEvent per committed or
 *    squashed ROB entry, carrying every stage timestamp the DynInst
 *    already accumulated), and
 *  - per-trace lifecycle marks (T-Cache hits, mapping phases,
 *    configuration-cache fills/evictions, fabric reconfigurations,
 *    invocation spans, in-flight FIFO occupancy).
 *
 * On finish the buffer is rendered as (a) Chrome trace-event JSON,
 * loadable in Perfetto / chrome://tracing, and (b) a Konata-compatible
 * pipeline log (Kanata format 0004).
 *
 * Cost model: every hook site is written `if (sink) ...`, so an
 * unattached sink costs one predictable null-pointer branch per
 * *retired* instruction — events are recorded at commit/squash from
 * timestamps the pipeline tracks anyway, never per stage per cycle, so
 * attaching a sink cannot perturb timing. That non-perturbation is
 * enforced by tests: stat reports are byte-identical with and without
 * a sink attached.
 *
 * There is one way to record a trace: the caller owns a TraceSink and
 * passes it to runner::execute(job, &sink) (or sets
 * sim::SystemConfig::traceSink), then renders it. `dynaspam trace` is
 * the command-line front end.
 */

#ifndef DYNASPAM_TRACE_TRACE_HH
#define DYNASPAM_TRACE_TRACE_HH

#include <cstdint>
#include <limits>
#include <ostream>
#include <string>
#include <vector>

#include "common/types.hh"

namespace dynaspam::trace
{

/** Lifecycle mark kinds (the DynaSpAM control plane). */
enum class Mark : std::uint8_t
{
    TCacheHit,      ///< fetch met a hot T-Cache trace (instant)
    Mapping,        ///< mapping phase that completed (span)
    MappingAbort,   ///< mapping phase that aborted (span)
    ConfigFill,     ///< configuration-cache insert (instant)
    ConfigEvict,    ///< configuration-cache eviction (instant)
    Reconfigure,    ///< fabric reconfiguration (span)
    Invocation,     ///< fabric invocation execute..complete (span)
    InvokeCommit,   ///< invocation committed at ROB head (instant)
    InvokeSquash,   ///< invocation squashed (instant; value = at fault)
    FifoLevel,      ///< fabric in-flight window occupancy (counter)
};

/** @return a short stable display name for @p kind. */
const char *markName(Mark kind);

/** One retired or squashed instruction with its stage timestamps. */
struct InstEvent
{
    SeqNum traceIdx = 0;        ///< oracle record index
    InstAddr pc = 0;
    const char *op = "";        ///< static opcode mnemonic
    Cycle fetch = CYCLE_INVALID;
    Cycle dispatch = CYCLE_INVALID;
    Cycle issue = CYCLE_INVALID;
    Cycle complete = CYCLE_INVALID;
    Cycle retire = CYCLE_INVALID;   ///< commit (or squash) cycle
    std::uint8_t fu = 0xff;     ///< isa::FuType, 0xff = none
    std::uint32_t traceLen = 1; ///< >1 for fabric invocations
    bool fabric = false;        ///< committed via a fabric invocation
    bool flushed = false;       ///< squashed, not committed
    bool mispredicted = false;
};

/** One lifecycle mark (instant when end == begin, span otherwise). */
struct MarkEvent
{
    Mark kind = Mark::TCacheHit;
    Cycle begin = 0;
    Cycle end = 0;
    std::uint64_t key = 0;      ///< trace key (0 = none)
    SeqNum traceIdx = 0;
    std::uint64_t value = 0;    ///< kind-specific payload
};

/**
 * Event buffer and renderer. One sink traces one simulation; attach it
 * through sim::SystemConfig::traceSink (or runner::execute's sink
 * argument) and render with writeChromeJson()/writeKonata() after the
 * run. Buffering order is the simulator's deterministic emission order,
 * so rendered files are byte-identical across runs and worker counts.
 */
class TraceSink
{
  public:
    /** Cycle-window filter: only events overlapping [begin, end]. */
    struct Options
    {
        Cycle beginCycle = 0;
        Cycle endCycle = std::numeric_limits<Cycle>::max();
    };

    TraceSink() = default;
    explicit TraceSink(const Options &o) : opts(o) {}

    /** Record a committed instruction (host or fabric invocation). */
    void instRetired(const InstEvent &ev);

    /** Record a squashed ROB entry (retire = squash cycle). */
    void instFlushed(InstEvent ev);

    /** Record an instant lifecycle mark. */
    void
    mark(Mark kind, Cycle now, std::uint64_t key = 0,
         SeqNum trace_idx = 0, std::uint64_t value = 0)
    {
        span(kind, now, now, key, trace_idx, value);
    }

    /** Record a lifecycle span [begin, end]. */
    void span(Mark kind, Cycle begin, Cycle end, std::uint64_t key = 0,
              SeqNum trace_idx = 0, std::uint64_t value = 0);

    /** Counter sample (rendered as a Chrome counter track). */
    void
    counter(Mark kind, Cycle now, std::uint64_t value)
    {
        span(kind, now, now, 0, 0, value);
    }

    std::size_t eventCount() const { return insts.size() + marks.size(); }
    std::size_t instCount() const { return insts.size(); }
    std::size_t markCount() const { return marks.size(); }

    /** Heap held by the event buffers (0 for an untouched sink — the
     *  "tracing disabled allocates nothing" assertion in tests). */
    std::size_t
    bufferedBytes() const
    {
        return insts.capacity() * sizeof(InstEvent) +
               marks.capacity() * sizeof(MarkEvent);
    }

    const std::vector<InstEvent> &instEvents() const { return insts; }
    const std::vector<MarkEvent> &markEvents() const { return marks; }
    const Options &options() const { return opts; }

    /** Render the buffer as Chrome trace-event JSON ({"traceEvents":
     *  [...]}, ts/dur in simulated cycles). Parseable by
     *  json::Value::parse and loadable in Perfetto. */
    void writeChromeJson(std::ostream &os) const;

    /** Render the buffer as a Konata pipeline log (Kanata 0004). */
    void writeKonata(std::ostream &os) const;

    /**
     * Write both renderings: @p chrome_path gets the Chrome JSON and
     * @p chrome_path with a ".kanata" suffix appended gets the Konata
     * log. @throws FatalError when a file cannot be opened.
     */
    void writeFiles(const std::string &chrome_path) const;

  private:
    bool
    inWindow(Cycle begin, Cycle end) const
    {
        return end >= opts.beginCycle && begin <= opts.endCycle;
    }

    Options opts;
    std::vector<InstEvent> insts;
    std::vector<MarkEvent> marks;
};

} // namespace dynaspam::trace

#endif // DYNASPAM_TRACE_TRACE_HH
