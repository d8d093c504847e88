/**
 * @file
 * Trace sink implementation: event buffering, rendering, file output.
 */

#include "trace/trace.hh"

#include <fstream>

#include "common/logging.hh"

namespace dynaspam::trace
{

const char *
markName(Mark kind)
{
    switch (kind) {
      case Mark::TCacheHit:
        return "tcache-hit";
      case Mark::Mapping:
        return "mapping";
      case Mark::MappingAbort:
        return "mapping-abort";
      case Mark::ConfigFill:
        return "config-fill";
      case Mark::ConfigEvict:
        return "config-evict";
      case Mark::Reconfigure:
        return "reconfigure";
      case Mark::Invocation:
        return "invocation";
      case Mark::InvokeCommit:
        return "invoke-commit";
      case Mark::InvokeSquash:
        return "invoke-squash";
      case Mark::FifoLevel:
        return "fabric.inflight";
    }
    return "unknown";
}

void
TraceSink::instRetired(const InstEvent &ev)
{
    const Cycle begin = ev.fetch == CYCLE_INVALID ? ev.retire : ev.fetch;
    if (!inWindow(begin, ev.retire))
        return;
    insts.push_back(ev);
}

void
TraceSink::instFlushed(InstEvent ev)
{
    ev.flushed = true;
    const Cycle begin = ev.fetch == CYCLE_INVALID ? ev.retire : ev.fetch;
    if (!inWindow(begin, ev.retire))
        return;
    insts.push_back(ev);
}

void
TraceSink::span(Mark kind, Cycle begin, Cycle end, std::uint64_t key,
                SeqNum trace_idx, std::uint64_t value)
{
    if (!inWindow(begin, end))
        return;
    marks.push_back({kind, begin, end, key, trace_idx, value});
}

void
TraceSink::writeFiles(const std::string &chrome_path) const
{
    {
        std::ofstream os(chrome_path);
        if (!os)
            fatal("trace: cannot write ", chrome_path);
        writeChromeJson(os);
    }
    const std::string konata_path = chrome_path + ".kanata";
    std::ofstream os(konata_path);
    if (!os)
        fatal("trace: cannot write ", konata_path);
    writeKonata(os);
}

} // namespace dynaspam::trace
