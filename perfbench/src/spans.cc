#include "spans.hh"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <unordered_map>
#include <utility>

namespace perfbench
{
namespace
{

// The innermost open span on this thread, for implicit parenting.
thread_local std::uint64_t tlsParent = 0;
thread_local std::uint64_t tlsTrace = 0;

std::uint32_t
threadIndex()
{
    static std::atomic<std::uint32_t> next{1};
    thread_local const std::uint32_t index = next.fetch_add(1);
    return index;
}

} // namespace

double
secondsSince(Clock::time_point since)
{
    return std::chrono::duration<double>(Clock::now() - since).count();
}

std::vector<double>
selfSeconds(const std::vector<Span> &spans)
{
    std::unordered_map<std::uint64_t, std::size_t> byId;
    for (std::size_t i = 0; i < spans.size(); i++)
        byId.emplace(spans[i].id, i);

    std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(
        spans.size());
    for (const Span &s : spans) {
        auto it = byId.find(s.parent);
        if (s.parent != 0 && it != byId.end())
            kids[it->second].emplace_back(s.startNs, s.endNs);
    }

    std::vector<double> self(spans.size());
    for (std::size_t i = 0; i < spans.size(); i++) {
        const Span &s = spans[i];
        auto &iv = kids[i];
        std::sort(iv.begin(), iv.end());
        // Union of the child intervals, clipped to the parent's.
        std::int64_t covered = 0;
        std::int64_t curStart = 0, curEnd = 0;
        bool open = false;
        for (auto [a, b] : iv) {
            a = std::max(a, s.startNs);
            b = std::min(b, s.endNs);
            if (b <= a)
                continue;
            if (open && a <= curEnd) {
                curEnd = std::max(curEnd, b);
                continue;
            }
            if (open)
                covered += curEnd - curStart;
            curStart = a;
            curEnd = b;
            open = true;
        }
        if (open)
            covered += curEnd - curStart;
        self[i] = double(s.endNs - s.startNs - covered) * 1e-9;
    }
    return self;
}

std::map<std::string, LayerTotals>
layerTotals(const std::vector<Span> &spans)
{
    const std::vector<double> self = selfSeconds(spans);
    std::map<std::string, LayerTotals> out;
    for (std::size_t i = 0; i < spans.size(); i++) {
        LayerTotals &t = out[spans[i].name];
        t.count++;
        t.totalSeconds += spans[i].seconds();
        t.selfSeconds += self[i];
    }
    return out;
}

Clock::time_point
secondsFromNow(double seconds)
{
    return Clock::now() + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(seconds));
}

Tracer::Tracer(bool enabled) : on(enabled), origin(Clock::now()) {}

Tracer::Scope::Scope(Tracer *tracer_, Span span_,
                     std::uint64_t saved_parent, std::uint64_t saved_trace)
    : tracer(tracer_), span(std::move(span_)), savedParent(saved_parent),
      savedTrace(saved_trace)
{
}

Tracer::Scope::Scope(Scope &&other) noexcept
    : tracer(std::exchange(other.tracer, nullptr)),
      span(std::move(other.span)), savedParent(other.savedParent),
      savedTrace(other.savedTrace)
{
}

Tracer::Scope::~Scope()
{
    if (!tracer)
        return;
    span.endNs = tracer->nowNs();
    tlsParent = savedParent;
    tlsTrace = savedTrace;
    tracer->finish(std::move(span));
}

Tracer::Scope
Tracer::open(std::string name, std::uint64_t parent, std::uint64_t trace)
{
    if (!on)
        return Scope(nullptr, Span{}, 0, 0);
    Span s;
    s.name = std::move(name);
    {
        std::lock_guard<std::mutex> lock(mutex);
        s.id = nextId++;
    }
    s.parent = parent;
    s.trace = trace ? trace : s.id;
    s.thread = threadIndex();
    const std::uint64_t savedParent = tlsParent;
    const std::uint64_t savedTrace = tlsTrace;
    tlsParent = s.id;
    tlsTrace = s.trace;
    s.startNs = nowNs();
    return Scope(this, std::move(s), savedParent, savedTrace);
}

Tracer::Scope
Tracer::span(std::string name)
{
    return open(std::move(name), tlsParent, tlsTrace);
}

Tracer::Scope
Tracer::span(std::string name, std::uint64_t parent, std::uint64_t trace)
{
    return open(std::move(name), parent, trace);
}

Tracer::Scope
Tracer::root(std::string name)
{
    return open(std::move(name), 0, 0);
}

std::vector<Span>
Tracer::spans() const
{
    std::lock_guard<std::mutex> lock(mutex);
    return finished;
}

void
Tracer::finish(Span span)
{
    std::lock_guard<std::mutex> lock(mutex);
    finished.push_back(std::move(span));
}

std::int64_t
Tracer::nowNs() const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - origin)
        .count();
}

bool
Tracer::writeChromeJson(const std::string &path,
                        const std::string &extra) const
{
    std::ofstream os(path);
    if (!os)
        return false;
    os << "{\"traceEvents\": [";
    const std::vector<Span> all = spans();
    for (std::size_t i = 0; i < all.size(); i++) {
        const Span &s = all[i];
        char buf[512];
        std::snprintf(buf, sizeof(buf),
                      "%s\n{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                      "\"tid\": %u, \"ts\": %.3f, \"dur\": %.3f, "
                      "\"args\": {\"id\": %llu, \"parent\": %llu, "
                      "\"trace\": %llu}}",
                      i ? "," : "", s.name.c_str(), s.thread,
                      double(s.startNs) * 1e-3,
                      double(s.endNs - s.startNs) * 1e-3,
                      static_cast<unsigned long long>(s.id),
                      static_cast<unsigned long long>(s.parent),
                      static_cast<unsigned long long>(s.trace));
        os << buf;
    }
    os << "\n]";
    if (!extra.empty())
        os << ", " << extra;
    os << "}\n";
    return bool(os);
}

} // namespace perfbench
