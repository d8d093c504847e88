/**
 * @file
 * Cache timing model implementation.
 */

#include "memory/cache.hh"

#include "common/logging.hh"

namespace dynaspam::mem
{

Cache::Cache(const CacheParams &p, Cache *next, Cycle memory_latency)
    : params(p), nextLevel(next), memLatency(memory_latency)
{
    if (params.blockBytes == 0 || params.assoc == 0)
        fatal("cache '", params.name, "': zero block size or associativity");
    std::uint64_t num_blocks = params.sizeBytes / params.blockBytes;
    if (num_blocks == 0 || num_blocks % params.assoc != 0)
        fatal("cache '", params.name, "': size/assoc/block mismatch");
    numSets = std::size_t(num_blocks / params.assoc);
    state.lines.resize(num_blocks);
}

std::size_t
Cache::setIndex(Addr addr) const
{
    // Keep every intermediate an explicit std::uint64_t: blockBytes and
    // numSets are narrower types, and letting them drive integer
    // promotion here would truncate large simulated addresses.
    const std::uint64_t block = addr / std::uint64_t(params.blockBytes);
    return std::size_t(block % std::uint64_t(numSets));
}

Addr
Cache::tagOf(Addr addr) const
{
    const std::uint64_t block = addr / std::uint64_t(params.blockBytes);
    return block / std::uint64_t(numSets);
}

AccessResult
Cache::access(Addr addr, bool is_write)
{
    state.useClock++;
    const std::size_t base = setIndex(addr) * params.assoc;
    const Addr tag = tagOf(addr);

    // Hit path.
    for (unsigned way = 0; way < params.assoc; way++) {
        Line &line = state.lines[base + way];
        if (line.valid && line.tag == tag) {
            line.lastUse = state.useClock;
            line.dirty |= is_write;
            state.hits++;
            return {params.hitLatency, true};
        }
    }

    // Miss: fetch from the next level (or memory) and fill over LRU victim.
    state.misses++;
    Cycle below;
    if (nextLevel)
        below = nextLevel->access(addr, false).latency;
    else
        below = memLatency;

    std::size_t victim = base;
    for (unsigned way = 1; way < params.assoc; way++) {
        const Line &cand = state.lines[base + way];
        const Line &best = state.lines[victim];
        if (!cand.valid) {
            victim = base + way;
            break;
        }
        if (best.valid && cand.lastUse < best.lastUse)
            victim = base + way;
    }

    Line &line = state.lines[victim];
    if (line.valid && line.dirty) {
        state.writebacks++;
        // Writebacks happen off the critical path; no latency charged.
    }
    line.valid = true;
    line.dirty = is_write;
    line.tag = tag;
    line.lastUse = state.useClock;

    return {params.hitLatency + below, false};
}

void
Cache::prefetch(Addr addr)
{
    if (probe(addr))
        return;
    state.prefetchFills++;
    state.useClock++;
    const std::size_t base = setIndex(addr) * params.assoc;

    std::size_t victim = base;
    for (unsigned way = 1; way < params.assoc; way++) {
        const Line &cand = state.lines[base + way];
        const Line &best = state.lines[victim];
        if (!cand.valid) {
            victim = base + way;
            break;
        }
        if (best.valid && cand.lastUse < best.lastUse)
            victim = base + way;
    }

    Line &line = state.lines[victim];
    if (line.valid && line.dirty)
        state.writebacks++;
    line.valid = true;
    line.dirty = false;
    line.tag = tagOf(addr);
    line.lastUse = state.useClock;
}

bool
Cache::probe(Addr addr) const
{
    const std::size_t base = setIndex(addr) * params.assoc;
    const Addr tag = tagOf(addr);
    for (unsigned way = 0; way < params.assoc; way++) {
        const Line &line = state.lines[base + way];
        if (line.valid && line.tag == tag)
            return true;
    }
    return false;
}

void
Cache::invalidateAll()
{
    for (Line &line : state.lines)
        line = Line{};
}

void
Cache::exportStats(StatRegistry &registry) const
{
    registry.counter(params.name + ".hits").inc(state.hits);
    registry.counter(params.name + ".misses").inc(state.misses);
    registry.counter(params.name + ".writebacks").inc(state.writebacks);
}

MemoryHierarchy::MemoryHierarchy(const Params &params)
    : l2Cache(params.l2, nullptr, params.memoryLatency),
      l1iCache(params.l1i, &l2Cache),
      l1dCache(params.l1d, &l2Cache)
{
}

void
MemoryHierarchy::exportStats(StatRegistry &registry) const
{
    l1iCache.exportStats(registry);
    l1dCache.exportStats(registry);
    l2Cache.exportStats(registry);
}

} // namespace dynaspam::mem
