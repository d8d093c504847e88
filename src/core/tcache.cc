/**
 * @file
 * T-Cache implementation.
 */

#include "core/tcache.hh"

#include "common/logging.hh"

namespace dynaspam::core
{

TCache::TCache(const TCacheParams &p)
    : params(p), state{.entries = std::vector<Entry>(p.entries)}
{
    if (!p.entries)
        fatal("T-Cache must have at least one entry");
    const unsigned max_counter = bits::counterMax(p.counterBits);
    if (p.hotThreshold > max_counter)
        fatal("T-Cache hot threshold ", p.hotThreshold,
              " exceeds counter range ", max_counter);
}

void
TCache::commitBranch(InstAddr pc, bool taken)
{
    state.commitCount++;
    if (params.clearInterval &&
        state.commitCount % params.clearInterval == 0) {
        // Periodic clearing: evict stale traces so infrequent ones do
        // not keep occupying the fabric (Section 3.1).
        for (Entry &entry : state.entries) {
            entry.counter = 0;
            entry.hot = false;
        }
        state.clears++;
    }

    std::array<BranchRec, 3> &history = state.history;
    if (state.historyCount < 3) {
        history[state.historyCount++] = {pc, taken};
        if (state.historyCount < 3)
            return;
    } else {
        history[0] = history[1];
        history[1] = history[2];
        history[2] = {pc, taken};
    }

    const std::uint64_t key = makeTraceKey(
        history[0].pc, history[0].taken, history[1].taken,
        history[2].taken);

    Entry &entry = state.entries[indexOf(key)];
    if (!entry.valid || entry.key != key) {
        entry.valid = true;
        entry.key = key;
        entry.counter = 0;
        entry.hot = false;
    }
    const unsigned max_counter = bits::counterMax(params.counterBits);
    if (entry.counter < max_counter)
        entry.counter++;
    if (entry.counter > params.hotThreshold)
        entry.hot = true;
    state.trainings++;
}

bool
TCache::isHot(std::uint64_t key) const
{
    const Entry &entry = state.entries[indexOf(key)];
    return entry.valid && entry.key == key && entry.hot;
}

} // namespace dynaspam::core
