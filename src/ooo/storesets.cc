/**
 * @file
 * Store-set predictor implementation.
 */

#include "ooo/storesets.hh"

#include <algorithm>

#include "common/logging.hh"

namespace dynaspam::ooo
{

StoreSetPredictor::StoreSetPredictor(const StoreSetParams &p)
    : params(p),
      state{.ssit =
                std::vector<StoreSetId>(p.ssitEntries, STORE_SET_INVALID),
            .lfst = std::vector<LfstEntry>(p.lfstEntries)}
{
    if (!p.ssitEntries || !p.lfstEntries)
        fatal("store-set tables must be non-empty");
}

void
StoreSetPredictor::maybeClear()
{
    if (params.clearInterval &&
        state.allocations >= params.clearInterval) {
        std::fill(state.ssit.begin(), state.ssit.end(), STORE_SET_INVALID);
        for (auto &entry : state.lfst)
            entry = LfstEntry{};
        state.allocations = 0;
    }
}

void
StoreSetPredictor::recordViolation(InstAddr load_pc, InstAddr store_pc)
{
    state.violations++;
    maybeClear();
    state.allocations++;

    StoreSetId &load_set = state.ssit[ssitIndex(load_pc)];
    StoreSetId &store_set = state.ssit[ssitIndex(store_pc)];

    if (load_set == STORE_SET_INVALID && store_set == STORE_SET_INVALID) {
        load_set = store_set =
            state.nextId++ % StoreSetId(state.lfst.size());
    } else if (load_set == STORE_SET_INVALID) {
        load_set = store_set;
    } else if (store_set == STORE_SET_INVALID) {
        store_set = load_set;
    } else {
        // Both assigned: merge into the smaller id (declining preference
        // rule from the original store-sets paper).
        StoreSetId winner = std::min(load_set, store_set);
        load_set = store_set = winner;
    }
}

StoreSetId
StoreSetPredictor::dispatchStore(InstAddr store_pc, SeqNum seq)
{
    StoreSetId set = state.ssit[ssitIndex(store_pc)];
    if (set == STORE_SET_INVALID)
        return STORE_SET_INVALID;
    LfstEntry &entry = state.lfst[set % state.lfst.size()];
    entry.storeSeq = seq;
    entry.storePc = store_pc;
    return set;
}

SeqNum
StoreSetPredictor::lookupDependence(InstAddr load_pc) const
{
    StoreSetId set = state.ssit[ssitIndex(load_pc)];
    if (set == STORE_SET_INVALID)
        return 0;
    return state.lfst[set % state.lfst.size()].storeSeq;
}

void
StoreSetPredictor::retireStore(InstAddr store_pc, SeqNum seq)
{
    StoreSetId set = state.ssit[ssitIndex(store_pc)];
    if (set == STORE_SET_INVALID)
        return;
    LfstEntry &entry = state.lfst[set % state.lfst.size()];
    // Only the youngest registered store clears the entry; an older
    // store retiring must not erase a younger one's registration.
    if (entry.storeSeq == seq)
        entry = LfstEntry{};
}

bool
StoreSetPredictor::hasSet(InstAddr pc) const
{
    return state.ssit[ssitIndex(pc)] != STORE_SET_INVALID;
}

} // namespace dynaspam::ooo
