/**
 * @file
 * Store-set memory dependence predictor (Chrysos & Emer style).
 *
 * Used both by the host OOO load/store queue and by the DynaSpAM fabric's
 * LDST units (Section 3.2, "Intra- and Inter-Trace Memory Ordering").
 * A Store Set ID Table (SSIT) maps instruction PCs to store-set IDs; a
 * Last Fetched Store Table (LFST) tracks the most recent in-flight store
 * of each set. A load predicted to depend on a store must wait for it.
 */

#ifndef DYNASPAM_OOO_STORESETS_HH
#define DYNASPAM_OOO_STORESETS_HH

#include <cstdint>
#include <vector>

#include "common/fields.hh"
#include "common/types.hh"

namespace dynaspam::ooo
{

/** Configuration for the store-set predictor. */
struct StoreSetParams
{
    std::size_t ssitEntries = 1024;
    std::size_t lfstEntries = 128;
    /** Clear the tables every this many allocations (paper-style aging). */
    std::uint64_t clearInterval = 250000;
};

/** Identifier of a store set. */
using StoreSetId = std::uint32_t;
inline constexpr StoreSetId STORE_SET_INVALID = ~StoreSetId(0);

/**
 * The predictor is shared between the host pipeline and the fabric's
 * LDST units, but they number stores differently: the host registers
 * ROB sequence numbers, the fabric trace-index-derived pseudo-sequence
 * numbers. This flag keeps the two domains disjoint so a consumer can
 * tell whose registration a dependence points at — the host must not
 * interpret a fabric pseudo-seq as a ROB seq (host/fabric memory
 * ordering is enforced via mem_safe and invocation store events, not
 * through the LFST).
 */
inline constexpr SeqNum FABRIC_SEQ_FLAG = SeqNum(1) << 63;

/**
 * Store-set predictor. PC-indexed; orthogonal to the structures that track
 * in-flight stores, which the caller owns (it supplies/queries sequence
 * numbers of the last fetched store per set).
 */
class StoreSetPredictor
{
  public:
    explicit StoreSetPredictor(const StoreSetParams &p = StoreSetParams{});

    /**
     * Called when a memory-order violation is detected between @p load_pc
     * and @p store_pc: allocate/merge their store sets so the pair
     * synchronizes in the future.
     */
    void recordViolation(InstAddr load_pc, InstAddr store_pc);

    /**
     * A store is being dispatched: register it as the last fetched store
     * of its set (if it has one).
     * @return the store's set id, or STORE_SET_INVALID
     */
    StoreSetId dispatchStore(InstAddr store_pc, SeqNum seq);

    /**
     * A load is being dispatched: look up the store it should wait for.
     * @return sequence number of the producing store, or 0 if none
     */
    SeqNum lookupDependence(InstAddr load_pc) const;

    /** A store completed or was squashed: clear it from the LFST. */
    void retireStore(InstAddr store_pc, SeqNum seq);

    /** @return true if @p pc currently belongs to some store set. */
    bool hasSet(InstAddr pc) const;

    std::uint64_t violations() const { return state.violations; }

    struct LfstEntry
    {
        SeqNum storeSeq = 0;    ///< 0 means "no in-flight store"
        InstAddr storePc = INST_ADDR_INVALID;

        DYNASPAM_FIELDS(LfstEntry, storeSeq, storePc)

        bool operator==(const LfstEntry &) const = default;
    };

    /** Complete mutable predictor state, held live as `state` (table
     *  sizes are parameters). */
    struct SavedState
    {
        std::vector<StoreSetId> ssit;
        std::vector<LfstEntry> lfst;
        StoreSetId nextId = 0;
        std::uint64_t allocations = 0;
        std::uint64_t violations = 0;

        DYNASPAM_FIELDS(SavedState, ssit, lfst, nextId, allocations,
                        violations)

        bool operator==(const SavedState &) const = default;
    };

    /** @return true when @p in has this predictor's table sizes. */
    bool
    fits(const SavedState &in) const
    {
        return in.ssit.size() == state.ssit.size() &&
               in.lfst.size() == state.lfst.size();
    }

    void save(SavedState &out) const { out = state; }
    void restore(const SavedState &in) { state = in; }

  private:
    std::size_t
    ssitIndex(InstAddr pc) const
    {
        return pc % state.ssit.size();
    }

    void maybeClear();

    StoreSetParams params;
    SavedState state;
};

} // namespace dynaspam::ooo

#endif // DYNASPAM_OOO_STORESETS_HH
