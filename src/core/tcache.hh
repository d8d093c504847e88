/**
 * @file
 * T-Cache: the trace detection structure (Section 3.1).
 *
 * On commit of each conditional branch, an internal history buffer tracks
 * the previous three branch results. The T-Cache builds an index from the
 * PC of the earliest of those branches plus the three outcomes and
 * increments a saturating counter. When the counter exceeds a preset
 * threshold, the trace is flagged hot. Counters are periodically cleared
 * so infrequently executing traces do not occupy the spatial fabric.
 */

#ifndef DYNASPAM_CORE_TCACHE_HH
#define DYNASPAM_CORE_TCACHE_HH

#include <array>
#include <cstdint>
#include <vector>

#include "common/fields.hh"
#include "common/types.hh"

namespace dynaspam::check
{
class StructureAuditor;
class FaultInjector;
} // namespace dynaspam::check

namespace dynaspam::core
{

/** Build a trace key from the anchor branch PC and three outcomes. */
inline std::uint64_t
makeTraceKey(InstAddr anchor_pc, bool o1, bool o2, bool o3)
{
    return (std::uint64_t(anchor_pc) << 3) | (std::uint64_t(o1)) |
           (std::uint64_t(o2) << 1) | (std::uint64_t(o3) << 2);
}

/** T-Cache configuration. */
struct TCacheParams
{
    std::size_t entries = 256;          ///< direct-mapped entries
    unsigned counterBits = 4;           ///< saturating counter width
    unsigned hotThreshold = 12;         ///< counter value marking hot
    std::uint64_t clearInterval = 100000;   ///< branch commits per clear
};

/** The trace-detection cache. */
class TCache
{
  public:
    explicit TCache(const TCacheParams &params = TCacheParams{});

    /**
     * Record a committed conditional branch (trains the history buffer
     * and the saturation counters).
     */
    void commitBranch(InstAddr pc, bool taken);

    /** @return true when the trace identified by @p key is hot. */
    bool isHot(std::uint64_t key) const;

    std::uint64_t trainings() const { return state.trainings; }
    std::uint64_t clears() const { return state.clears; }

    struct Entry
    {
        std::uint64_t key = 0;
        unsigned counter = 0;
        bool hot = false;
        bool valid = false;

        DYNASPAM_FIELDS(Entry, key, counter, hot, valid)

        bool operator==(const Entry &) const = default;
    };

    /** One slot of the committed-branch history window. */
    struct BranchRec
    {
        InstAddr pc = 0;
        bool taken = false;

        DYNASPAM_FIELDS(BranchRec, pc, taken)

        bool operator==(const BranchRec &) const = default;
    };

    /** Complete mutable T-Cache state, held live as `state` (geometry
     *  is a parameter). */
    struct SavedState
    {
        std::vector<Entry> entries;
        /** Last three committed conditional branches, oldest first. A
         *  fixed array instead of a deque: this is touched on every
         *  committed conditional branch, and two 16-byte moves beat
         *  deque node math. */
        std::array<BranchRec, 3> history{};
        unsigned historyCount = 0;  ///< valid slots, saturates at 3
        std::uint64_t commitCount = 0;
        std::uint64_t trainings = 0;
        std::uint64_t clears = 0;

        DYNASPAM_FIELDS(SavedState, entries, history, historyCount,
                        commitCount, trainings, clears)

        bool operator==(const SavedState &) const = default;
    };

    /** @return true when @p in has this cache's geometry and a valid
     *  history fill level (checked before restore()). */
    bool
    fits(const SavedState &in) const
    {
        return in.entries.size() == state.entries.size() &&
               in.historyCount <= in.history.size();
    }

    void save(SavedState &out) const { out = state; }
    void restore(const SavedState &in) { state = in; }

  private:
    /** The structure auditor inspects entries directly. */
    friend class dynaspam::check::StructureAuditor;
    /** The fault-injection self-test seeds violations directly. */
    friend class dynaspam::check::FaultInjector;

    std::size_t indexOf(std::uint64_t key) const
    {
        return std::size_t(key % state.entries.size());
    }

    TCacheParams params;
    SavedState state;
};

} // namespace dynaspam::core

#endif // DYNASPAM_CORE_TCACHE_HH
