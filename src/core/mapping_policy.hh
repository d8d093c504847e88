/**
 * @file
 * Issue-unit priority policies used during a trace-mapping phase.
 *
 * ResourceAwarePolicy realizes the paper's contribution: the issue unit's
 * priority encoder consults the mapping session's status tables
 * (Algorithm 2) and thereby simultaneously schedules for the OOO
 * functional units and places onto the fabric's scheduling frontier.
 *
 * NaiveOrderPolicy is the baseline (CCA/DIF-style): strict program order,
 * one instruction at a time, first available PE — the limited-scope
 * behaviour Section 2.2 argues against.
 */

#ifndef DYNASPAM_CORE_MAPPING_POLICY_HH
#define DYNASPAM_CORE_MAPPING_POLICY_HH

#include <memory>

#include "common/fields.hh"
#include "common/types.hh"
#include "core/session.hh"
#include "isa/opcodes.hh"
#include "ooo/policy.hh"

namespace dynaspam::core
{

/** Shared frontier/pause machinery for both mapping policies. */
class MappingPolicyBase : public ooo::SelectPolicy
{
  public:
    /**
     * Arm the policy for a new mapping phase.
     * @param session the session whose tables the policy consults
     * @param mapping_trace_idx first oracle record of the trace
     */
    void
    arm(MappingSession *session, SeqNum mapping_trace_idx)
    {
        sess = session;
        baseIdx = mapping_trace_idx;
        drainUntil = 0;
        advancePending = false;
        selectedThisCycle = false;
        vetoedReadyInst = false;
        lastNow = 0;
    }

    void disarm() { sess = nullptr; }
    MappingSession *session() { return sess; }

    /**
     * Armed-state capture for simulator snapshots. The session pointer
     * is encoded as a flag; restore() rebinds it to the controller's
     * (separately restored) session object.
     */
    struct SavedState
    {
        bool armed = false;
        SeqNum baseIdx = 0;
        Cycle drainUntil = 0;
        Cycle lastNow = 0;
        bool advancePending = false;
        bool selectedThisCycle = false;
        bool vetoedReadyInst = false;

        DYNASPAM_FIELDS(SavedState, armed, baseIdx, drainUntil, lastNow,
                        advancePending, selectedThisCycle, vetoedReadyInst)

        bool operator==(const SavedState &) const = default;
    };

    void
    save(SavedState &out) const
    {
        out.armed = sess != nullptr;
        out.baseIdx = baseIdx;
        out.drainUntil = drainUntil;
        out.lastNow = lastNow;
        out.advancePending = advancePending;
        out.selectedThisCycle = selectedThisCycle;
        out.vetoedReadyInst = vetoedReadyInst;
    }

    void
    restore(const SavedState &in, MappingSession *session)
    {
        sess = in.armed ? session : nullptr;
        baseIdx = in.baseIdx;
        drainUntil = in.drainUntil;
        lastNow = in.lastNow;
        advancePending = in.advancePending;
        selectedThisCycle = in.selectedThisCycle;
        vetoedReadyInst = in.vetoedReadyInst;
    }

    bool
    beginCycle(Cycle now) override
    {
        if (!sess)
            return true;
        lastNow = now;

        // Trigger a frontier advance when the previous cycle placed
        // nothing but vetoed at least one ready trace instruction, or
        // when the frontier filled up.
        if (!advancePending && !selectedThisCycle && vetoedReadyInst)
            advancePending = true;
        selectedThisCycle = false;
        vetoedReadyInst = false;

        if (advancePending) {
            // "The issue unit must pause if there are OOO functional
            // units that have not finished execution at the start of a
            // scheduling cycle" (Section 4.1, Special Issues).
            if (now < drainUntil)
                return false;
            sess->advanceFrontier();
            advancePending = false;
        }
        return true;
    }

    void
    selected(unsigned fu_index, const ooo::DynInst &inst) override
    {
        if (!sess || sess->failed() || !inst.mappingInst)
            return;
        sess->recordSelection(fu_index, inst, baseIdx);
        selectedThisCycle = true;

        // Estimated completion for the drain pause (loads add a couple
        // of cycles of cache access on top of address generation).
        unsigned lat = isa::opLatency(inst.inst->opClass());
        if (inst.isLoad())
            lat += 3;
        drainUntil = std::max(drainUntil, lastNow + lat);

        bool frontier_full = true;
        for (unsigned pe = 0; pe < peCount(); pe++) {
            if (sess->peFree(pe)) {
                frontier_full = false;
                break;
            }
        }
        if (frontier_full)
            advancePending = true;
    }

  protected:
    virtual unsigned peCount() const = 0;

    MappingSession *sess = nullptr;
    SeqNum baseIdx = 0;
    Cycle drainUntil = 0;
    Cycle lastNow = 0;
    bool advancePending = false;
    bool selectedThisCycle = false;
    bool vetoedReadyInst = false;
};

/** The paper's resource-aware scheduling policy (Algorithms 1-2). */
class ResourceAwarePolicy : public MappingPolicyBase
{
  public:
    explicit ResourceAwarePolicy(unsigned pes_per_stripe)
        : numPes(pes_per_stripe)
    {
    }

    int
    score(unsigned fu_index, const ooo::DynInst &inst) override
    {
        if (!sess)
            return 0;
        if (sess->failed())
            return 0;           // schedule failed: host rule takes over
        if (!inst.mappingInst)
            return -1;          // only trace instructions issue while
                                // the fabric is being mapped
        int s = sess->priorityScore(fu_index, inst);
        if (s < 0)
            vetoedReadyInst = true;
        return s;
    }

  protected:
    unsigned peCount() const override { return numPes; }

  private:
    unsigned numPes;
};

/**
 * Naive in-order mapping baseline: strictly program order, first free
 * feasible PE, no routing-cost awareness.
 */
class NaiveOrderPolicy : public MappingPolicyBase
{
  public:
    explicit NaiveOrderPolicy(unsigned pes_per_stripe)
        : numPes(pes_per_stripe)
    {
    }

    int
    score(unsigned fu_index, const ooo::DynInst &inst) override
    {
        if (!sess)
            return 0;
        if (sess->failed())
            return 0;
        if (!inst.mappingInst)
            return -1;
        // One instruction at a time, in program order. (Younger
        // instructions never force a frontier advance.)
        if (inst.traceIdx != baseIdx + sess->placedCount())
            return -1;
        int s = sess->priorityScore(fu_index, inst);
        if (s < 0) {
            vetoedReadyInst = true;
            return -1;
        }
        return 0;   // feasible: no preference between PEs (greedy)
    }

  protected:
    unsigned peCount() const override { return numPes; }

  private:
    unsigned numPes;
};

} // namespace dynaspam::core

#endif // DYNASPAM_CORE_MAPPING_POLICY_HH
