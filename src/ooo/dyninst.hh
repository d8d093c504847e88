/**
 * @file
 * In-flight dynamic instruction state shared by the pipeline stages.
 */

#ifndef DYNASPAM_OOO_DYNINST_HH
#define DYNASPAM_OOO_DYNINST_HH

#include <cstdint>

#include "common/fields.hh"
#include "common/types.hh"
#include "isa/inst.hh"
#include "isa/trace.hh"
#include "ooo/bpred.hh"

namespace dynaspam::ooo
{

/** Kind of a reorder-buffer entry. */
enum class RobKind : std::uint8_t
{
    Inst,           ///< ordinary dynamic instruction
    TraceInvoke,    ///< DynaSpAM fat atomic trace invocation (uses ROB')
};

/** Number of RobKind values (snapshot decode range check). */
constexpr unsigned enumCount(RobKind) { return 2; }

/**
 * One in-flight dynamic instruction (a ROB entry). Identified by a unique
 * sequence number; carries the trace index it was fetched from so squash
 * and replay can re-fetch the same oracle records.
 */
struct DynInst
{
    SeqNum seq = 0;             ///< unique per in-flight instance
    SeqNum traceIdx = 0;        ///< index into the oracle DynamicTrace
    InstAddr pc = 0;
    const isa::StaticInst *inst = nullptr;
    const isa::DynRecord *record = nullptr;

    RobKind kind = RobKind::Inst;
    /** For TraceInvoke entries: how many oracle records this covers. */
    std::uint32_t traceLen = 0;
    /** For TraceInvoke entries: handle into the offload engine. */
    std::uint32_t invocationId = 0;

    // Rename state.
    RegIndex destPhys = REG_INVALID;
    RegIndex prevPhys = REG_INVALID;    ///< previous mapping of dest
    RegIndex src1Phys = REG_INVALID;
    RegIndex src2Phys = REG_INVALID;

    // Pipeline timestamps.
    Cycle fetchCycle = CYCLE_INVALID;
    Cycle dispatchCycle = CYCLE_INVALID;
    Cycle issueCycle = CYCLE_INVALID;
    Cycle completeCycle = CYCLE_INVALID;

    // Status flags.
    bool inIq = false;          ///< waiting in the issue queue
    /** Source registers whose values are still unknown. While non-zero
     *  the instruction sits on the producers' consumer lists; the last
     *  producer to issue moves it onto the scheduler's pending queue. */
    std::uint8_t waitCount = 0;
    bool issued = false;
    bool completed = false;
    bool mispredicted = false;  ///< branch direction/target mispredicted
    bool predictedTaken = false;
    /** RAS state before this instruction was fetched; a squash restores
     *  the stack to the oldest squashed entry's checkpoint. */
    RasCheckpoint rasCp;

    // Memory state.
    bool addrReady = false;     ///< effective address computed
    SeqNum dependsOnStore = 0;  ///< store-set predicted producer (seq)
    /** Store that forwarded this load's value (0 = value from cache). */
    SeqNum forwardedFromSeq = 0;

    // Mapping-phase state.
    bool mappingInst = false;       ///< trace instruction being mapped
    bool lastMappingInst = false;   ///< last instruction of the trace

    bool isLoad() const { return inst && inst->isLoad(); }
    bool isStore() const { return inst && inst->isStore(); }
    bool isControl() const { return inst && inst->isControl(); }

    /** The inst/record pointers are derived: a snapshot load rebinds
     *  them from traceIdx and kind against its SimInput. */
    template <typename V>
    static constexpr void
    fields(V &v)
    {
        v("seq", &DynInst::seq);
        v("traceIdx", &DynInst::traceIdx);
        v("pc", &DynInst::pc);
        v("inst", &DynInst::inst, fields::derived);
        v("record", &DynInst::record, fields::derived);
        v("kind", &DynInst::kind);
        v("traceLen", &DynInst::traceLen);
        v("invocationId", &DynInst::invocationId);
        v("destPhys", &DynInst::destPhys);
        v("prevPhys", &DynInst::prevPhys);
        v("src1Phys", &DynInst::src1Phys);
        v("src2Phys", &DynInst::src2Phys);
        v("fetchCycle", &DynInst::fetchCycle);
        v("dispatchCycle", &DynInst::dispatchCycle);
        v("issueCycle", &DynInst::issueCycle);
        v("completeCycle", &DynInst::completeCycle);
        v("inIq", &DynInst::inIq);
        v("waitCount", &DynInst::waitCount);
        v("issued", &DynInst::issued);
        v("completed", &DynInst::completed);
        v("mispredicted", &DynInst::mispredicted);
        v("predictedTaken", &DynInst::predictedTaken);
        v("rasCp", &DynInst::rasCp);
        v("addrReady", &DynInst::addrReady);
        v("dependsOnStore", &DynInst::dependsOnStore);
        v("forwardedFromSeq", &DynInst::forwardedFromSeq);
        v("mappingInst", &DynInst::mappingInst);
        v("lastMappingInst", &DynInst::lastMappingInst);
    }

    /** Pointer members compare by identity, which is value equality for
     *  snapshot purposes: both sides of a snapshot diff reference the
     *  same immutable Program/DynamicTrace instance. */
    bool operator==(const DynInst &) const = default;
};

} // namespace dynaspam::ooo

#endif // DYNASPAM_OOO_DYNINST_HH
