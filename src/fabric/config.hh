/**
 * @file
 * Fabric configuration: the product of the dynamic mapping phase.
 *
 * A FabricConfig records, for every instruction of a mapped trace, its PE
 * placement and operand routing, plus the trace's live-in/live-out
 * interface, its control-flow path (for validity checking during
 * offloaded execution) and its memory-operation order (the simplified
 * memory instructions kept in the configuration per Section 3.2).
 */

#ifndef DYNASPAM_FABRIC_CONFIG_HH
#define DYNASPAM_FABRIC_CONFIG_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/fields.hh"
#include "common/types.hh"
#include "fabric/params.hh"
#include "isa/inst.hh"

namespace dynaspam::fabric
{

/** Where one operand of a mapped instruction comes from. */
struct OperandRoute
{
    enum class Kind : std::uint8_t
    {
        None,       ///< operand unused
        LiveIn,     ///< from a live-in FIFO via the global bus
        PassReg,    ///< from the previous stripe's pass registers
        Routed,     ///< from a producer several stripes back, via newly
                    ///< allocated pass-register datapaths (costs hops)
    };

    /** Number of Kind values (snapshot decode range check). */
    friend constexpr unsigned enumCount(Kind) { return 4; }

    Kind kind = Kind::None;
    /** Producing instruction's index within the config (PassReg/Routed). */
    std::uint16_t producerIdx = 0xffff;
    /** Live-in FIFO index (LiveIn). */
    std::uint16_t liveInIdx = 0;
    /** Extra stripe boundaries the value crosses beyond one. */
    std::uint16_t hops = 0;

    DYNASPAM_FIELDS(OperandRoute, kind, producerIdx, liveInIdx, hops)

    bool operator==(const OperandRoute &) const = default;
};

/** One instruction placed on the fabric. */
struct MappedInst
{
    InstAddr pc = 0;
    isa::Opcode op = isa::Opcode::NOP;
    PeId pe;
    OperandRoute src1;
    OperandRoute src2;
    RegIndex destArch = REG_INVALID;

    bool isLoad = false;
    bool isStore = false;
    bool isBranch = false;
    /** For branches: the outcome along the mapped trace path. */
    bool expectedTaken = false;

    isa::OpClass opClass() const { return isa::opClass(op); }

    DYNASPAM_FIELDS(MappedInst, pc, op, pe, src1, src2, destArch, isLoad,
                    isStore, isBranch, expectedTaken)
};

/** A live-out: which mapped instruction produces which architectural reg. */
struct LiveOut
{
    RegIndex arch = REG_INVALID;
    std::uint16_t producerIdx = 0xffff;

    DYNASPAM_FIELDS(LiveOut, arch, producerIdx)
};

/** Complete configuration for one trace. */
struct FabricConfig
{
    /** Identity: PC of the trace's first (branch) instruction plus the
     *  predicted outcomes of its three branches, as in the T-Cache. */
    std::uint64_t key = 0;

    /** First oracle-trace record the config was mapped from (debug). */
    SeqNum mappedFromIdx = 0;

    /** Number of dynamic records one invocation covers. */
    std::uint32_t numRecords = 0;

    std::vector<MappedInst> insts;      ///< in trace program order
    std::vector<RegIndex> liveIns;      ///< arch regs, FIFO order
    std::vector<LiveOut> liveOuts;

    bool hasStores = false;
    std::uint8_t stripesUsed = 0;

    bool valid() const { return numRecords > 0 && !insts.empty(); }

    /** @return true when every operand route and live-out names an
     *  instruction or live-in FIFO slot of this config (checked when a
     *  config is decoded from a snapshot). */
    bool
    consistent() const
    {
        auto routeOk = [this](const OperandRoute &r) {
            if (r.kind == OperandRoute::Kind::LiveIn)
                return r.liveInIdx < liveIns.size();
            if (r.kind == OperandRoute::Kind::None)
                return true;
            return r.producerIdx < insts.size();
        };
        for (const MappedInst &mi : insts)
            if (!routeOk(mi.src1) || !routeOk(mi.src2))
                return false;
        for (const LiveOut &lo : liveOuts)
            if (lo.producerIdx >= insts.size())
                return false;
        return true;
    }

    DYNASPAM_FIELDS(FabricConfig, key, mappedFromIdx, numRecords, insts,
                    liveIns, liveOuts, hasStores, stripesUsed)

    /** Human-readable dump of placements and routes. */
    std::string toString() const;
};

} // namespace dynaspam::fabric

#endif // DYNASPAM_FABRIC_CONFIG_HH
