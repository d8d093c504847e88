/**
 * @file
 * Tournament branch predictor implementation.
 */

#include "ooo/bpred.hh"

#include "common/logging.hh"
#include "isa/opcodes.hh"

namespace dynaspam::ooo
{

BranchPredictor::BranchPredictor(const BPredParams &p)
    : params(p),
      state{.localTable = std::vector<std::uint8_t>(p.localEntries, 1),
            .globalTable = std::vector<std::uint8_t>(p.globalEntries, 1),
            .chooserTable = std::vector<std::uint8_t>(p.chooserEntries, 2),
            .btb = std::vector<BtbEntry>(p.btbEntries),
            .ras = std::vector<InstAddr>(p.rasEntries, 0)}
{
    if (!p.localEntries || !p.globalEntries || !p.chooserEntries ||
        !p.btbEntries || !p.rasEntries) {
        fatal("branch predictor tables must be non-empty");
    }
}

std::uint8_t
BranchPredictor::bump(std::uint8_t c, bool up)
{
    if (up)
        return c < 3 ? c + 1 : 3;
    return c > 0 ? c - 1 : 0;
}

std::size_t
BranchPredictor::localIndex(InstAddr pc) const
{
    return pc % params.localEntries;
}

std::size_t
BranchPredictor::globalIndex(InstAddr pc, std::uint64_t history) const
{
    const std::uint64_t mask = bits::mask(params.historyBits);
    return (pc ^ (history & mask)) % params.globalEntries;
}

std::size_t
BranchPredictor::chooserIndex(InstAddr pc) const
{
    return pc % params.chooserEntries;
}

std::size_t
BranchPredictor::btbIndex(InstAddr pc) const
{
    return pc % params.btbEntries;
}

bool
BranchPredictor::predictDirection(InstAddr pc, std::uint64_t history) const
{
    const bool local_taken =
        counterTaken(state.localTable[localIndex(pc)]);
    const bool global_taken =
        counterTaken(state.globalTable[globalIndex(pc, history)]);
    const bool use_global = state.chooserTable[chooserIndex(pc)] >= 2;
    return use_global ? global_taken : local_taken;
}

BPrediction
BranchPredictor::peek(InstAddr pc, const isa::StaticInst &inst) const
{
    BPrediction pred;
    using isa::Opcode;

    if (inst.op == Opcode::RET) {
        pred.taken = true;
        if (state.rasTop > 0) {
            pred.targetKnown = true;
            pred.target = state.ras[state.rasTop - 1];
        }
        return pred;
    }

    if (!inst.isCondBranch()) {
        // JMP / CALL: always taken, target from the instruction itself
        // (direct targets are known at decode).
        pred.taken = true;
        pred.targetKnown = true;
        pred.target = InstAddr(inst.imm);
        return pred;
    }

    pred.taken = predictDirection(pc, state.specHistory);
    const BtbEntry &entry = state.btb[btbIndex(pc)];
    if (entry.pc == pc) {
        pred.targetKnown = true;
        pred.target = entry.target;
    }
    return pred;
}

BPrediction
BranchPredictor::peekWithHistory(InstAddr pc, const isa::StaticInst &inst,
                                 std::uint64_t history) const
{
    BPrediction pred;
    using isa::Opcode;

    if (inst.op == Opcode::RET) {
        pred.taken = true;
        pred.targetKnown = false;
        return pred;
    }
    if (!inst.isCondBranch()) {
        pred.taken = true;
        pred.targetKnown = true;
        pred.target = InstAddr(inst.imm);
        return pred;
    }
    pred.taken = predictDirection(pc, history);
    const BtbEntry &entry = state.btb[btbIndex(pc)];
    if (entry.pc == pc) {
        pred.targetKnown = true;
        pred.target = entry.target;
    }
    return pred;
}

BPrediction
BranchPredictor::predict(InstAddr pc, const isa::StaticInst &inst)
{
    state.lookups++;
    BPrediction pred = peek(pc, inst);

    using isa::Opcode;
    if (inst.op == Opcode::CALL) {
        // Push the return address.
        if (state.rasTop < state.ras.size())
            state.ras[state.rasTop++] = pc + 1;
        else {
            // Overflow: rotate (oldest entry lost).
            for (std::size_t i = 1; i < state.ras.size(); i++)
                state.ras[i - 1] = state.ras[i];
            state.ras[state.ras.size() - 1] = pc + 1;
        }
    } else if (inst.op == Opcode::RET) {
        if (state.rasTop > 0)
            state.rasTop--;
    }

    if (inst.isCondBranch())
        state.specHistory =
            (state.specHistory << 1) | (pred.taken ? 1 : 0);

    return pred;
}

void
BranchPredictor::update(InstAddr pc, const isa::StaticInst &inst, bool taken,
                        InstAddr target, bool mispredicted)
{
    if (mispredicted)
        state.mispredicts++;

    if (inst.isCondBranch()) {
        const std::size_t li = localIndex(pc);
        const std::size_t gi = globalIndex(pc, state.archHistory);
        const std::size_t ci = chooserIndex(pc);

        const bool local_correct =
            counterTaken(state.localTable[li]) == taken;
        const bool global_correct =
            counterTaken(state.globalTable[gi]) == taken;
        if (local_correct != global_correct)
            state.chooserTable[ci] =
                bump(state.chooserTable[ci], global_correct);

        state.localTable[li] = bump(state.localTable[li], taken);
        state.globalTable[gi] = bump(state.globalTable[gi], taken);

        state.archHistory = (state.archHistory << 1) | (taken ? 1 : 0);
        if (mispredicted) {
            // Resynchronize the speculative history. Fetch already
            // repaired the wrong bit via fixupLastHistoryBit(); this
            // catches standalone users and bounds drift after deep
            // speculation.
            state.specHistory = state.archHistory;
        }
    }

    if (taken && inst.op != isa::Opcode::RET) {
        BtbEntry &entry = state.btb[btbIndex(pc)];
        entry.pc = pc;
        entry.target = target;
    }
}

} // namespace dynaspam::ooo
