/**
 * @file
 * Verifier implementation.
 */

#include "check/verifier.hh"

#include "core/controller.hh"

namespace dynaspam::check
{

Verifier::Verifier(const ooo::OooCpu &c, const isa::DynamicTrace &trace,
                   const mem::FunctionalMemory &initial_memory,
                   const core::DynaSpamController *ctrl,
                   ViolationSink &s)
    : cpu(c), controller(ctrl), sink(s),
      lockstep(trace, initial_memory, s), oooAuditor(c, s),
      structureAuditor(s), interval(auditInterval())
{
    if (!interval)
        interval = 1;
}

void
Verifier::onCommit(SeqNum first_idx, std::uint32_t count, bool via_fabric,
                   Cycle now)
{
    lockstep.onCommit(first_idx, count, via_fabric, now);
}

void
Verifier::onCycleEnd(Cycle now)
{
    if (now % interval != 0)
        return;
    oooAuditor.auditAll(now);
    state.auditPasses++;

    if (now % (interval * structureStride) == 0)
        auditStructures(now);
}

void
Verifier::auditStructures(Cycle now)
{
    if (!controller)
        return;
    structureAuditor.auditTCache(controller->tcache(), now);
    structureAuditor.auditConfigCache(controller->configCache(),
                                      controller->fabricConfigParams(),
                                      now);
    state.structurePasses++;
}

void
Verifier::finish(Cycle now)
{
    lockstep.finish(now);
    oooAuditor.auditAll(now);
    auditStructures(now);
}

} // namespace dynaspam::check
