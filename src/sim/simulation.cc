/**
 * @file
 * Stateful simulation implementation.
 */

#include "sim/simulation.hh"

#include "common/logging.hh"
#include "energy/energy.hh"
#include "trace/trace.hh"

namespace dynaspam::sim
{

Simulation::Simulation(const SystemConfig &config,
                       std::shared_ptr<const SimInput> in)
    : cfg(config), input(std::move(in)), hierarchy(cfg.memory),
      cpu(cfg.ooo, input->trace(), hierarchy)
{
    if (cfg.mode != SystemMode::BaselineOoo) {
        controller = std::make_unique<core::DynaSpamController>(
            cfg.dynaspam, input->trace(), cpu.branchPredictor(),
            cpu.storeSetPredictor(), hierarchy);
        cpu.setHooks(controller.get());
    }

    if (trace::compiledIn() && cfg.traceSink) {
        cpu.setTraceSink(cfg.traceSink);
        if (controller)
            controller->setTraceSink(cfg.traceSink);
    }

    // Verification layer: golden-model lockstep plus per-cycle
    // invariant audits, opt-in via DYNASPAM_CHECKS (default on in
    // -DDYNASPAM_CHECKS=ON builds).
    if (check::enabled()) {
        verifier = std::make_unique<check::Verifier>(
            cpu, input->trace(), input->initialMemory(),
            controller.get(), sink);
        cpu.setCommitObserver(verifier.get());
    }
}

void
Simulation::snapshot(Snapshot &out) const
{
    out.input = input;
    cpu.save(out.cpu);
    hierarchy.save(out.memory);
    if (controller) {
        if (!out.controller)
            out.controller.emplace();
        controller->save(*out.controller);
    } else {
        out.controller.reset();
    }
    if (verifier) {
        if (!out.verifier)
            out.verifier.emplace();
        verifier->save(*out.verifier);
    } else {
        out.verifier.reset();
    }
}

bool
Simulation::fits(const Snapshot &in) const
{
    if (in.input.get() != input.get() ||
        in.controller.has_value() != (controller != nullptr) ||
        in.verifier.has_value() != (verifier != nullptr))
        return false;
    return hierarchy.fits(in.memory) && cpu.fits(in.cpu) &&
           (!controller || controller->fits(*in.controller)) &&
           (!verifier || verifier->fits(*in.verifier));
}

void
Simulation::restore(const Snapshot &in)
{
    if (in.input.get() != input.get())
        fatal("snapshot restore across different simulation inputs");
    if (in.controller.has_value() != (controller != nullptr))
        fatal("snapshot restore: controller presence mismatch");
    if (in.verifier.has_value() != (verifier != nullptr))
        fatal("snapshot restore: verifier presence mismatch");

    hierarchy.restore(in.memory);
    cpu.restore(in.cpu,
                controller ? controller->mappingPolicy() : nullptr);
    if (controller)
        controller->restore(*in.controller);
    if (verifier)
        verifier->restore(*in.verifier);
}

RunResult
Simulation::collectResult()
{
    RunResult result;
    result.functionallyCorrect = input->functionallyCorrect();
    result.cycles = cpu.now();
    result.pipeline = cpu.stats();

    if (verifier) {
        // The completeness check (every record committed) only applies
        // when the run actually finished; sampled runs stop early.
        if (cpu.done())
            verifier->finish(result.cycles);
        result.commitsChecked =
            verifier->lockstepChecker().commitsChecked();
    }

    if (controller) {
        controller->finalizeStats();
        result.dynaspam = controller->stats();
        controller->exportStats(result.stats);
    }
    cpu.exportStats(result.stats);
    hierarchy.exportStats(result.stats);

    // Instruction accounting for Figure 7.
    result.instsTotal = result.pipeline.committedInsts;
    result.instsMapping = result.pipeline.mappingInstsExecuted;
    result.instsFabric =
        result.pipeline.committedInsts - result.pipeline.committedOnHost;
    result.instsHost =
        result.pipeline.committedOnHost - result.instsMapping;

    // Energy.
    energy::EnergyModel model(cfg.energy);
    auto mem_events = energy::MemoryEvents::fromHierarchy(hierarchy);
    energy::FabricEvents fab_events;
    if (controller) {
        for (const auto &fab : controller->fabrics()) {
            const auto &fs = fab->stats();
            fab_events.peOps += fs.peOps;
            fab_events.hops += fs.datapathHops;
            fab_events.fifoPushes += fs.fifoPushes;
            fab_events.busTransfers += fs.busTransfers;
            fab_events.gatedStripeCycles +=
                fs.activeStripeInvocations;
            fab_events.configCacheAccesses += fs.reconfigurations;
        }
        fab_events.configCacheAccesses +=
            result.dynaspam.tracesConsidered;
        // Each reconfiguration rewrites every PE configuration word.
        fab_events.configuredInsts =
            result.dynaspam.reconfigurations *
            cfg.dynaspam.fabricParams.pesPerStripe();
    }
    result.energy = model.compute(result.pipeline, mem_events, fab_events);

    return result;
}

} // namespace dynaspam::sim
