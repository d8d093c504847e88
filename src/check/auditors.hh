/**
 * @file
 * Per-subsystem invariant auditors. Each auditor walks one simulator
 * structure and reports violations of its documented invariants through
 * a ViolationSink. Auditors are read-only: they never mutate the
 * structures they inspect, so they can run at any cycle boundary.
 *
 * The auditors are always compiled (so the fault-injection self-test
 * works in every build); whether they run is decided by the Verifier
 * based on check::enabled() and the audit interval.
 */

#ifndef DYNASPAM_CHECK_AUDITORS_HH
#define DYNASPAM_CHECK_AUDITORS_HH

#include <cstdint>
#include <vector>

#include "check/check.hh"
#include "common/types.hh"

namespace dynaspam::ooo
{
class OooCpu;
} // namespace dynaspam::ooo

namespace dynaspam::core
{
class TCache;
class ConfigCache;
} // namespace dynaspam::core

namespace dynaspam::fabric
{
struct FabricConfig;
struct FabricParams;
} // namespace dynaspam::fabric

namespace dynaspam::check
{

/**
 * Audits the OOO pipeline's architectural bookkeeping:
 *
 *  - "rob": sequence numbers are contiguous, the entries cover the
 *    oracle-trace records [commitIdx, ...) contiguously (in-order
 *    commit), completion implies issue, and every TraceInvoke entry
 *    has matching invocation state (and vice versa).
 *  - "rename": the physical register file is exactly partitioned
 *    between the RAT, the free list, the previous mappings held by
 *    in-flight defining instructions, and the previous live-out
 *    mappings held by in-flight invocations — no register leaked,
 *    none aliased.
 *  - "lsq": load/store queues hold in-flight memory instructions of
 *    the right kind in age order, each entry carrying its record's
 *    effective address, store-set dependence edges point strictly
 *    older, and the post-commit store buffer holds at most its 16
 *    entries in age order.
 *  - "atomicity": the invocation table's unresolved counter matches
 *    its entries, and an unresolved invocation's live-out registers
 *    are all still not-ready — a fat ROB' entry's results must become
 *    visible atomically, never early.
 *  - "scheduler": the wakeup-driven issue bookkeeping mirrors the IQ
 *    exactly — every waiting IQ instruction with no unknown sources
 *    has exactly one ready/pending reference of the right FU type,
 *    instructions with unknown sources are registered once per
 *    unknown source on a not-ready producer's consumer list, the
 *    ready/pending counters match.
 */
class OooAuditor
{
  public:
    OooAuditor(const ooo::OooCpu &cpu, ViolationSink &sink);

    /** Run every audit. */
    void auditAll(Cycle now);

    void auditRob(Cycle now);
    void auditRename(Cycle now);
    void auditLsq(Cycle now);
    void auditAtomicity(Cycle now);
    void auditScheduler(Cycle now);

  private:
    const ooo::OooCpu &cpu;
    ViolationSink &sink;
    /** Reusable per-phys-reg scratch for the partition check. */
    std::vector<std::uint8_t> physSeen;
};

/**
 * Audits the DynaSpAM detection/caching structures:
 *
 *  - "tcache": every valid entry sits at its direct-mapped index, its
 *    saturating counter is within range, and the hot flag is only set
 *    past the threshold.
 *  - "configcache": every valid entry sits at its index, its counter
 *    is in range, and it holds a non-null, self-consistent
 *    configuration whose key matches the entry.
 */
class StructureAuditor
{
  public:
    explicit StructureAuditor(ViolationSink &s) : sink(s) {}

    void auditTCache(const core::TCache &tcache, Cycle now);
    void auditConfigCache(const core::ConfigCache &cache,
                          const fabric::FabricParams &params, Cycle now);

  private:
    ViolationSink &sink;
};

/**
 * Audit one fabric configuration against the scheduling-frontier
 * legality rules of the mapping algorithm ("frontier"):
 *
 *  - placements fit the fabric geometry and are unique per PE;
 *  - dataflow only moves forward: a PassReg/Routed operand's producer
 *    is earlier in program order and in a strictly earlier stripe;
 *  - a Routed operand pays exactly (consumer stripe − producer stripe
 *    − 1) hops;
 *  - live-in references are in range and the live-in/live-out
 *    interfaces fit the FIFO counts, with live-outs sorted by
 *    architectural register and produced by the last writer;
 *  - no stripe boundary carries more distinct values than it has pass
 *    registers.
 */
void auditFabricConfig(const fabric::FabricConfig &config,
                       const fabric::FabricParams &params,
                       ViolationSink &sink, Cycle now);

} // namespace dynaspam::check

#endif // DYNASPAM_CHECK_AUDITORS_HH
