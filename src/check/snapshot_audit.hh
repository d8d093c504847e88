/**
 * @file
 * Snapshot round-trip auditor.
 *
 * The forked-sweep machinery relies on sim::Snapshot capturing the
 * COMPLETE mutable simulator state: a restore followed by a re-save
 * must reproduce the source snapshot exactly, or the fork will quietly
 * drift from the straight-through run. This auditor walks the same
 * field lists the snapshot codec does (common/fields.hh) over both
 * snapshots and reports the full path to the first differing leaf
 * through a ViolationSink ("cpu.bpred.rasTop",
 * "controller.fabrics[0].live.lastUse", ...), so a restore that drops a
 * field shows up as a named violation instead of a mystery byte-diff
 * three layers up.
 *
 * Wired in two places: the runner's fork path re-saves every restored
 * fork and audits it against the warmup snapshot when checks are
 * enabled, and the fault-injection self-test seeds a corrupted restore
 * to prove the diff actually fires (FaultInjector::injectSnapshotFault).
 */

#ifndef DYNASPAM_CHECK_SNAPSHOT_AUDIT_HH
#define DYNASPAM_CHECK_SNAPSHOT_AUDIT_HH

#include <string>

#include "check/check.hh"
#include "common/types.hh"

namespace dynaspam::sim
{
struct Snapshot;
} // namespace dynaspam::sim

namespace dynaspam::check
{

/**
 * @return the path to the first leaf where @p got differs from
 * @p expect, in field-list order ("cpu.curCycle",
 * "controller.pending[42].startedOnIdx", ...); empty when identical.
 */
std::string firstSnapshotDiff(const sim::Snapshot &expect,
                              const sim::Snapshot &got);

/**
 * Compare @p got against @p expect field by field. Reports one
 * violation (auditor tag "snapshot") naming firstSnapshotDiff().
 * @param now cycle recorded in the violation
 * @return true when the snapshots are identical
 */
bool auditSnapshotRoundTrip(const sim::Snapshot &expect,
                            const sim::Snapshot &got, ViolationSink &sink,
                            Cycle now);

} // namespace dynaspam::check

#endif // DYNASPAM_CHECK_SNAPSHOT_AUDIT_HH
