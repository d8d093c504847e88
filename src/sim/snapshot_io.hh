/**
 * @file
 * On-disk (de)serialization of sim::Snapshot.
 *
 * A Snapshot is an in-memory deep copy of a paused simulation; this
 * layer turns it into a platform-stable byte string so a warmed prefix
 * survives process restarts and can ship to cluster workers.
 *
 * There is no per-type encoder. Every aggregate reachable from a
 * Snapshot declares one field list (common/fields.hh), and one generic
 * codec walks it, with one rule per leaf type:
 *
 *  - bool, u8 and enums are one byte; bools and enums are range-checked
 *    on decode;
 *  - other integers up to 32 bits are u32, 64-bit integers u64, signed
 *    integers i64 — all little-endian (common/binio.hh), and narrowed
 *    back with a range check; no struct is ever memcpy'd whole;
 *  - vector, deque and Ring carry a u64 count, std::array and C arrays
 *    none;
 *  - map, unordered_map and unordered_set carry a u64 count and are
 *    written in ascending key order (and must decode in it), so the same
 *    state always produces the same bytes;
 *  - optional carries a flag byte;
 *  - shared FabricConfig pointers are pooled: one body per config, then
 *    its id.
 *
 * Three hooks cover what a list cannot say: the raw StaticInst/DynRecord
 * pointers inside DynInst are derived, never written, and are rebound on
 * load from the trace index against the SimInput the caller provides,
 * bounds-checked; the FabricConfig pool; and MappingSession, whose
 * geometry is validated before the session is constructed. An identity
 * hash of the SimInput travels with the snapshot so a loader never binds
 * state to the wrong input.
 *
 * Deserialization is fail-soft: corrupt, truncated or semantically
 * invalid bytes return false (degrading to a cache miss / re-warm) and
 * never fatal or invoke UB. Decoding checks structure, not geometry: a
 * decoded snapshot must still pass Simulation::fits() before restore.
 */

#ifndef DYNASPAM_SIM_SNAPSHOT_IO_HH
#define DYNASPAM_SIM_SNAPSHOT_IO_HH

#include <cstdint>
#include <memory>
#include <string>

#include "sim/snapshot.hh"

namespace dynaspam::sim
{

/** Bump when the snapshot body encoding changes shape. Mismatched
 *  versions are rejected at load time and fall back to re-warming. */
inline constexpr std::uint32_t kSnapshotFormatVersion = 4;

/**
 * Digest of the layout kSnapshotFormatVersion names: every field list
 * reachable from a Snapshot, member names and leaf encodings, in walk
 * order (computed by test_snapshot). The test pins the two together:
 * change a field list and it fails until the version is bumped and the
 * new digest recorded here.
 */
inline constexpr std::uint64_t kSnapshotLayoutDigest = 0x15365226cc0508afULL;

/**
 * Stable identity hash of a SimInput: program name and code, initial
 * memory contents, the full oracle trace and the functional verdict.
 * Two SimInputs with equal hashes are interchangeable for restore.
 */
std::uint64_t simInputIdentityHash(const SimInput &input);

/** Append the snapshot body (cpu, memory, controller?, verifier?) to
 *  @p out. The SimInput itself is NOT encoded — only state over it. */
void serializeSnapshot(const Snapshot &snap, std::string &out);

/**
 * Decode a snapshot body into @p snap, binding it to @p input (which
 * must be the same logical input the snapshot was captured over —
 * callers compare simInputIdentityHash before calling). Pipeline
 * pointers are re-derived from trace indices against @p input.
 *
 * @return true on success; false on any corruption (snap is then in an
 *         unspecified but safe-to-destroy state, input binding intact)
 */
bool deserializeSnapshot(const std::string &bytes,
                         std::shared_ptr<const SimInput> input,
                         Snapshot &snap);

} // namespace dynaspam::sim

#endif // DYNASPAM_SIM_SNAPSHOT_IO_HH
