/**
 * @file
 * Async-signal-safe interrupt handling for the CLI tools.
 *
 * `dynaspam run`/`sweep` used to die wherever SIGINT found them, which
 * could strand half-written result-cache temp files on disk. This
 * module provides the two pieces the fix needs:
 *
 *  - a *cleanup-file registry*: code that is about to create a
 *    transient file registers its path in a fixed-size, lock-free slot
 *    table and unregisters it once the file has been renamed or
 *    removed. Registration copies the path into static storage, so a
 *    signal handler can walk the table without touching the heap.
 *  - installCleanupSignalHandlers(): a SIGINT/SIGTERM handler that
 *    unlinks every registered file and _exit()s with the conventional
 *    128+signo code (130 for SIGINT, 143 for SIGTERM) — distinct from
 *    both success (0) and FatalError (2), so scripts can tell an
 *    interrupted run from a failed one.
 *
 * Everything the handler does (walking atomics, unlink, _exit) is
 * async-signal-safe. The worst a race can produce is unlinking a temp
 * file whose writer just renamed it away (ENOENT, ignored) — never a
 * truncated visible cache entry.
 *
 * The serving commands do NOT use this handler: the coordinator
 * (cluster::Coordinator, behind both `dynaspam serve` and `dynaspam
 * coordinator`) installs its own self-pipe drain handler so in-flight
 * requests finish before exit.
 */

#ifndef DYNASPAM_COMMON_INTERRUPT_HH
#define DYNASPAM_COMMON_INTERRUPT_HH

#include <cstddef>

namespace dynaspam::interrupt
{

/** Slots available for concurrently registered cleanup files. */
inline constexpr std::size_t kMaxCleanupFiles = 64;

/** Longest registerable path (longer paths are silently not tracked). */
inline constexpr std::size_t kMaxCleanupPath = 1024;

/**
 * Track @p path for unlinking if a fatal signal arrives.
 * @return a slot handle for unregisterCleanupFile, or a negative value
 *         when the table is full / the path is too long (the caller
 *         proceeds untracked — tracking is best-effort protection).
 * Thread-safe.
 */
int registerCleanupFile(const char *path);

/** Stop tracking the slot returned by registerCleanupFile (no-op for
 *  negative handles). Thread-safe. */
void unregisterCleanupFile(int slot);

/**
 * Unlink every currently registered file. This is the signal handler's
 * body, exposed separately so tests can exercise it without raising a
 * signal. Async-signal-safe. @return files successfully unlinked.
 */
std::size_t cleanupRegisteredFiles();

/**
 * Install SIGINT/SIGTERM handlers that run cleanupRegisteredFiles()
 * and _exit(128 + signo). Call once, early in a CLI command.
 */
void installCleanupSignalHandlers();

/** Exit code the handler uses for @p signo (128 + signo). */
int exitCodeFor(int signo);

} // namespace dynaspam::interrupt

#endif // DYNASPAM_COMMON_INTERRUPT_HH
