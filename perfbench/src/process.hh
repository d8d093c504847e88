/**
 * @file
 * Child processes of the serving workloads (`dynaspam serve`,
 * `coordinator`, `worker`): spawned with their output in a log file,
 * watched for their readiness lines, and always stopped and reaped.
 */

#ifndef PERFBENCH_PROCESS_HH
#define PERFBENCH_PROCESS_HH

#include <string>
#include <vector>

#include <sys/types.h>

namespace perfbench
{

/** One spawned process; the destructor stops and reaps it. */
class Child
{
  public:
    /**
     * Spawn @p argv with @p extra_env (NAME=value entries) added to this
     * process's environment, stdout and stderr going to @p log_path.
     * @throws std::runtime_error when the spawn fails
     */
    Child(const std::vector<std::string> &argv,
          const std::vector<std::string> &extra_env,
          const std::string &log_path);
    ~Child();

    Child(const Child &) = delete;
    Child &operator=(const Child &) = delete;

    /** @return false once the process has exited (reaping it). */
    bool running() { return !exited(); }

    /** Peak resident set (VmHWM) in MiB, 0 when unreadable. */
    double peakRssMb() const;

    /**
     * SIGTERM, wait up to @p timeout_s, then SIGKILL; reap.
     * @return the exit status (128 + signal when killed); -1 when the
     *         process was never started
     */
    int stop(double timeout_s = 10.0);

    /** Wait up to @p timeout_s for the process to exit on its own.
     *  @return true when it has exited */
    bool waitExit(double timeout_s);

  private:
    bool exited();

    pid_t pid_ = -1;
    int status = -1;
};

/** VmHWM in MiB of @p pid ("self" for this process), 0 when unreadable. */
double peakRssMb(const std::string &pid);

/**
 * A TCP port on 127.0.0.1 that was free a moment ago (bound to port 0
 * and released). The servers print their ports only to a buffered
 * stdout, so the benchmark chooses them.
 */
unsigned freePort();

} // namespace perfbench

#endif // PERFBENCH_PROCESS_HH
