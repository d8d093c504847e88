#include "process.hh"

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <thread>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

extern char **environ;

namespace perfbench
{

double
peakRssMb(const std::string &pid)
{
    std::ifstream is("/proc/" + pid + "/status");
    std::string line;
    while (std::getline(is, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
    return 0.0;
}

unsigned
freePort()
{
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        throw std::runtime_error("socket: " + std::string(std::strerror(errno)));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = 0;
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    socklen_t len = sizeof(addr);
    const bool ok =
        ::bind(fd, reinterpret_cast<sockaddr *>(&addr), sizeof(addr)) == 0 &&
        ::getsockname(fd, reinterpret_cast<sockaddr *>(&addr), &len) == 0;
    ::close(fd);
    if (!ok)
        throw std::runtime_error("no free port");
    return ntohs(addr.sin_port);
}

Child::Child(const std::vector<std::string> &argv,
             const std::vector<std::string> &extra_env,
             const std::string &log_path)
{
    // Inherit the environment, letting each extra NAME=value replace
    // any inherited NAME.
    std::vector<std::string> envStrings(extra_env);
    for (char **e = environ; *e; e++) {
        const std::string entry(*e);
        const std::string name = entry.substr(0, entry.find('=') + 1);
        bool replaced = false;
        for (const std::string &x : extra_env)
            replaced = replaced || x.rfind(name, 0) == 0;
        if (!replaced)
            envStrings.push_back(entry);
    }

    std::vector<char *> args, envp;
    for (const std::string &a : argv)
        args.push_back(const_cast<char *>(a.c_str()));
    args.push_back(nullptr);
    for (const std::string &e : envStrings)
        envp.push_back(const_cast<char *>(e.c_str()));
    envp.push_back(nullptr);

    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, log_path.c_str(),
                                     O_WRONLY | O_CREAT | O_TRUNC, 0644);
    posix_spawn_file_actions_adddup2(&actions, STDOUT_FILENO, STDERR_FILENO);
    const int rc = ::posix_spawn(&pid_, args[0], &actions, nullptr,
                                 args.data(), envp.data());
    posix_spawn_file_actions_destroy(&actions);
    if (rc != 0) {
        pid_ = -1;
        throw std::runtime_error("cannot spawn " + argv[0] + ": " +
                                 std::strerror(rc));
    }
}

Child::~Child()
{
    stop();
}

bool
Child::exited()
{
    if (pid_ < 0)
        return true;
    int st = 0;
    const pid_t r = ::waitpid(pid_, &st, WNOHANG);
    if (r == pid_) {
        status = WIFEXITED(st) ? WEXITSTATUS(st) : 128 + WTERMSIG(st);
        pid_ = -1;
        return true;
    }
    return false;
}

double
Child::peakRssMb() const
{
    return pid_ < 0 ? 0.0 : perfbench::peakRssMb(std::to_string(pid_));
}

bool
Child::waitExit(double timeout_s)
{
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::duration<double>(timeout_s);
    while (!exited()) {
        if (std::chrono::steady_clock::now() >= deadline)
            return false;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return true;
}

int
Child::stop(double timeout_s)
{
    if (pid_ < 0)
        return status;
    ::kill(pid_, SIGTERM);
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::duration<double>(timeout_s);
    while (!exited()) {
        if (std::chrono::steady_clock::now() >= deadline) {
            ::kill(pid_, SIGKILL);
            int st = 0;
            while (::waitpid(pid_, &st, 0) < 0 && errno == EINTR) {
            }
            status = 128 + SIGKILL;
            pid_ = -1;
            break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return status;
}

} // namespace perfbench
