/**
 * @file
 * Shared test support: a self-deleting scratch directory, a minimal
 * HTTP/1.1 client for the serve, cluster and explore front ends, a
 * bounded polling wait, and a cluster worker thread that cannot outlive
 * its test. The tests and the two benches that drive in-process
 * servers (bench_serve, bench_snapshot) use this one copy.
 */

#ifndef DYNASPAM_TESTS_SUPPORT_HH
#define DYNASPAM_TESTS_SUPPORT_HH

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <map>
#include <sstream>
#include <string>
#include <thread>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "cluster/worker.hh"

namespace dynaspam::tests
{

/** Fresh unique directory under the system temp dir, removed on exit. */
class TempDir
{
  public:
    explicit TempDir(const std::string &tag)
    {
        static std::atomic<unsigned> next{0};
        path_ = (std::filesystem::temp_directory_path() /
                 ("dynaspam-test-" + tag + "-" + std::to_string(::getpid()) +
                  "-" + std::to_string(next++)))
                    .string();
        std::filesystem::create_directories(path_);
    }
    ~TempDir()
    {
        std::error_code ec;
        std::filesystem::remove_all(path_, ec);
    }
    TempDir(const TempDir &) = delete;
    TempDir &operator=(const TempDir &) = delete;

    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

// --- HTTP test client -----------------------------------------------------

/** One parsed response. body holds the raw bytes after the blank line
 *  (still chunk-framed for a chunked stream). */
struct Reply
{
    int status = 0;
    std::map<std::string, std::string> headers;
    std::string body;
};

/** @return a socket connected to 127.0.0.1:@p port, or -1. */
inline int
connectTo(unsigned port)
{
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        return -1;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(std::uint16_t(port));
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        ::close(fd);
        return -1;
    }
    return fd;
}

/** Send all of @p wire on @p fd. @return false when the peer is gone. */
inline bool
sendRaw(int fd, const std::string &wire)
{
    std::size_t sent = 0;
    while (sent < wire.size()) {
        ssize_t n = ::send(fd, wire.data() + sent, wire.size() - sent,
                           MSG_NOSIGNAL);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            return false;
        sent += std::size_t(n);
    }
    return true;
}

/** A well-formed request with a Content-Length body. Without
 *  `Connection: close` the server keeps the connection open. */
inline std::string
requestWire(const std::string &method, const std::string &target,
            const std::string &body = "", bool close = false)
{
    std::ostringstream os;
    os << method << ' ' << target << " HTTP/1.1\r\n"
       << "Host: 127.0.0.1\r\n";
    if (close)
        os << "Connection: close\r\n";
    os << "Content-Length: " << body.size() << "\r\n\r\n" << body;
    return os.str();
}

/** Parse the status line and headers in @p raw[0, head_end). */
inline void
parseHead(const std::string &raw, std::size_t head_end, Reply &reply)
{
    std::istringstream head(raw.substr(0, head_end));
    std::string version;
    head >> version >> reply.status;
    std::string line;
    std::getline(head, line);    // rest of the status line
    while (std::getline(head, line)) {
        if (!line.empty() && line.back() == '\r')
            line.pop_back();
        std::size_t colon = line.find(':');
        if (colon == std::string::npos)
            continue;
        std::string value = line.substr(colon + 1);
        std::size_t b = value.find_first_not_of(' ');
        reply.headers[line.substr(0, colon)] =
            b == std::string::npos ? "" : value.substr(b);
    }
}

/**
 * Read exactly one response from @p fd (headers + Content-Length body)
 * without waiting for EOF — usable on keep-alive connections. status
 * is 0 when the connection breaks before the whole response arrived.
 */
inline Reply
readReply(int fd)
{
    Reply reply;
    std::string raw;
    char chunk[4096];
    std::size_t head_end;
    while ((head_end = raw.find("\r\n\r\n")) == std::string::npos) {
        ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
        if (n <= 0)
            return reply;
        raw.append(chunk, std::size_t(n));
    }
    parseHead(raw, head_end, reply);

    std::size_t body_len = 0;
    auto it = reply.headers.find("Content-Length");
    if (it != reply.headers.end())
        body_len = std::stoul(it->second);
    reply.body = raw.substr(head_end + 4);
    while (reply.body.size() < body_len) {
        ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
        if (n <= 0) {
            reply.status = 0;    // cut short: not a whole reply
            break;
        }
        reply.body.append(chunk, std::size_t(n));
    }
    return reply;
}

/** Send @p wire on a fresh connection and read to EOF (the only way to
 *  read a chunked stream whole). */
inline Reply
rawRequest(unsigned port, const std::string &wire)
{
    Reply reply;
    int fd = connectTo(port);
    if (fd < 0)
        return reply;
    sendRaw(fd, wire);

    std::string raw;
    char chunk[4096];
    while (true) {
        ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
        if (n <= 0)
            break;
        raw.append(chunk, std::size_t(n));
    }
    ::close(fd);

    std::size_t head_end = raw.find("\r\n\r\n");
    if (head_end == std::string::npos)
        return reply;
    parseHead(raw, head_end, reply);
    reply.body = raw.substr(head_end + 4);
    return reply;
}

/** One request on its own `Connection: close` connection. */
inline Reply
request(unsigned port, const std::string &method, const std::string &target,
        const std::string &body = "")
{
    return rawRequest(port, requestWire(method, target, body, true));
}

// --- Waiting --------------------------------------------------------------

/** Spin until @p predicate holds (bounded; avoids sleep-based races). */
template <typename Pred>
bool
eventually(Pred predicate, unsigned timeout_ms = 10000)
{
    for (unsigned waited = 0; waited < timeout_ms; waited++) {
        if (predicate())
            return true;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return predicate();
}

// --- Cluster worker thread ------------------------------------------------

/**
 * Runs @p worker's run() on its own thread. join() waits for run() to
 * return by itself (a drain, a rejected handshake). On scope exit —
 * including an early return from a failed ASSERT — it calls
 * shutdownNow() and joins, so a test never destroys a joinable
 * std::thread, which would std::terminate the whole binary.
 */
class WorkerThread
{
  public:
    explicit WorkerThread(cluster::Worker &worker)
        : worker_(worker), thread_([this] { exitCode_ = worker_.run(); })
    {
    }
    ~WorkerThread()
    {
        worker_.shutdownNow();
        join();
    }
    WorkerThread(const WorkerThread &) = delete;
    WorkerThread &operator=(const WorkerThread &) = delete;

    void
    join()
    {
        if (thread_.joinable())
            thread_.join();
    }

    /** run()'s return value; valid after join(). */
    int exitCode() const { return exitCode_; }

  private:
    cluster::Worker &worker_;
    int exitCode_ = -1;
    std::thread thread_;    // last: starts after the members it uses
};

} // namespace dynaspam::tests

#endif // DYNASPAM_TESTS_SUPPORT_HH
