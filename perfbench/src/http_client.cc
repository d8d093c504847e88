#include "http_client.hh"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <strings.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

namespace perfbench
{
namespace
{

/** Largest response accepted (a full fig8 report is a few MB). */
constexpr std::size_t kMaxResponseBytes = 64u << 20;

bool
sendAll(int fd, const std::string &bytes)
{
    std::size_t sent = 0;
    while (sent < bytes.size()) {
        const ssize_t n = ::send(fd, bytes.data() + sent,
                                 bytes.size() - sent, MSG_NOSIGNAL);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            return false;
        sent += std::size_t(n);
    }
    return true;
}

/** Header value of @p name (case-insensitive) in @p head, or "". */
std::string
headerValue(const std::string &head, const char *name)
{
    std::istringstream lines(head);
    std::string line;
    const std::size_t len = std::char_traits<char>::length(name);
    while (std::getline(lines, line)) {
        if (line.size() > len && line[len] == ':' &&
            ::strncasecmp(line.c_str(), name, len) == 0) {
            std::string v = line.substr(len + 1);
            const auto b = v.find_first_not_of(" \t");
            const auto e = v.find_last_not_of(" \t\r");
            return b == std::string::npos ? "" : v.substr(b, e - b + 1);
        }
    }
    return "";
}

} // namespace

HttpConnection::~HttpConnection()
{
    close();
}

bool
HttpConnection::connect()
{
    fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        return false;
    // A hung server must not hang the benchmark past its time limit.
    timeval tv{};
    tv.tv_sec = 60;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(std::uint16_t(port));
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr), sizeof(addr)) !=
        0) {
        close();
        return false;
    }
    return true;
}

void
HttpConnection::close()
{
    if (fd >= 0)
        ::close(fd);
    fd = -1;
}

int
HttpConnection::exchange(const std::string &method, const std::string &target,
                         const std::string &body, std::string &response_body)
{
    response_body.clear();
    if (fd < 0 && !connect())
        return 0;

    std::ostringstream req;
    req << method << ' ' << target << " HTTP/1.1\r\n"
        << "Host: 127.0.0.1\r\nConnection: keep-alive\r\n"
        << "Content-Length: " << body.size() << "\r\n\r\n"
        << body;
    if (!sendAll(fd, req.str())) {
        close();
        return 0;
    }

    std::string raw;
    char chunk[65536];
    std::size_t headEnd;
    while ((headEnd = raw.find("\r\n\r\n")) == std::string::npos) {
        const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0 || raw.size() > kMaxResponseBytes) {
            close();
            return 0;
        }
        raw.append(chunk, std::size_t(n));
    }
    const std::string head = raw.substr(0, headEnd);
    int status = 0;
    if (std::sscanf(head.c_str(), "HTTP/1.%*d %d", &status) != 1) {
        close();
        return 0;
    }
    const std::string lengthText = headerValue(head, "Content-Length");
    char *end = nullptr;
    const unsigned long long length =
        std::strtoull(lengthText.c_str(), &end, 10);
    if (lengthText.empty() || *end || length > kMaxResponseBytes) {
        close();
        return 0;
    }

    response_body = raw.substr(headEnd + 4);
    while (response_body.size() < length) {
        const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0) {
            close();
            return 0;
        }
        response_body.append(chunk, std::size_t(n));
    }
    if (response_body.size() != length) {
        // Bytes past the body would desynchronise the next exchange.
        close();
        return 0;
    }
    if (::strcasecmp(headerValue(head, "Connection").c_str(), "close") == 0)
        close();
    return status;
}

int
httpGet(unsigned port, const std::string &target, std::string &body)
{
    HttpConnection conn(port);
    return conn.exchange("GET", target, "", body);
}

double
prometheusSum(const std::string &text, const std::string &name)
{
    std::istringstream lines(text);
    std::string line;
    double sum = 0.0;
    while (std::getline(lines, line)) {
        if (line.size() <= name.size() || line.compare(0, name.size(), name))
            continue;
        const char next = line[name.size()];
        if (next != ' ' && next != '{')
            continue;
        const auto space = line.rfind(' ');
        sum += std::strtod(line.c_str() + space + 1, nullptr);
    }
    return sum;
}

} // namespace perfbench
