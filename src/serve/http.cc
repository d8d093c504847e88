#include "serve/http.hh"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <sstream>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "common/logging.hh"

namespace dynaspam::serve
{

namespace
{

const std::string kEmpty;

/**
 * How long one send may sit unwritable before sendAll gives up. A peer
 * that stops reading for this long is treated as vanished; a merely
 * slow peer (tiny SO_SNDBUF, bursty reader) drains well within it.
 */
constexpr int kSendStallTimeoutMs = 10000;

std::string
toLower(std::string s)
{
    std::transform(s.begin(), s.end(), s.begin(), [](unsigned char c) {
        return char(std::tolower(c));
    });
    return s;
}

std::string
trim(const std::string &s)
{
    std::size_t b = s.find_first_not_of(" \t\r");
    if (b == std::string::npos)
        return "";
    std::size_t e = s.find_last_not_of(" \t\r");
    return s.substr(b, e - b + 1);
}

} // namespace

const std::string &
HttpRequest::header(const std::string &name) const
{
    auto it = headers.find(name);
    return it == headers.end() ? kEmpty : it->second;
}

HttpParseOutcome
parseHttpRequest(const std::string &buf, std::size_t max_bytes,
                 HttpRequest &out, std::size_t &consumed)
{
    out = HttpRequest{};
    consumed = 0;

    std::size_t header_end = buf.find("\r\n\r\n");
    if (header_end == std::string::npos)
        return buf.size() > max_bytes ? HttpParseOutcome::TooLarge
                                      : HttpParseOutcome::NeedMore;

    // Request line: METHOD SP TARGET SP VERSION.
    const std::string head = buf.substr(0, header_end);
    std::istringstream lines(head);
    std::string request_line;
    if (!std::getline(lines, request_line))
        return HttpParseOutcome::Malformed;
    {
        std::istringstream rl(trim(request_line));
        if (!(rl >> out.method >> out.target >> out.version))
            return HttpParseOutcome::Malformed;
        if (out.version.rfind("HTTP/", 0) != 0)
            return HttpParseOutcome::Malformed;
    }

    // Header lines: "Name: value". Later duplicates win; none of the
    // headers the server consults are list-valued.
    std::string line;
    while (std::getline(lines, line)) {
        line = trim(line);
        if (line.empty())
            continue;
        std::size_t colon = line.find(':');
        if (colon == std::string::npos || colon == 0)
            return HttpParseOutcome::Malformed;
        out.headers[toLower(trim(line.substr(0, colon)))] =
            trim(line.substr(colon + 1));
    }

    // Body: exactly Content-Length bytes (0 when absent).
    std::size_t body_len = 0;
    const std::string &cl = out.header("content-length");
    if (!cl.empty()) {
        char *end = nullptr;
        unsigned long long v = std::strtoull(cl.c_str(), &end, 10);
        if (!end || *end)
            return HttpParseOutcome::Malformed;
        body_len = std::size_t(v);
    }
    const std::size_t body_start = header_end + 4;
    if (body_start + body_len > max_bytes)
        return HttpParseOutcome::TooLarge;
    if (buf.size() < body_start + body_len)
        return HttpParseOutcome::NeedMore;

    out.body = buf.substr(body_start, body_len);
    consumed = body_start + body_len;
    return HttpParseOutcome::Ok;
}

bool
sendAll(int fd, const char *data, std::size_t len)
{
    std::size_t sent = 0;
    while (sent < len) {
        // MSG_NOSIGNAL: a vanished client must not SIGPIPE the daemon.
        ssize_t n = ::send(fd, data + sent, len - sent, MSG_NOSIGNAL);
        if (n >= 0) {
            sent += std::size_t(n);
            continue;
        }
        if (errno == EINTR)
            continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) {
            // Non-blocking socket (or SO_SNDTIMEO expired) with a full
            // send buffer: wait for writability, bounded so a peer that
            // stopped reading cannot pin this thread forever.
            pollfd pfd{fd, POLLOUT, 0};
            int ready = ::poll(&pfd, 1, kSendStallTimeoutMs);
            if (ready < 0 && errno == EINTR)
                continue;
            if (ready <= 0)
                return false;
            continue;
        }
        return false;
    }
    return true;
}

std::string
serializeHttpResponse(const HttpResponse &resp, bool keep_alive)
{
    std::ostringstream os;
    os << "HTTP/1.1 " << resp.status << ' '
       << httpStatusReason(resp.status) << "\r\n"
       << "Content-Type: " << resp.contentType << "\r\n"
       << "Content-Length: " << resp.body.size() << "\r\n"
       << "Connection: " << (keep_alive ? "keep-alive" : "close")
       << "\r\n";
    for (const auto &kv : resp.extraHeaders)
        os << kv.first << ": " << kv.second << "\r\n";
    os << "\r\n" << resp.body;
    return os.str();
}

std::string
chunkedResponseHead(
    int status, const std::string &content_type,
    const std::vector<std::pair<std::string, std::string>> &extra_headers)
{
    std::ostringstream os;
    os << "HTTP/1.1 " << status << ' ' << httpStatusReason(status)
       << "\r\n"
       << "Content-Type: " << content_type << "\r\n"
       << "Transfer-Encoding: chunked\r\n"
       << "Connection: close\r\n";
    for (const auto &kv : extra_headers)
        os << kv.first << ": " << kv.second << "\r\n";
    os << "\r\n";
    return os.str();
}

std::string
encodeChunk(const std::string &data)
{
    std::ostringstream os;
    os << std::hex << data.size() << "\r\n" << data << "\r\n";
    return os.str();
}

bool
decodeChunkedBody(const std::string &raw, std::string &out)
{
    out.clear();
    std::size_t pos = 0;
    while (true) {
        std::size_t eol = raw.find("\r\n", pos);
        if (eol == std::string::npos)
            return false;
        std::size_t size = 0;
        bool any = false;
        for (std::size_t i = pos; i < eol; i++) {
            char c = raw[i];
            int digit;
            if (c >= '0' && c <= '9')
                digit = c - '0';
            else if (c >= 'a' && c <= 'f')
                digit = c - 'a' + 10;
            else if (c >= 'A' && c <= 'F')
                digit = c - 'A' + 10;
            else
                return false;
            if (size > (SIZE_MAX >> 4))
                return false;
            size = (size << 4) | std::size_t(digit);
            any = true;
        }
        if (!any)
            return false;
        pos = eol + 2;
        if (size == 0)
            return raw.compare(pos, 2, "\r\n") == 0;
        // Compare against what is left rather than adding to pos: a
        // size near SIZE_MAX would wrap pos + size + 2.
        if (raw.size() - pos < 2 || size > raw.size() - pos - 2)
            return false;
        out.append(raw, pos, size);
        if (raw.compare(pos + size, 2, "\r\n") != 0)
            return false;
        pos += size + 2;
    }
}

common::Fd
listenTcp(const std::string &bind_address, unsigned port, int backlog,
          unsigned &bound_port)
{
    // The Fd owns the socket from creation on, so every fatal() below
    // (which throws) closes it on the way out — no per-path ::close.
    common::Fd fd(::socket(AF_INET, SOCK_STREAM, 0));
    if (!fd)
        fatal("listen: socket: ", std::strerror(errno));

    int one = 1;
    ::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(std::uint16_t(port));
    if (::inet_pton(AF_INET, bind_address.c_str(), &addr.sin_addr) != 1)
        fatal("listen: bad bind address \"", bind_address, "\"");
    if (::bind(fd.get(), reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) != 0)
        fatal("listen: bind ", bind_address, ":", port, ": ",
              std::strerror(errno));
    if (::listen(fd.get(), backlog) != 0)
        fatal("listen: ", std::strerror(errno));

    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (::getsockname(fd.get(), reinterpret_cast<sockaddr *>(&bound),
                      &len) != 0)
        fatal("listen: getsockname: ", std::strerror(errno));
    bound_port = ntohs(bound.sin_port);
    return fd;
}

const char *
httpStatusReason(int status)
{
    switch (status) {
      case 200: return "OK";
      case 202: return "Accepted";
      case 400: return "Bad Request";
      case 404: return "Not Found";
      case 405: return "Method Not Allowed";
      case 408: return "Request Timeout";
      case 413: return "Payload Too Large";
      case 429: return "Too Many Requests";
      case 500: return "Internal Server Error";
      case 503: return "Service Unavailable";
      default: return "Unknown";
    }
}

} // namespace dynaspam::serve
