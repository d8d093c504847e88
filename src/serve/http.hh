/**
 * @file
 * Minimal HTTP/1.1 message layer over POSIX sockets.
 *
 * Implements exactly the subset the simulation service needs: parsing
 * one request (request line, headers, Content-Length body) out of a
 * byte buffer with a hard size cap, and serializing one response with
 * Content-Length. Responses may
 * alternatively stream with `Transfer-Encoding: chunked` (the /explore
 * NDJSON stream); requests may not. No TLS.
 *
 * The epoll coordinator (cluster::Coordinator) accumulates bytes
 * non-blockingly and calls parseHttpRequest on its own buffers. A
 * response advertises `Connection: keep-alive` or `Connection: close`
 * depending on the flag the caller passes; the coordinator defaults to
 * HTTP/1.1 persistent connections.
 *
 * Header names are lower-cased on parse so lookups are
 * case-insensitive per RFC 9110. Bodies require an explicit
 * Content-Length; requests exceeding the configured cap are rejected
 * before the body is buffered, so a hostile client cannot balloon
 * memory.
 *
 * All socket writes go through sendAll, which survives partial writes,
 * EINTR, and EAGAIN/EWOULDBLOCK (non-blocking sockets or SO_SNDTIMEO
 * expiry) by polling for writability — a large sweep report is either
 * delivered completely or reported as a failure, never silently
 * truncated.
 */

#ifndef DYNASPAM_SERVE_HTTP_HH
#define DYNASPAM_SERVE_HTTP_HH

#include <cstddef>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/fd.hh"

namespace dynaspam::serve
{

/** One parsed HTTP request. */
struct HttpRequest
{
    std::string method;   ///< "GET", "POST", ... (as sent)
    std::string target;   ///< request target, e.g. "/run"
    std::string version;  ///< "HTTP/1.1"
    /** Headers with lower-cased names and trimmed values. */
    std::map<std::string, std::string> headers;
    std::string body;

    /** @return header value or empty string when absent (name must be
     *  given lower-case). */
    const std::string &header(const std::string &name) const;
};

/** Outcome of one incremental parse attempt over a byte buffer. */
enum class HttpParseOutcome
{
    NeedMore,  ///< no complete request in the buffer yet
    Ok,        ///< one request parsed; @p consumed bytes were used
    Malformed, ///< syntactically invalid request -> 400
    TooLarge,  ///< exceeds the size cap -> 413
};

/**
 * Try to parse one complete request from the front of @p buf.
 * Does not modify @p buf; on Ok, @p consumed is the number of bytes the
 * request occupied (the caller erases them, keeping any pipelined
 * leftover for the next call).
 * @param max_bytes hard cap on total request size (line+headers+body)
 */
HttpParseOutcome parseHttpRequest(const std::string &buf,
                                  std::size_t max_bytes, HttpRequest &out,
                                  std::size_t &consumed);

/** One response to serialize. */
struct HttpResponse
{
    int status = 200;
    std::string contentType = "application/json";
    std::string body;
    /** Extra headers, e.g. {"Retry-After", "2"}. */
    std::vector<std::pair<std::string, std::string>> extraHeaders;
};

/**
 * Serialize @p resp into wire bytes (status line, Content-Length,
 * `Connection: keep-alive` or `close` per @p keep_alive, headers,
 * body).
 */
std::string serializeHttpResponse(const HttpResponse &resp,
                                  bool keep_alive = false);

/**
 * Serialize the head of a chunked (streaming) response: status line,
 * Content-Type, `Transfer-Encoding: chunked`, `Connection: close` and
 * any @p extra_headers — everything up to and including the blank line.
 * The body then flows as encodeChunk() pieces terminated by
 * kLastChunk. Streaming responses never keep the connection alive: the
 * chunk terminator is the application-level end marker and closing is
 * what lets both ends agree the stream is complete.
 */
std::string chunkedResponseHead(
    int status, const std::string &content_type,
    const std::vector<std::pair<std::string, std::string>>
        &extra_headers = {});

/** Encode one non-empty chunk: hex size, CRLF, payload, CRLF. */
std::string encodeChunk(const std::string &data);

/** The terminating zero-size chunk ("0\r\n\r\n"). */
inline constexpr const char *kLastChunk = "0\r\n\r\n";

/**
 * Decode a complete chunked body (test/client helper). @p raw is
 * everything after the header block; trailers are not supported.
 * @return false on malformed framing or a missing terminator
 */
bool decodeChunkedBody(const std::string &raw, std::string &out);

/**
 * Send exactly @p len bytes, surviving partial writes, EINTR and
 * EAGAIN/EWOULDBLOCK (polls for writability with a bounded stall
 * budget per attempt). Never raises SIGPIPE. @return false when the
 * peer vanished or stayed unwritable for the whole stall budget.
 */
bool sendAll(int fd, const char *data, std::size_t len);

/**
 * Create a listening TCP socket: SO_REUSEADDR, bind to
 * @p bind_address:@p port (port 0 picks an ephemeral port), listen with
 * @p backlog. @p bound_port receives the actually bound port.
 * @return the owned listening socket
 * @throws FatalError when the socket cannot be bound
 */
common::Fd listenTcp(const std::string &bind_address, unsigned port,
                     int backlog, unsigned &bound_port);

/** Canonical reason phrase for @p status ("OK", "Not Found", ...). */
const char *httpStatusReason(int status);

} // namespace dynaspam::serve

#endif // DYNASPAM_SERVE_HTTP_HH
