/**
 * @file
 * Minimal blocking HTTP/1.1 client over one keep-alive connection to
 * 127.0.0.1, enough to drive `dynaspam serve` and `dynaspam coordinator`.
 */

#ifndef PERFBENCH_HTTP_CLIENT_HH
#define PERFBENCH_HTTP_CLIENT_HH

#include <string>

namespace perfbench
{

/** One keep-alive connection; reconnects after a broken exchange. */
class HttpConnection
{
  public:
    explicit HttpConnection(unsigned server_port) : port(server_port) {}
    ~HttpConnection();

    HttpConnection(const HttpConnection &) = delete;
    HttpConnection &operator=(const HttpConnection &) = delete;

    /**
     * Send one request and read its whole response (Content-Length
     * framed) into @p response_body.
     * @return the status code, or 0 when the connection broke
     */
    int exchange(const std::string &method, const std::string &target,
                 const std::string &body, std::string &response_body);

  private:
    bool connect();
    void close();

    unsigned port;
    int fd = -1;
};

/** One GET on a fresh connection. @return status, 0 when unreachable. */
int httpGet(unsigned port, const std::string &target, std::string &body);

/**
 * Sum of every Prometheus sample of metric @p name in @p text, whatever
 * its labels; 0 when absent.
 */
double prometheusSum(const std::string &text, const std::string &name);

} // namespace perfbench

#endif // PERFBENCH_HTTP_CLIENT_HH
