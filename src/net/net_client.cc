#include "net/net_client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace grtdb {
namespace net {

Status NetClient::Connect(const std::string& host, uint16_t port) {
  if (fd_ >= 0) return Status::InvalidArgument("already connected");
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IOError(std::string("socket: ") + std::strerror(errno));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Status::InvalidArgument("bad address '" + host + "'");
  }
  int rc;
  do {
    rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  } while (rc < 0 && errno == EINTR);
  if (rc < 0) {
    Status status =
        Status::IOError(std::string("connect: ") + std::strerror(errno));
    ::close(fd);
    return status;
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  fd_ = fd;
  return Status::OK();
}

void NetClient::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  std::string().swap(payload_);
}

Status NetClient::RoundTrip(Request* request, ResultSet* out) {
  if (fd_ < 0) return Status::IOError("not connected");
  request->trace_id = trace_id_;
  Status io = WriteFrame(fd_, EncodeRequest(*request));
  if (io.ok()) io = ReadFrame(fd_, &payload_);
  if (io.ok()) {
    // Decoded in place: a caller that reuses `out` reuses its capacity.
    ResultSet discarded;
    Status verdict;
    io = DecodeResponse(payload_, &verdict,
                        out != nullptr ? out : &discarded);
    if (io.ok()) return verdict;
  }
  // Transport broke mid-exchange: the connection's framing state is
  // unknown, so it is dead from here on.
  Close();
  return io;
}

Status NetClient::Execute(const std::string& sql, ResultSet* out) {
  Request request;
  request.opcode = Opcode::kExecute;
  request.sql = sql;
  return RoundTrip(&request, out);
}

Status NetClient::ExecuteScript(const std::string& sql, ResultSet* out) {
  Request request;
  request.opcode = Opcode::kScript;
  request.sql = sql;
  return RoundTrip(&request, out);
}

Status NetClient::Ping() {
  Request request;
  request.opcode = Opcode::kPing;
  return RoundTrip(&request, nullptr);
}

Status NetClient::Prepare(const std::string& name, const std::string& sql,
                          ResultSet* out) {
  Request request;
  request.opcode = Opcode::kPrepare;
  request.sql = sql;
  request.stmt_name = name;
  return RoundTrip(&request, out);
}

Status NetClient::ExecutePrepared(const std::string& name,
                                  const std::vector<sql::Literal>& params,
                                  ResultSet* out) {
  Request request;
  request.opcode = Opcode::kExecutePrepared;
  request.stmt_name = name;
  request.params = params;
  return RoundTrip(&request, out);
}

}  // namespace net
}  // namespace grtdb
