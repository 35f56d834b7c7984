#ifndef GRTDB_NET_NET_CLIENT_H_
#define GRTDB_NET_NET_CLIENT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "net/protocol.h"
#include "server/result.h"
#include "sql/ast.h"

namespace grtdb {
namespace net {

// Blocking single-connection client. One NetClient is one server-side
// session; statements sent through it share that session's transaction
// and SET state. Not thread-safe — one thread per client, like one
// connection per application thread.
class NetClient {
 public:
  NetClient() = default;
  ~NetClient() { Close(); }

  NetClient(const NetClient&) = delete;
  NetClient& operator=(const NetClient&) = delete;

  Status Connect(const std::string& host, uint16_t port);
  void Close();
  bool connected() const { return fd_ >= 0; }

  // Round-trips one statement (or script). The returned Status is the
  // server's verdict on the SQL; transport failures surface as IOError
  // and close the connection (the server has rolled the session back).
  Status Execute(const std::string& sql, ResultSet* out);
  Status ExecuteScript(const std::string& sql, ResultSet* out);
  Status Ping();

  // Server-side prepared statements. Prepare registers `sql` (with `?`
  // placeholders) under `name` in this connection's session;
  // ExecutePrepared binds the parameters and runs it. Names live until
  // DEALLOCATE or disconnect.
  Status Prepare(const std::string& name, const std::string& sql,
                 ResultSet* out);
  Status ExecutePrepared(const std::string& name,
                         const std::vector<sql::Literal>& params,
                         ResultSet* out);

  // Trace id stamped on every subsequent request; the server samples a
  // traced request into sys_spans under this id regardless of its
  // TRACE_SAMPLE setting. 0 (the default) sends no id — the server
  // decides sampling itself. Set per operation for per-op attribution.
  void set_trace_id(uint64_t id) { trace_id_ = id; }
  uint64_t trace_id() const { return trace_id_; }

 private:
  Status RoundTrip(Request* request, ResultSet* out);

  int fd_ = -1;
  uint64_t trace_id_ = 0;
  // The connection's receive buffer, reused for every response.
  std::string payload_;
};

}  // namespace net
}  // namespace grtdb

#endif  // GRTDB_NET_NET_CLIENT_H_
