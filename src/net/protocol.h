#ifndef GRTDB_NET_PROTOCOL_H_
#define GRTDB_NET_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "server/result.h"
#include "sql/ast.h"

namespace grtdb {
namespace net {

// Wire protocol (DESIGN.md "Wire protocol"): every message is one frame,
//
//   u32-LE payload-length | payload bytes
//
// Request payload:  u8 opcode, u32-LE sql-length, sql bytes.
//   kPrepare additionally carries: string stmt_name (the sql field holds
//   the statement text to prepare).
//   kExecutePrepared carries: string stmt_name, u32-LE param count, then
//   per parameter a u8 kind tag (0 null, 1 integer, 2 float, 3 string)
//   followed by the value (u64 two's-complement, u64 IEEE-754 bits, or a
//   string). The sql field stays empty.
//   Any request may end with an optional trailing u64-LE trace id; it is
//   encoded only when nonzero, so frames from clients that never set one
//   are byte-identical to the pre-tracing format. A nonzero id forces the
//   server to sample the request into its span buffer under that id.
// Response payload: u8 status-code, string message, u64 affected,
//                   string-list columns, row-list rows, string-list
//                   messages — where string = u32-LE length + bytes and
//                   each list is u32-LE count + elements.
//
// The format is deliberately dumb: no negotiation, no versioning byte
// beyond the opcode space, everything little-endian. A frame larger than
// kMaxFrameBytes is a protocol error and closes the connection — the cap
// bounds what one malformed or hostile client can make the server buffer.

constexpr uint32_t kMaxFrameBytes = 16u * 1024 * 1024;

enum class Opcode : uint8_t {
  kExecute = 1,          // one statement, Server::Execute
  kScript = 2,           // semicolon-separated script, Server::ExecuteScript
  kPing = 3,             // liveness probe, empty sql
  kPrepare = 4,          // PREPARE stmt_name AS sql, Server::Prepare
  kExecutePrepared = 5,  // EXECUTE stmt_name (params), Server::ExecutePrepared
};

struct Request {
  Opcode opcode = Opcode::kExecute;
  std::string sql;        // kExecute / kScript / kPrepare (statement text)
  std::string stmt_name;  // kPrepare / kExecutePrepared
  std::vector<sql::Literal> params;  // kExecutePrepared
  // Client-chosen trace id; 0 means "not set" (omitted from the wire).
  uint64_t trace_id = 0;
};

struct Response {
  Status status;
  ResultSet result;
};

// Payload (not frame) encode/decode. Decode returns InvalidArgument on a
// truncated or malformed payload and never reads out of bounds.
std::string EncodeRequest(const Request& request);
Status DecodeRequest(std::string_view payload, Request* out);
std::string EncodeResponse(const Response& response);
// Decodes the server's verdict into `*status` and the result into
// `*result`, in place: the result is cleared first and keeps its
// capacity, so one ResultSet reused across responses allocates nothing
// per row. On a decode error `*result` is left empty and `*status` as it
// was.
Status DecodeResponse(std::string_view payload, Status* status,
                      ResultSet* result);
inline Status DecodeResponse(std::string_view payload, Response* out) {
  return DecodeResponse(payload, &out->status, &out->result);
}

// Rebuilds a Status from its wire (code, message) pair. Unknown codes map
// to Internal, so a newer peer degrades loudly instead of silently-OK.
Status MakeStatus(uint8_t code, std::string message);

// Blocking frame I/O over a connected socket. Loops over partial
// reads/writes and EINTR. ReadFrame returns Aborted on clean EOF at a
// frame boundary (peer closed), IOError on anything else. It resizes
// `*payload` to the frame, so a caller that passes one string for every
// frame allocates only past its largest frame so far. WriteFrame sends
// the header and the payload with one sendmsg, without copying them into
// one buffer, and with MSG_NOSIGNAL: a peer that closed early makes it
// return IOError instead of raising SIGPIPE, which would end the process.
Status ReadFrame(int fd, std::string* payload);
Status WriteFrame(int fd, std::string_view payload);

}  // namespace net
}  // namespace grtdb

#endif  // GRTDB_NET_PROTOCOL_H_
