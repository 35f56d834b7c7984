#include "net/protocol.h"

#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <span>
#include <string_view>

#include "common/bytes.h"

namespace grtdb {
namespace net {

namespace {

void PutU8(std::string* out, uint8_t v) {
  out->push_back(static_cast<char>(v));
}

void PutU32(std::string* out, uint32_t v) {
  uint8_t bytes[4];
  StoreU32(bytes, v);
  out->append(reinterpret_cast<const char*>(bytes), sizeof(bytes));
}

void PutU64(std::string* out, uint64_t v) {
  uint8_t bytes[8];
  StoreU64(bytes, v);
  out->append(reinterpret_cast<const char*>(bytes), sizeof(bytes));
}

void PutString(std::string* out, const std::string& s) {
  PutU32(out, static_cast<uint32_t>(s.size()));
  out->append(s);
}

void PutStringList(std::string* out, std::span<const std::string> list) {
  PutU32(out, static_cast<uint32_t>(list.size()));
  for (const std::string& s : list) PutString(out, s);
}

// The bytes PutStringList writes for `list`.
size_t StringListBytes(std::span<const std::string> list) {
  size_t bytes = 4;
  for (const std::string& s : list) bytes += 4 + s.size();
  return bytes;
}

// Bounds-checked cursor over a received payload. Every getter returns
// false once the payload runs short; callers bail to InvalidArgument.
class Reader {
 public:
  explicit Reader(std::string_view data) : data_(data) {}

  bool GetU8(uint8_t* v) {
    if (pos_ + 1 > data_.size()) return false;
    *v = static_cast<uint8_t>(data_[pos_++]);
    return true;
  }

  bool GetU32(uint32_t* v) {
    if (pos_ + 4 > data_.size()) return false;
    *v = LoadU32(at());
    pos_ += 4;
    return true;
  }

  bool GetU64(uint64_t* v) {
    if (pos_ + 8 > data_.size()) return false;
    *v = LoadU64(at());
    pos_ += 8;
    return true;
  }

  bool GetString(std::string_view* s) {
    uint32_t len = 0;
    if (!GetU32(&len)) return false;
    if (len > data_.size() - pos_) return false;
    *s = data_.substr(pos_, len);
    pos_ += len;
    return true;
  }

  bool GetString(std::string* s) {
    std::string_view view;
    if (!GetString(&view)) return false;
    s->assign(view);
    return true;
  }

  bool GetStringList(std::vector<std::string>* list) {
    uint32_t count = 0;
    if (!GetU32(&count) || !CountFits(count, 4)) return false;
    list->clear();
    list->reserve(count);
    for (uint32_t i = 0; i < count; ++i) {
      std::string_view s;
      if (!GetString(&s)) return false;
      list->emplace_back(s);
    }
    return true;
  }

  // An honest list count never exceeds the bytes left divided by the
  // smallest element (a string's 4-byte length, a row's 4-byte count);
  // checked before a count drives a reserve.
  bool CountFits(uint32_t count, size_t min_element_bytes) const {
    return count <= (data_.size() - pos_) / min_element_bytes;
  }

  bool AtEnd() const { return pos_ == data_.size(); }

 private:
  const uint8_t* at() const {
    return reinterpret_cast<const uint8_t*>(data_.data()) + pos_;
  }

  std::string_view data_;
  size_t pos_ = 0;
};

}  // namespace

namespace {

// Parameter kind tags for kExecutePrepared. Only concrete literal kinds
// travel the wire — a kParam placeholder can never be its own binding.
constexpr uint8_t kParamNull = 0;
constexpr uint8_t kParamInteger = 1;
constexpr uint8_t kParamFloat = 2;
constexpr uint8_t kParamString = 3;

void PutParam(std::string* out, const sql::Literal& param) {
  switch (param.kind) {
    case sql::Literal::Kind::kInteger:
      PutU8(out, kParamInteger);
      PutU64(out, static_cast<uint64_t>(param.integer));
      return;
    case sql::Literal::Kind::kFloat: {
      PutU8(out, kParamFloat);
      uint64_t bits = 0;
      static_assert(sizeof(bits) == sizeof(param.real));
      std::memcpy(&bits, &param.real, sizeof(bits));
      PutU64(out, bits);
      return;
    }
    case sql::Literal::Kind::kString:
      PutU8(out, kParamString);
      PutString(out, param.text);
      return;
    case sql::Literal::Kind::kNull:
    case sql::Literal::Kind::kParam:  // unreachable; encode as NULL
      PutU8(out, kParamNull);
      return;
  }
}

bool GetParam(Reader* reader, sql::Literal* out) {
  uint8_t kind = 0;
  if (!reader->GetU8(&kind)) return false;
  switch (kind) {
    case kParamNull:
      out->kind = sql::Literal::Kind::kNull;
      return true;
    case kParamInteger: {
      uint64_t bits = 0;
      if (!reader->GetU64(&bits)) return false;
      out->kind = sql::Literal::Kind::kInteger;
      out->integer = static_cast<int64_t>(bits);
      return true;
    }
    case kParamFloat: {
      uint64_t bits = 0;
      if (!reader->GetU64(&bits)) return false;
      out->kind = sql::Literal::Kind::kFloat;
      std::memcpy(&out->real, &bits, sizeof(out->real));
      return true;
    }
    case kParamString:
      out->kind = sql::Literal::Kind::kString;
      return reader->GetString(&out->text);
    default:
      return false;
  }
}

}  // namespace

std::string EncodeRequest(const Request& request) {
  std::string out;
  PutU8(&out, static_cast<uint8_t>(request.opcode));
  PutString(&out, request.sql);
  if (request.opcode == Opcode::kPrepare) {
    PutString(&out, request.stmt_name);
  } else if (request.opcode == Opcode::kExecutePrepared) {
    PutString(&out, request.stmt_name);
    PutU32(&out, static_cast<uint32_t>(request.params.size()));
    for (const sql::Literal& param : request.params) {
      PutParam(&out, param);
    }
  }
  // Trailing trace id, only when set — a zero id encodes as nothing, so
  // untraced requests keep the pre-tracing wire format byte for byte.
  if (request.trace_id != 0) PutU64(&out, request.trace_id);
  return out;
}

Status DecodeRequest(std::string_view payload, Request* out) {
  Reader reader(payload);
  uint8_t opcode = 0;
  out->stmt_name.clear();
  out->params.clear();
  if (!reader.GetU8(&opcode) || !reader.GetString(&out->sql)) {
    return Status::InvalidArgument("malformed request payload");
  }
  switch (opcode) {
    case static_cast<uint8_t>(Opcode::kExecute):
    case static_cast<uint8_t>(Opcode::kScript):
    case static_cast<uint8_t>(Opcode::kPing):
      break;
    case static_cast<uint8_t>(Opcode::kPrepare):
      if (!reader.GetString(&out->stmt_name)) {
        return Status::InvalidArgument("malformed request payload");
      }
      break;
    case static_cast<uint8_t>(Opcode::kExecutePrepared): {
      uint32_t count = 0;
      if (!reader.GetString(&out->stmt_name) || !reader.GetU32(&count)) {
        return Status::InvalidArgument("malformed request payload");
      }
      // Each parameter occupies at least its 1-byte tag; an honest count
      // never exceeds what is left of the payload.
      if (count > payload.size()) {
        return Status::InvalidArgument("malformed request payload");
      }
      out->params.reserve(count);
      for (uint32_t i = 0; i < count; ++i) {
        sql::Literal param;
        if (!GetParam(&reader, &param)) {
          return Status::InvalidArgument(
              "malformed parameter " + std::to_string(i + 1) +
              " in request payload");
        }
        out->params.push_back(std::move(param));
      }
      break;
    }
    default:
      return Status::InvalidArgument("unknown opcode " +
                                     std::to_string(opcode));
  }
  out->trace_id = 0;
  if (!reader.AtEnd()) {
    // The only thing allowed after the opcode-specific fields is the
    // optional trace id — exactly eight more bytes.
    if (!reader.GetU64(&out->trace_id) || !reader.AtEnd()) {
      return Status::InvalidArgument("malformed request payload");
    }
  }
  out->opcode = static_cast<Opcode>(opcode);
  return Status::OK();
}

std::string EncodeResponse(const Response& response) {
  const ResultSet& result = response.result;
  size_t size = 1 + 4 + response.status.message().size() + 8 +
                StringListBytes(result.columns) + 4 +
                StringListBytes(result.messages);
  for (ResultRows::Row row : result.rows) size += StringListBytes(row);
  std::string out;
  out.reserve(size);
  PutU8(&out, static_cast<uint8_t>(response.status.code()));
  PutString(&out, response.status.message());
  PutU64(&out, result.affected);
  PutStringList(&out, result.columns);
  PutU32(&out, static_cast<uint32_t>(result.rows.size()));
  for (ResultRows::Row row : result.rows) PutStringList(&out, row);
  PutStringList(&out, result.messages);
  return out;
}

Status DecodeResponse(std::string_view payload, Status* status,
                      ResultSet* result) {
  Reader reader(payload);
  uint8_t code = 0;
  std::string message;
  uint32_t row_count = 0;
  result->Clear();
  auto malformed = [result] {
    result->Clear();
    return Status::InvalidArgument("malformed response payload");
  };
  if (!reader.GetU8(&code) || !reader.GetString(&message) ||
      !reader.GetU64(&result->affected) ||
      !reader.GetStringList(&result->columns) ||
      !reader.GetU32(&row_count) || !reader.CountFits(row_count, 4)) {
    return malformed();
  }
  // Most rows have a cell, so row_count is a fair first guess at the
  // cells too; both stay within the payload's 4-byte elements.
  result->rows.Reserve(row_count, row_count);
  for (uint32_t i = 0; i < row_count; ++i) {
    uint32_t cells = 0;
    if (!reader.GetU32(&cells) || !reader.CountFits(cells, 4)) {
      return malformed();
    }
    for (uint32_t c = 0; c < cells; ++c) {
      std::string_view cell;
      if (!reader.GetString(&cell)) return malformed();
      result->rows.AddCell(cell);
    }
    result->rows.EndRow();
  }
  if (!reader.GetStringList(&result->messages) || !reader.AtEnd()) {
    return malformed();
  }
  *status = MakeStatus(code, std::move(message));
  return Status::OK();
}

Status MakeStatus(uint8_t code, std::string message) {
  switch (static_cast<Status::Code>(code)) {
    case Status::Code::kOk:
      return Status::OK();
    case Status::Code::kNotFound:
      return Status::NotFound(std::move(message));
    case Status::Code::kInvalidArgument:
      return Status::InvalidArgument(std::move(message));
    case Status::Code::kIOError:
      return Status::IOError(std::move(message));
    case Status::Code::kCorruption:
      return Status::Corruption(std::move(message));
    case Status::Code::kNotSupported:
      return Status::NotSupported(std::move(message));
    case Status::Code::kAlreadyExists:
      return Status::AlreadyExists(std::move(message));
    case Status::Code::kLockTimeout:
      return Status::LockTimeout(std::move(message));
    case Status::Code::kDeadlock:
      return Status::Deadlock(std::move(message));
    case Status::Code::kAborted:
      return Status::Aborted(std::move(message));
    case Status::Code::kInternal:
      return Status::Internal(std::move(message));
  }
  return Status::Internal("unknown status code " + std::to_string(code) +
                          ": " + message);
}

namespace {

Status ReadExact(int fd, char* buf, size_t n, bool* clean_eof) {
  size_t got = 0;
  while (got < n) {
    ssize_t r = ::read(fd, buf + got, n - got);
    if (r == 0) {
      if (clean_eof != nullptr && got == 0) {
        *clean_eof = true;
        return Status::Aborted("connection closed");
      }
      return Status::IOError("connection closed mid-frame");
    }
    if (r < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(std::string("read: ") + std::strerror(errno));
    }
    got += static_cast<size_t>(r);
  }
  return Status::OK();
}

}  // namespace

Status ReadFrame(int fd, std::string* payload) {
  uint8_t header[4];
  bool clean_eof = false;
  GRTDB_RETURN_IF_ERROR(ReadExact(fd, reinterpret_cast<char*>(header),
                                  sizeof(header), &clean_eof));
  const uint32_t length = LoadU32(header);
  if (length > kMaxFrameBytes) {
    return Status::InvalidArgument("frame of " + std::to_string(length) +
                                   " bytes exceeds limit");
  }
  payload->resize(length);
  if (length == 0) return Status::OK();
  return ReadExact(fd, payload->data(), length, nullptr);
}

Status WriteFrame(int fd, std::string_view payload) {
  if (payload.size() > kMaxFrameBytes) {
    return Status::InvalidArgument("frame of " +
                                   std::to_string(payload.size()) +
                                   " bytes exceeds limit");
  }
  uint8_t header[4];
  StoreU32(header, static_cast<uint32_t>(payload.size()));
  iovec parts[2] = {{header, sizeof(header)},
                    {const_cast<char*>(payload.data()), payload.size()}};
  msghdr message{};
  message.msg_iov = parts;
  message.msg_iovlen = 2;
  size_t left = sizeof(header) + payload.size();
  while (left > 0) {
    const ssize_t sent = ::sendmsg(fd, &message, MSG_NOSIGNAL);
    if (sent < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(std::string("sendmsg: ") + std::strerror(errno));
    }
    // Step the iovecs past what went out; a partial send resumes there.
    left -= static_cast<size_t>(sent);
    size_t skip = static_cast<size_t>(sent);
    while (skip > 0 && skip >= message.msg_iov->iov_len) {
      skip -= message.msg_iov->iov_len;
      ++message.msg_iov;
      --message.msg_iovlen;
    }
    if (skip > 0) {
      message.msg_iov->iov_base =
          static_cast<char*>(message.msg_iov->iov_base) + skip;
      message.msg_iov->iov_len -= skip;
    }
  }
  return Status::OK();
}

}  // namespace net
}  // namespace grtdb
