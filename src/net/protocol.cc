#include "net/protocol.h"

#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

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

void PutStringList(std::string* out, const std::vector<std::string>& list) {
  PutU32(out, static_cast<uint32_t>(list.size()));
  for (const std::string& s : list) PutString(out, s);
}

// The bytes PutStringList writes for `list`.
size_t StringListBytes(const std::vector<std::string>& list) {
  size_t bytes = 4;
  for (const std::string& s : list) bytes += 4 + s.size();
  return bytes;
}

// Bounds-checked cursor over a received payload. Every getter returns
// false once the payload runs short; callers bail to InvalidArgument.
class Reader {
 public:
  explicit Reader(const std::string& data) : data_(data) {}

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

  bool GetString(std::string* s) {
    uint32_t len = 0;
    if (!GetU32(&len)) return false;
    if (pos_ + len > data_.size()) return false;
    s->assign(data_, pos_, len);
    pos_ += len;
    return true;
  }

  bool GetStringList(std::vector<std::string>* list) {
    uint32_t count = 0;
    if (!GetU32(&count)) return false;
    // An honest count can never exceed the bytes left (each element
    // carries at least its 4-byte length); reject early so a hostile
    // count cannot drive a huge reserve.
    if (count > data_.size() - pos_) return false;
    list->clear();
    list->reserve(count);
    for (uint32_t i = 0; i < count; ++i) {
      std::string s;
      if (!GetString(&s)) return false;
      list->push_back(std::move(s));
    }
    return true;
  }

  bool AtEnd() const { return pos_ == data_.size(); }

 private:
  const uint8_t* at() const {
    return reinterpret_cast<const uint8_t*>(data_.data()) + pos_;
  }

  const std::string& data_;
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

Status DecodeRequest(const std::string& payload, Request* out) {
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
  for (const std::vector<std::string>& row : result.rows) {
    size += StringListBytes(row);
  }
  std::string out;
  out.reserve(size);
  PutU8(&out, static_cast<uint8_t>(response.status.code()));
  PutString(&out, response.status.message());
  PutU64(&out, result.affected);
  PutStringList(&out, result.columns);
  PutU32(&out, static_cast<uint32_t>(result.rows.size()));
  for (const std::vector<std::string>& row : result.rows) {
    PutStringList(&out, row);
  }
  PutStringList(&out, result.messages);
  return out;
}

Status DecodeResponse(const std::string& payload, Response* out) {
  Reader reader(payload);
  uint8_t code = 0;
  std::string message;
  uint32_t row_count = 0;
  out->result.Clear();
  if (!reader.GetU8(&code) || !reader.GetString(&message) ||
      !reader.GetU64(&out->result.affected) ||
      !reader.GetStringList(&out->result.columns) ||
      !reader.GetU32(&row_count)) {
    return Status::InvalidArgument("malformed response payload");
  }
  out->result.rows.clear();
  out->result.rows.reserve(std::min<size_t>(row_count, 1024));
  for (uint32_t i = 0; i < row_count; ++i) {
    std::vector<std::string> row;
    if (!reader.GetStringList(&row)) {
      return Status::InvalidArgument("malformed response payload");
    }
    out->result.rows.push_back(std::move(row));
  }
  if (!reader.GetStringList(&out->result.messages) || !reader.AtEnd()) {
    return Status::InvalidArgument("malformed response payload");
  }
  out->status = MakeStatus(code, std::move(message));
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

Status WriteFrame(int fd, const std::string& payload) {
  if (payload.size() > kMaxFrameBytes) {
    return Status::InvalidArgument("frame of " +
                                   std::to_string(payload.size()) +
                                   " bytes exceeds limit");
  }
  std::string frame;
  frame.reserve(4 + payload.size());
  PutU32(&frame, static_cast<uint32_t>(payload.size()));
  frame.append(payload);
  size_t sent = 0;
  while (sent < frame.size()) {
    ssize_t w = ::write(fd, frame.data() + sent, frame.size() - sent);
    if (w < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(std::string("write: ") + std::strerror(errno));
    }
    sent += static_cast<size_t>(w);
  }
  return Status::OK();
}

}  // namespace net
}  // namespace grtdb
