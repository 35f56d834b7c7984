#include "net/net_server.h"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <map>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "blades/grtree_blade.h"
#include "net/net_client.h"
#include "net/protocol.h"
#include "obs/span_tracer.h"

namespace grtdb {
namespace net {
namespace {

// ------------------------------------------------------------ protocol ---

TEST(Protocol, RequestRoundTrip) {
  Request in;
  in.opcode = Opcode::kScript;
  in.sql = "SELECT 1; SELECT 2;";
  Request out;
  ASSERT_TRUE(DecodeRequest(EncodeRequest(in), &out).ok());
  EXPECT_EQ(out.opcode, Opcode::kScript);
  EXPECT_EQ(out.sql, in.sql);
}

TEST(Protocol, ResponseRoundTrip) {
  Response in;
  in.status = Status::LockTimeout("lock on 't'");
  in.result.columns = {"a", "b"};
  in.result.rows.push_back({"1", "x"});
  in.result.rows.push_back({"2", ""});
  in.result.messages = {"PLAN: sequential scan"};
  in.result.affected = 7;
  Response out;
  ASSERT_TRUE(DecodeResponse(EncodeResponse(in), &out).ok());
  EXPECT_TRUE(out.status.IsLockTimeout());
  EXPECT_EQ(out.status.message(), "lock on 't'");
  EXPECT_EQ(out.result.columns, in.result.columns);
  EXPECT_EQ(out.result.rows, in.result.rows);
  EXPECT_EQ(out.result.messages, in.result.messages);
  EXPECT_EQ(out.result.affected, 7u);
}

TEST(Protocol, EveryStatusCodeSurvivesTheWire) {
  const Status statuses[] = {
      Status::OK(),           Status::NotFound("m"),
      Status::InvalidArgument("m"), Status::IOError("m"),
      Status::Corruption("m"), Status::NotSupported("m"),
      Status::AlreadyExists("m"), Status::LockTimeout("m"),
      Status::Deadlock("m"),  Status::Aborted("m"),
      Status::Internal("m"),
  };
  for (const Status& status : statuses) {
    Response in;
    in.status = status;
    Response out;
    ASSERT_TRUE(DecodeResponse(EncodeResponse(in), &out).ok());
    EXPECT_EQ(out.status.code(), status.code()) << status.ToString();
    EXPECT_EQ(out.status.message(), status.message());
  }
}

TEST(Protocol, PreparedRequestsRoundTrip) {
  Request in;
  in.opcode = Opcode::kPrepare;
  in.stmt_name = "q1";
  in.sql = "SELECT a FROM t WHERE Equal(a, ?)";
  Request out;
  ASSERT_TRUE(DecodeRequest(EncodeRequest(in), &out).ok());
  EXPECT_EQ(out.opcode, Opcode::kPrepare);
  EXPECT_EQ(out.stmt_name, "q1");
  EXPECT_EQ(out.sql, in.sql);

  // Every parameter type survives the wire, including the sign and the
  // exact float bits.
  Request exec;
  exec.opcode = Opcode::kExecutePrepared;
  exec.stmt_name = "q1";
  sql::Literal i;
  i.kind = sql::Literal::Kind::kInteger;
  i.integer = -42;
  sql::Literal f;
  f.kind = sql::Literal::Kind::kFloat;
  f.real = 3.25;
  sql::Literal s;
  s.kind = sql::Literal::Kind::kString;
  s.text = "100, 200, 100, 200";
  sql::Literal n;
  n.kind = sql::Literal::Kind::kNull;
  exec.params = {i, f, s, n};
  ASSERT_TRUE(DecodeRequest(EncodeRequest(exec), &out).ok());
  EXPECT_EQ(out.opcode, Opcode::kExecutePrepared);
  EXPECT_EQ(out.stmt_name, "q1");
  ASSERT_EQ(out.params.size(), 4u);
  EXPECT_EQ(out.params[0].kind, sql::Literal::Kind::kInteger);
  EXPECT_EQ(out.params[0].integer, -42);
  EXPECT_EQ(out.params[1].kind, sql::Literal::Kind::kFloat);
  EXPECT_EQ(out.params[1].real, 3.25);
  EXPECT_EQ(out.params[2].kind, sql::Literal::Kind::kString);
  EXPECT_EQ(out.params[2].text, "100, 200, 100, 200");
  EXPECT_EQ(out.params[3].kind, sql::Literal::Kind::kNull);
}

TEST(Protocol, MalformedParamPayloadsAreRejected) {
  Request good;
  good.opcode = Opcode::kExecutePrepared;
  good.stmt_name = "q";
  sql::Literal i;
  i.kind = sql::Literal::Kind::kInteger;
  i.integer = 7;
  good.params = {i};
  std::string encoded = EncodeRequest(good);
  Request out;
  ASSERT_TRUE(DecodeRequest(encoded, &out).ok());

  // Truncate mid-parameter: the u64 payload loses its last byte.
  std::string truncated = encoded.substr(0, encoded.size() - 1);
  Status status = DecodeRequest(truncated, &out);
  EXPECT_TRUE(status.IsInvalidArgument()) << status.ToString();
  EXPECT_NE(status.message().find("parameter 1"), std::string::npos);

  // An unknown parameter tag is rejected, not misread.
  std::string bad_tag = encoded;
  bad_tag[bad_tag.size() - 9] = 99;  // tag byte sits before the u64 value
  EXPECT_TRUE(DecodeRequest(bad_tag, &out).IsInvalidArgument());

  // A parameter count that cannot fit in the payload is rejected up
  // front rather than looping.
  Request empty;
  empty.opcode = Opcode::kExecutePrepared;
  empty.stmt_name = "q";
  std::string huge = EncodeRequest(empty);
  huge[huge.size() - 4] = '\xff';  // count field: last u32 in the payload
  huge[huge.size() - 3] = '\xff';
  EXPECT_TRUE(DecodeRequest(huge, &out).IsInvalidArgument());
}

TEST(Protocol, MalformedPayloadsAreRejected) {
  Request request;
  EXPECT_TRUE(DecodeRequest("", &request).IsInvalidArgument());
  // Opcode but a sql length pointing past the end.
  std::string bad("\x01\xff\xff\xff\x7f", 5);
  EXPECT_TRUE(DecodeRequest(bad, &request).IsInvalidArgument());
  Request simple;
  simple.opcode = Opcode::kExecute;
  simple.sql = "x";
  // Unknown opcode.
  std::string unknown = EncodeRequest(simple);
  unknown[0] = 99;
  EXPECT_TRUE(DecodeRequest(unknown, &request).IsInvalidArgument());
  // Trailing garbage after a valid request.
  std::string trailing = EncodeRequest(simple);
  trailing += "junk";
  EXPECT_TRUE(DecodeRequest(trailing, &request).IsInvalidArgument());

  Response response;
  EXPECT_TRUE(DecodeResponse("", &response).IsInvalidArgument());
  std::string truncated = EncodeResponse(Response{});
  truncated.resize(truncated.size() - 1);
  EXPECT_TRUE(DecodeResponse(truncated, &response).IsInvalidArgument());
}

// Bytes from hex, ignoring the spaces that separate the fields.
std::string Unhex(const std::string& hex) {
  std::string out;
  std::string digits;
  for (char c : hex) {
    if (c != ' ') digits.push_back(c);
  }
  for (size_t i = 0; i + 1 < digits.size(); i += 2) {
    out.push_back(
        static_cast<char>(std::stoi(digits.substr(i, 2), nullptr, 16)));
  }
  return out;
}

sql::Literal Param(sql::Literal::Kind kind) {
  sql::Literal literal;
  literal.kind = kind;
  return literal;
}

// One request per opcode, each encoded with and without a trace id.
std::vector<std::pair<Request, std::string>> GoldenRequests() {
  Request execute;
  execute.opcode = Opcode::kExecute;
  execute.sql = "SELECT 1";
  Request script;
  script.opcode = Opcode::kScript;
  script.sql = "a;b";
  Request ping;
  ping.opcode = Opcode::kPing;
  Request prepare;
  prepare.opcode = Opcode::kPrepare;
  prepare.sql = "SELECT ?";
  prepare.stmt_name = "q1";
  Request prepared;
  prepared.opcode = Opcode::kExecutePrepared;
  prepared.stmt_name = "q1";
  prepared.params = {Param(sql::Literal::Kind::kInteger),
                     Param(sql::Literal::Kind::kFloat),
                     Param(sql::Literal::Kind::kString),
                     Param(sql::Literal::Kind::kNull)};
  prepared.params[0].integer = -2;
  prepared.params[1].real = 1.5;
  prepared.params[2].text = "ab";

  // opcode | u32 sql length, sql | opcode-specific fields.
  std::vector<std::pair<Request, std::string>> golden = {
      {execute, "01 08000000 53454c4543542031"},
      {script, "02 03000000 613b62"},
      {ping, "03 00000000"},
      {prepare, "04 08000000 53454c454354203f 02000000 7131"},
      {prepared,
       "05 00000000 02000000 7131 04000000 01 feffffffffffffff"
       " 02 000000000000f83f 03 02000000 6162 00"},
  };
  const size_t untraced = golden.size();
  for (size_t i = 0; i < untraced; ++i) {
    Request traced = golden[i].first;
    traced.trace_id = 0x0102030405060708ull;
    golden.emplace_back(traced, golden[i].second + " 0807060504030201");
  }
  return golden;
}

Response GoldenResponse() {
  Response response;
  response.status = Status::InvalidArgument("bad");
  response.result.affected = 2;
  response.result.columns = {"id", "e"};
  response.result.rows.push_back({"1", "x"});
  response.result.rows.push_back({"2", ""});
  response.result.messages = {"PLAN: seq"};
  return response;
}

bool SameLiteral(const sql::Literal& a, const sql::Literal& b) {
  // Floats compare by bits: a NaN must survive the wire as itself.
  return a.kind == b.kind && a.integer == b.integer &&
         std::memcmp(&a.real, &b.real, sizeof(a.real)) == 0 &&
         a.text == b.text && a.param_index == b.param_index;
}

bool SameRequest(const Request& a, const Request& b) {
  if (a.opcode != b.opcode || a.sql != b.sql || a.stmt_name != b.stmt_name ||
      a.trace_id != b.trace_id || a.params.size() != b.params.size()) {
    return false;
  }
  for (size_t i = 0; i < a.params.size(); ++i) {
    if (!SameLiteral(a.params[i], b.params[i])) return false;
  }
  return true;
}

bool SameResponse(const Response& a, const Response& b) {
  return a.status.code() == b.status.code() &&
         a.status.message() == b.status.message() &&
         a.result.affected == b.result.affected &&
         a.result.columns == b.result.columns &&
         a.result.rows == b.result.rows &&
         a.result.messages == b.result.messages;
}

TEST(Protocol, GoldenRequestBytes) {
  for (const auto& [request, hex] : GoldenRequests()) {
    const std::string bytes = Unhex(hex);
    EXPECT_EQ(EncodeRequest(request), bytes) << hex;
    Request decoded;
    ASSERT_TRUE(DecodeRequest(bytes, &decoded).ok()) << hex;
    EXPECT_TRUE(SameRequest(decoded, request)) << hex;
  }
}

TEST(Protocol, GoldenResponseBytes) {
  // u8 status | message | u64 affected | columns | rows | messages; every
  // string is a u32 length and its bytes, every list a u32 count first.
  const std::string hex =
      "02 03000000 626164 0200000000000000"
      " 02000000 02000000 6964 01000000 65"
      " 02000000 02000000 01000000 31 01000000 78"
      " 02000000 01000000 32 00000000"
      " 01000000 09000000 504c414e3a20736571";
  const Response response = GoldenResponse();
  EXPECT_EQ(EncodeResponse(response), Unhex(hex));
  Response decoded;
  ASSERT_TRUE(DecodeResponse(Unhex(hex), &decoded).ok());
  EXPECT_TRUE(SameResponse(decoded, response));
}

TEST(Protocol, GoldenFrameBytes) {
  // A socket pair, not a pipe: WriteFrame sends with sendmsg, which only
  // sockets take.
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  ASSERT_TRUE(WriteFrame(fds[1], "abc").ok());
  char raw[7];
  ASSERT_EQ(::read(fds[0], raw, sizeof(raw)), 7);
  EXPECT_EQ(std::string(raw, sizeof(raw)), Unhex("03000000 616263"));

  const std::string frame = Unhex("02000000 6869");
  ASSERT_EQ(::write(fds[1], frame.data(), frame.size()),
            static_cast<ssize_t>(frame.size()));
  std::string payload;
  ASSERT_TRUE(ReadFrame(fds[0], &payload).ok());
  EXPECT_EQ(payload, "hi");

  // A header one past the cap is refused before any payload is read.
  const std::string oversized = Unhex("01000001");
  ASSERT_EQ(::write(fds[1], oversized.data(), oversized.size()), 4);
  EXPECT_TRUE(ReadFrame(fds[0], &payload).IsInvalidArgument());
  ::close(fds[0]);
  ::close(fds[1]);
}

// Applies one random mutation: bit flips, a truncation, an overwritten
// length or count field, or inserted bytes.
void Mutate(std::mt19937* rng, std::string* bytes) {
  auto below = [rng](size_t n) {
    return n == 0 ? size_t{0}
                  : std::uniform_int_distribution<size_t>(0, n - 1)(*rng);
  };
  switch (below(4)) {
    case 0: {
      if (bytes->empty()) return;
      const size_t flips = 1 + below(4);
      for (size_t i = 0; i < flips; ++i) {
        (*bytes)[below(bytes->size())] ^= static_cast<char>(1u << below(8));
      }
      return;
    }
    case 1:
      bytes->resize(below(bytes->size() + 1));
      return;
    case 2: {
      // Every u32 that fits the bytes after it could be a length or a
      // count; overwrite one with a value chosen to mislead.
      std::vector<size_t> fields;
      for (size_t at = 0; at + 4 <= bytes->size(); ++at) {
        uint32_t v = 0;
        std::memcpy(&v, bytes->data() + at, 4);
        if (v <= bytes->size() - at - 4) fields.push_back(at);
      }
      if (fields.empty()) return;
      const uint32_t size = static_cast<uint32_t>(bytes->size());
      const uint32_t values[] = {0, 1, size, size + 1, 0x7fffffffu,
                                 0xffffffffu, static_cast<uint32_t>((*rng)())};
      const uint32_t v = values[below(std::size(values))];
      std::memcpy(bytes->data() + fields[below(fields.size())], &v, 4);
      return;
    }
    default: {
      const size_t count = 1 + below(8);
      std::string inserted;
      for (size_t i = 0; i < count; ++i) {
        inserted.push_back(static_cast<char>(below(256)));
      }
      bytes->insert(below(bytes->size() + 1), inserted);
      return;
    }
  }
}

// Seeded mutation fuzzing of both payload decoders. Each mutant must decode
// to OK or InvalidArgument, and whatever decodes must re-encode to bytes
// that decode to the same value. Every response mutant is also decoded
// into one Response reused across all iterations, as a client reuses its
// ResultSet: it must equal the fresh decode, or be empty after an error,
// so no cell of an earlier mutant survives into a later one.
TEST(Protocol, SeededMutationFuzz) {
  std::vector<std::string> requests;
  for (const auto& golden : GoldenRequests()) {
    requests.push_back(EncodeRequest(golden.first));
  }
  // A wider response too: rows of three, zero and one cells, one cell
  // past std::string's inline buffer.
  Response wide;
  wide.result.columns = {"a", "b", "c"};
  wide.result.rows.push_back({"1", "a cell of more than fifteen bytes", ""});
  wide.result.rows.push_back({});
  wide.result.rows.push_back({"NULL"});
  std::vector<std::string> responses = {EncodeResponse(GoldenResponse()),
                                        EncodeResponse(wide),
                                        EncodeResponse(Response{})};

  std::mt19937 rng(20260417);
  constexpr int kIterations = 50000;
  int decoded_requests = 0;
  int decoded_responses = 0;
  Response reused;
  for (int i = 0; i < kIterations; ++i) {
    const bool request_side = i % 2 == 0;
    const std::vector<std::string>& corpus =
        request_side ? requests : responses;
    std::string bytes = corpus[rng() % corpus.size()];
    const int mutations = 1 + static_cast<int>(rng() % 3);
    for (int m = 0; m < mutations; ++m) Mutate(&rng, &bytes);

    if (request_side) {
      Request request;
      const Status status = DecodeRequest(bytes, &request);
      ASSERT_TRUE(status.ok() || status.IsInvalidArgument())
          << "iteration " << i << ": " << status.ToString();
      if (!status.ok()) continue;
      ++decoded_requests;
      const std::string again = EncodeRequest(request);
      Request round;
      ASSERT_TRUE(DecodeRequest(again, &round).ok()) << "iteration " << i;
      ASSERT_TRUE(SameRequest(round, request)) << "iteration " << i;
      ASSERT_EQ(EncodeRequest(round), again) << "iteration " << i;
    } else {
      Response response;
      const Status status = DecodeResponse(bytes, &response);
      ASSERT_TRUE(status.ok() || status.IsInvalidArgument())
          << "iteration " << i << ": " << status.ToString();
      const Status reused_status = DecodeResponse(bytes, &reused);
      ASSERT_EQ(reused_status.code(), status.code()) << "iteration " << i;
      if (!status.ok()) {
        ASSERT_TRUE(reused.result.rows.empty()) << "iteration " << i;
        ASSERT_TRUE(reused.result.columns.empty()) << "iteration " << i;
        ASSERT_TRUE(reused.result.messages.empty()) << "iteration " << i;
        continue;
      }
      ASSERT_TRUE(SameResponse(reused, response)) << "iteration " << i;
      ++decoded_responses;
      const std::string again = EncodeResponse(response);
      Response round;
      ASSERT_TRUE(DecodeResponse(again, &round).ok()) << "iteration " << i;
      ASSERT_TRUE(SameResponse(round, response)) << "iteration " << i;
      ASSERT_EQ(EncodeResponse(round), again) << "iteration " << i;
    }
  }
  // The mutants reach past the first check: some still decode.
  EXPECT_GT(decoded_requests, 0);
  EXPECT_GT(decoded_responses, 0);
}

// ----------------------------------------------------------- end-to-end ---

class NetTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ServerOptions options;
    // Short enough that the conflict test's timeout path is fast.
    options.lock_timeout = std::chrono::milliseconds(100);
    server_ = std::make_unique<Server>(options);
    NetServerOptions net_options;
    net_options.num_workers = 4;
    net_ = std::make_unique<NetServer>(server_.get(), net_options);
    ASSERT_TRUE(net_->Start().ok());
  }

  void TearDown() override { net_->Stop(); }

  Status Connect(NetClient* client) {
    return client->Connect("127.0.0.1", net_->port());
  }

  std::unique_ptr<Server> server_;
  std::unique_ptr<NetServer> net_;
};

TEST_F(NetTest, ExecuteOverTheWire) {
  NetClient client;
  ASSERT_TRUE(Connect(&client).ok());
  ASSERT_TRUE(client.Ping().ok());
  ResultSet result;
  ASSERT_TRUE(client.Execute("CREATE TABLE t (a int, b text)", &result).ok());
  ASSERT_TRUE(client.Execute("INSERT INTO t VALUES (1, 'x')", &result).ok());
  EXPECT_EQ(result.affected, 1u);
  ASSERT_TRUE(
      client.ExecuteScript("INSERT INTO t VALUES (2, 'y'); "
                           "INSERT INTO t VALUES (3, 'z');",
                           &result)
          .ok());
  ASSERT_TRUE(client.Execute("SELECT a, b FROM t WHERE a > 1", &result).ok());
  ASSERT_EQ(result.columns.size(), 2u);
  ASSERT_EQ(result.rows.size(), 2u);
  EXPECT_EQ(result.rows[0][1], "y");
}

TEST_F(NetTest, ServerErrorsComeBackTyped) {
  NetClient client;
  ASSERT_TRUE(Connect(&client).ok());
  ResultSet result;
  EXPECT_TRUE(client.Execute("SELECT * FROM missing", &result).IsNotFound());
  ASSERT_TRUE(client.Execute("CREATE TABLE t (a int)", &result).ok());
  EXPECT_TRUE(
      client.Execute("CREATE TABLE t (a int)", &result).IsAlreadyExists());
  // The connection survives server-side errors.
  EXPECT_TRUE(client.Ping().ok());
}

TEST_F(NetTest, FailedStatementSendsNoRows) {
  NetClient client;
  ASSERT_TRUE(Connect(&client).ok());
  ResultSet result;
  ASSERT_TRUE(client
                  .ExecuteScript(
                      "CREATE TABLE t (id int, d date, s text); "
                      "INSERT INTO t VALUES (1, '01/01/2001', '01/01/2000'); "
                      "INSERT INTO t VALUES (2, '01/01/2001', '06/01/2000'); "
                      "INSERT INTO t VALUES (3, '01/01/2001', 'garbage'); "
                      "INSERT INTO t VALUES (4, '01/01/2001', '02/01/2000');",
                      &result)
                  .ok());
  // Rows 1 and 2 pass the WHERE before row 3 fails it; the error frame
  // carries none of them.
  Status status = client.Execute("SELECT id FROM t WHERE s < d", &result);
  EXPECT_TRUE(status.IsInvalidArgument()) << status.ToString();
  EXPECT_TRUE(result.rows.empty()) << result.ToString();
  EXPECT_TRUE(client.Ping().ok());
}

// A statement nested past the parser's bound gets an error frame instead
// of overflowing a worker's stack, and the server keeps serving.
TEST_F(NetTest, DeeplyNestedStatementGetsAnErrorFrame) {
  NetClient client;
  ASSERT_TRUE(Connect(&client).ok());
  ResultSet result;
  ASSERT_TRUE(client
                  .ExecuteScript("CREATE TABLE t (id int); "
                                 "INSERT INTO t VALUES (1);",
                                 &result)
                  .ok());
  const std::string deep = "SELECT id FROM t WHERE " +
                           std::string(20000, '(') + "id = 1" +
                           std::string(20000, ')');
  const Status status = client.Execute(deep, &result);
  EXPECT_TRUE(status.IsInvalidArgument()) << status.ToString();

  NetClient other;
  ASSERT_TRUE(Connect(&other).ok());
  ASSERT_TRUE(other.Execute("SELECT id FROM t WHERE (id = 1)", &result).ok());
  ASSERT_EQ(result.rows.size(), 1u);
  EXPECT_EQ(result.rows[0][0], "1");
}

TEST_F(NetTest, DisconnectEndsTransactionAndReleasesLocks) {
  {
    NetClient writer;
    ASSERT_TRUE(Connect(&writer).ok());
    ResultSet result;
    ASSERT_TRUE(writer.Execute("CREATE TABLE t (a int)", &result).ok());
    ASSERT_TRUE(writer
                    .ExecuteScript("BEGIN WORK; "
                                   "INSERT INTO t VALUES (1); "
                                   "INSERT INTO t VALUES (2);",
                                   &result)
                    .ok());
    // Drop the connection with the transaction still open: it holds the
    // table's X lock, which only the server-side rollback can release.
  }
  NetClient reader;
  ASSERT_TRUE(Connect(&reader).ok());
  ResultSet result;
  // The server rolls the session back when the worker notices the EOF;
  // until then the abandoned transaction still holds the table lock, so
  // allow a few timeout rounds before insisting on an answer. Without
  // the disconnect rollback this would time out forever.
  Status status;
  for (int attempt = 0; attempt < 50; ++attempt) {
    status = reader.Execute("SELECT COUNT(*) FROM t", &result);
    if (!status.IsLockTimeout()) break;
  }
  ASSERT_TRUE(status.ok()) << status.ToString();
  // And the freed lock is grabbable for new writes.
  ASSERT_TRUE(reader
                  .ExecuteScript("BEGIN WORK; INSERT INTO t VALUES (3); "
                                 "COMMIT WORK;",
                                 &result)
                  .ok());
}

TEST_F(NetTest, CommitIsVisibleAcrossSessions) {
  NetClient a;
  NetClient b;
  ASSERT_TRUE(Connect(&a).ok());
  ASSERT_TRUE(Connect(&b).ok());
  ResultSet result;
  ASSERT_TRUE(a.Execute("CREATE TABLE t (a int)", &result).ok());
  ASSERT_TRUE(a.ExecuteScript("BEGIN WORK; INSERT INTO t VALUES (42); "
                              "COMMIT WORK;",
                              &result)
                  .ok());
  ASSERT_TRUE(b.Execute("SELECT a FROM t", &result).ok());
  ASSERT_EQ(result.rows.size(), 1u);
  EXPECT_EQ(result.rows[0][0], "42");
}

TEST_F(NetTest, LockConflictTimesOutAcrossSessions) {
  NetClient writer;
  NetClient reader;
  ASSERT_TRUE(Connect(&writer).ok());
  ASSERT_TRUE(Connect(&reader).ok());
  ResultSet result;
  ASSERT_TRUE(writer.Execute("CREATE TABLE t (a int)", &result).ok());
  // Writer holds the table's X lock in an open transaction...
  ASSERT_TRUE(
      writer.ExecuteScript("BEGIN WORK; INSERT INTO t VALUES (1);", &result)
          .ok());
  // ...so the reader's S acquisition must time out, as a typed status.
  Status status = reader.Execute("SELECT COUNT(*) FROM t", &result);
  EXPECT_TRUE(status.IsLockTimeout()) << status.ToString();
  // After the writer commits, the reader goes through and sees the row.
  ASSERT_TRUE(writer.Execute("COMMIT WORK", &result).ok());
  ASSERT_TRUE(reader.Execute("SELECT COUNT(*) FROM t", &result).ok());
  EXPECT_EQ(result.rows[0][0], "1");
}

TEST_F(NetTest, SetStateIsPerSession) {
  NetClient a;
  NetClient b;
  ASSERT_TRUE(Connect(&a).ok());
  ASSERT_TRUE(Connect(&b).ok());
  ResultSet result;
  ASSERT_TRUE(a.Execute("CREATE TABLE t (a int)", &result).ok());
  // Session a turns EXPLAIN on; its SELECTs carry the plan message.
  ASSERT_TRUE(a.Execute("SET EXPLAIN ON", &result).ok());
  ASSERT_TRUE(a.Execute("SELECT * FROM t", &result).ok());
  ASSERT_EQ(result.messages.size(), 1u);
  EXPECT_EQ(result.messages[0], "PLAN: sequential scan");
  // Session b never did, so its SELECTs stay quiet.
  ASSERT_TRUE(b.Execute("SELECT * FROM t", &result).ok());
  EXPECT_TRUE(result.messages.empty());
}

TEST_F(NetTest, ConcurrentSessionsInterleave) {
  ResultSet setup;
  NetClient admin;
  ASSERT_TRUE(Connect(&admin).ok());
  ASSERT_TRUE(admin.Execute("CREATE TABLE t (a int)", &setup).ok());
  admin.Close();

  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 25;
  std::vector<std::thread> threads;
  std::vector<int> failures(kThreads, 0);
  for (int w = 0; w < kThreads; ++w) {
    threads.emplace_back([this, w, &failures] {
      NetClient client;
      if (!Connect(&client).ok()) {
        failures[w] = -1;
        return;
      }
      ResultSet result;
      for (int i = 0; i < kOpsPerThread; ++i) {
        Status status = client.ExecuteScript(
            "BEGIN WORK; INSERT INTO t VALUES (" + std::to_string(w) +
                "); COMMIT WORK;",
            &result);
        if (!status.ok()) {
          // Contention outcomes are legitimate; anything else is not.
          if (!status.IsLockTimeout() && !status.IsDeadlock()) {
            failures[w] = -1;
            return;
          }
          // A failed script leaves the explicit transaction open on this
          // session; clear it before retrying.
          client.Execute("ROLLBACK WORK", &result);
          --i;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (int w = 0; w < kThreads; ++w) EXPECT_EQ(failures[w], 0) << w;

  NetClient check;
  ASSERT_TRUE(Connect(&check).ok());
  ResultSet result;
  ASSERT_TRUE(check.Execute("SELECT COUNT(*) FROM t", &result).ok());
  EXPECT_EQ(result.rows[0][0], std::to_string(kThreads * kOpsPerThread));
}

TEST_F(NetTest, StopUnblocksIdleConnections) {
  NetClient idle;
  ASSERT_TRUE(Connect(&idle).ok());
  ASSERT_TRUE(idle.Ping().ok());
  // Stop with the client parked in no request: the worker is blocked in
  // ReadFrame until Stop shuts the connection down.
  net_->Stop();
  EXPECT_FALSE(idle.Ping().ok());
}

TEST_F(NetTest, OversizedFrameIsRejected) {
  NetClient client;
  ASSERT_TRUE(Connect(&client).ok());
  ResultSet result;
  std::string big(kMaxFrameBytes + 1, 'x');
  EXPECT_TRUE(client.Execute(big, &result).IsInvalidArgument());
}

TEST_F(NetTest, OversizedResponseBecomesErrorFrameNotDisconnect) {
  NetClient client;
  ASSERT_TRUE(Connect(&client).ok());
  ResultSet result;
  ASSERT_TRUE(client.Execute("CREATE TABLE blobs (v text)", &result).ok());
  // 17 x 1MiB rows push the SELECT * response past the 16MiB frame cap.
  const std::string megabyte(1 << 20, 'v');
  for (int i = 0; i < 17; ++i) {
    ASSERT_TRUE(
        client.Execute("INSERT INTO blobs VALUES ('" + megabyte + "')",
                       &result)
            .ok());
  }
  // Before the fix the worker's WriteFrame failed and it silently dropped
  // the connection; now the payload is replaced with a typed error frame.
  Status status = client.Execute("SELECT * FROM blobs", &result);
  EXPECT_TRUE(status.IsInvalidArgument()) << status.ToString();
  EXPECT_NE(status.message().find("frame limit"), std::string::npos)
      << status.ToString();
  EXPECT_TRUE(result.rows.empty());
  EXPECT_EQ(net_->oversized_responses(), 1u);
  // The connection — and the session behind it — is still usable.
  EXPECT_TRUE(client.Ping().ok());
  ASSERT_TRUE(client.Execute("SELECT COUNT(*) FROM blobs", &result).ok());
  EXPECT_EQ(result.rows[0][0], "17");
}

TEST_F(NetTest, PreparedStatementsOverTheWire) {
  NetClient client;
  ASSERT_TRUE(Connect(&client).ok());
  ResultSet result;
  ASSERT_TRUE(client.Execute("CREATE TABLE t (a int, b text)", &result).ok());
  ASSERT_TRUE(
      client.Prepare("ins", "INSERT INTO t VALUES (?, ?)", &result).ok());
  sql::Literal one;
  one.kind = sql::Literal::Kind::kInteger;
  one.integer = 1;
  sql::Literal x;
  x.kind = sql::Literal::Kind::kString;
  x.text = "x";
  ASSERT_TRUE(client.ExecutePrepared("ins", {one, x}, &result).ok());
  one.integer = 2;
  x.text = "y";
  ASSERT_TRUE(client.ExecutePrepared("ins", {one, x}, &result).ok());

  ASSERT_TRUE(
      client.Prepare("sel", "SELECT b FROM t WHERE a = ?", &result).ok());
  ASSERT_TRUE(client.ExecutePrepared("sel", {one}, &result).ok());
  ASSERT_EQ(result.rows.size(), 1u);
  EXPECT_EQ(result.rows[0][0], "y");

  // Errors come back typed over the wire, and the connection survives.
  EXPECT_TRUE(client.ExecutePrepared("nothing", {}, &result).IsNotFound());
  EXPECT_TRUE(
      client.ExecutePrepared("sel", {one, x}, &result).IsInvalidArgument());
  EXPECT_TRUE(client.Ping().ok());

  // Prepared handles are per connection = per session.
  NetClient other;
  ASSERT_TRUE(Connect(&other).ok());
  EXPECT_TRUE(other.ExecutePrepared("sel", {one}, &result).IsNotFound());
}

TEST_F(NetTest, WireTraceIdPropagatesIntoSysSpans) {
  NetClient client;
  ASSERT_TRUE(Connect(&client).ok());
  ResultSet result;
  ASSERT_TRUE(client.Execute("CREATE TABLE t (a int)", &result).ok());

  // A client-chosen trace id forces sampling server-side (no SET
  // TRACE_SAMPLE needed) and every span of that request carries it —
  // that's how the load driver joins client latencies to server phases.
  // Fresh connection: the accept-queue wait is attributable only to a
  // connection's first request, so trace that one.
  constexpr uint64_t kTraceId = 0x5EED5EEDull;
  NetClient traced;
  ASSERT_TRUE(Connect(&traced).ok());
  traced.set_trace_id(kTraceId);
  ASSERT_TRUE(traced.Execute("INSERT INTO t VALUES (7)", &result).ok());
  traced.set_trace_id(0);
  // The worker records the respond span and then the request root after
  // the response bytes are written, so the reply can reach the client
  // first. Wait (bounded) for the root, recorded last, before reading.
  auto root_recorded = [this] {
    for (const obs::SpanRecord& span :
         server_->span_tracer().SnapshotTrace(kTraceId)) {
      if (span.name == obs::SpanName::kRequest) return true;
    }
    return false;
  };
  for (int i = 0; i < 2000 && !root_recorded(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  ASSERT_TRUE(client.Execute("SELECT * FROM sys_spans WHERE trace_id = " +
                                 std::to_string(kTraceId),
                             &result)
                  .ok());
  ASSERT_FALSE(result.rows.empty());
  // name is column 4; the wire pipeline spans (root, decode, respond) and
  // the server pipeline (parse, exec) all landed under the wire id.
  std::map<std::string, int> names;
  for (const auto& row : result.rows) names[row[4]]++;
  EXPECT_EQ(names["request"], 1);
  EXPECT_EQ(names["decode"], 1);
  EXPECT_EQ(names["parse"], 1);
  EXPECT_EQ(names["exec"], 1);
  EXPECT_EQ(names["respond"], 1);
  // The first traced request on a connection also reports the
  // accept-queue wait measured by the accept thread.
  EXPECT_EQ(names["queue_wait"], 1);

  // The untraced SELECT above must not have been sampled: no other ids
  // beyond the explicit one appear for this connection's requests.
  ASSERT_TRUE(client.Execute("SELECT trace_id FROM sys_spans", &result).ok());
  for (const auto& row : result.rows) {
    EXPECT_EQ(row[0], std::to_string(kTraceId));
  }
}

// Statements run back to back through one reused ResultSet, the largest
// result first, and each answer must equal what an embedded session that
// runs the same statements gets in a fresh ResultSet: no row, column or
// message of an earlier answer may survive the reuse.
TEST_F(NetTest, ReusedResultSetMatchesEmbeddedResults) {
  ASSERT_TRUE(RegisterGRTreeBlade(server_.get()).ok());
  std::string setup =
      "CREATE TABLE t (id int, name text, note text, e grt_timeextent); "
      "CREATE INDEX t_idx ON t(e grt_opclass) USING grtree_am; "
      "SET CURRENT_TIME TO 20000; ";
  for (int i = 0; i < 300; ++i) {
    setup += "INSERT INTO t VALUES (" + std::to_string(i) +
             ", 'a name longer than fifteen bytes " + std::to_string(i) +
             "', " + (i % 2 == 0 ? std::string("NULL") : "'n'") +
             ", '20000, UC, " + std::to_string(19500 + i) + ", NOW'); ";
  }
  ServerSession* embedded = server_->CreateSession();
  ResultSet result;
  ASSERT_TRUE(server_->ExecuteScript(embedded, setup, &result).ok());

  NetClient client;
  ASSERT_TRUE(Connect(&client).ok());
  // Each statement with its row count, so that equal answers cannot be two
  // empty ones.
  const std::pair<const char*, size_t> statements[] = {
      {"SELECT * FROM t", 300},
      {"SELECT id, e FROM t WHERE Overlaps(e, '20000, 20000, 19500, 19510')",
       11},
      {"SELECT id, note FROM t WHERE id = 8", 1},
      {"SELECT COUNT(*) FROM t", 1},
      {"SET EXPLAIN ON", 0},
      {"SELECT name FROM t WHERE id < 3", 3},  // and the plan message
      {"SET EXPLAIN OFF", 0},
      {"DUMP TRACE", 0},  // the columns of sys_spans and a summary message
      {"SELECT * FROM t WHERE id = -1", 0},
      {"SELECT * FROM missing", 0},
  };
  for (const auto& [sql, rows] : statements) {
    SCOPED_TRACE(sql);
    ResultSet expected;
    const Status want = server_->Execute(embedded, sql, &expected);
    const Status got = client.Execute(sql, &result);
    ASSERT_EQ(got.code(), want.code()) << got.ToString();
    EXPECT_EQ(expected.rows.size(), rows);
    EXPECT_EQ(result.columns, expected.columns);
    EXPECT_EQ(result.rows, expected.rows);
    EXPECT_EQ(result.messages, expected.messages);
    EXPECT_EQ(result.affected, expected.affected);
  }
  ASSERT_TRUE(server_->CloseSession(embedded).ok());
}

// A client that sends a query and closes before reading the answer makes
// the worker's write fail. The server drops that connection and keeps
// serving the others; a write that raised SIGPIPE ended the whole process.
TEST_F(NetTest, EarlyDisconnectDropsOnlyThatConnection) {
  ServerSession* loader = server_->CreateSession();
  ResultSet result;
  ASSERT_TRUE(
      server_->Execute(loader, "CREATE TABLE t (id int, pad text)", &result)
          .ok());
  // 256 rows of 16 KiB: a 4 MiB answer, more than one send can take.
  const std::string pad(16 * 1024, 'p');
  for (int i = 0; i < 256; ++i) {
    ASSERT_TRUE(server_
                    ->Execute(loader,
                              "INSERT INTO t VALUES (" + std::to_string(i) +
                                  ", '" + pad + "')",
                              &result)
                    .ok());
  }
  ASSERT_TRUE(server_->CloseSession(loader).ok());

  const obs::Counter* closed =
      server_->metrics().GetCounter("net.connections_closed");
  Request select;
  select.sql = "SELECT * FROM t";
  for (int round = 0; round < 3; ++round) {
    const uint64_t closed_before = closed->value();
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(net_->port());
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
              0);
    ASSERT_TRUE(WriteFrame(fd, EncodeRequest(select)).ok());
    ::close(fd);
    // The worker reads the request, runs it, fails to send the answer and
    // closes the connection; wait (bounded) for that.
    for (int i = 0; i < 5000 && closed->value() == closed_before; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ASSERT_GT(closed->value(), closed_before) << "round " << round;

    NetClient other;
    ASSERT_TRUE(Connect(&other).ok());
    ASSERT_TRUE(other.Execute("SELECT COUNT(*) FROM t", &result).ok());
    ASSERT_EQ(result.rows.size(), 1u);
    EXPECT_EQ(result.rows[0][0], "256");
  }
}

}  // namespace
}  // namespace net
}  // namespace grtdb
