// Copyright 2026 TGCRN Reproduction Authors
// Wire-level tests of the NDJSON forecast server (src/serve/server.h):
// schema of every response type, per-connection ordering, error paths,
// the zero-allocation steady state with request telemetry armed, the
// access log, and clean shutdown (protocol spec: docs/SERVING.md).
#include "serve/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cfloat>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <map>
#include <random>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "core/tgcrn.h"
#include "datagen/metro_sim.h"
#include "obs/json.h"
#include "serve/session.h"
#include "serve/telemetry.h"
#include "serve/wire.h"
#include "tensor/buffer_pool.h"

namespace tgcrn {
namespace {

class Client {
 public:
  explicit Client(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    // A wedged server should fail the test, not hang the suite.
    timeval timeout{10, 0};
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<uint16_t>(port));
    EXPECT_EQ(
        ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0)
        << std::strerror(errno);
  }
  ~Client() {
    if (fd_ >= 0) ::close(fd_);
  }

  obs::Json Call(const std::string& line) {
    std::string payload = line + "\n";
    EXPECT_EQ(::send(fd_, payload.data(), payload.size(), 0),
              static_cast<ssize_t>(payload.size()));
    return ReadLine();
  }

  // Writes raw bytes (any number of request lines).
  void Send(const std::string& payload) {
    size_t sent = 0;
    while (sent < payload.size()) {
      const ssize_t wrote = ::send(fd_, payload.data() + sent,
                                   payload.size() - sent, MSG_NOSIGNAL);
      ASSERT_GT(wrote, 0) << std::strerror(errno);
      sent += static_cast<size_t>(wrote);
    }
  }

  // The next response line's raw text (empty when none arrives).
  std::string ReadRawLine() {
    while (buffer_.find('\n') == std::string::npos) {
      char chunk[4096];
      const ssize_t got = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (got <= 0) break;
      buffer_.append(chunk, static_cast<size_t>(got));
    }
    const size_t newline = buffer_.find('\n');
    EXPECT_NE(newline, std::string::npos) << "no response line";
    if (newline == std::string::npos) return "";
    const std::string line = buffer_.substr(0, newline);
    buffer_.erase(0, newline + 1);
    return line;
  }

  obs::Json ReadLine() {
    const std::string line = ReadRawLine();
    obs::Json parsed;
    std::string error;
    EXPECT_TRUE(obs::Json::Parse(line, &parsed, &error)) << error;
    return parsed;
  }

 private:
  int fd_ = -1;
  std::string buffer_;
};

class ServeServerFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    BuildSession();
    StartServer();
  }

  void BuildSession() {
    datagen::MetroSimConfig sim_config;
    sim_config.num_stations = 4;
    sim_config.num_days = 7;
    sim_config.seed = 13;
    sim_config.keep_od_ground_truth = false;
    auto sim = datagen::SimulateMetro(sim_config);
    raw_ = std::move(sim.data);
    scaler_.Fit(raw_.values, raw_.num_steps() / 2);

    core::TGCRNConfig config;
    config.num_nodes = raw_.num_nodes();
    config.input_dim = raw_.num_features();
    config.output_dim = raw_.num_features();
    config.horizon = 2;
    config.hidden_dim = 8;
    config.num_layers = 1;
    config.node_embed_dim = 4;
    config.time_embed_dim = 4;
    config.steps_per_day = raw_.steps_per_day;
    rng_ = std::make_unique<Rng>(3);
    model_ = std::make_unique<core::TGCRN>(config, rng_.get());
    session_ = std::make_unique<serve::InferenceSession>(
        model_.get(), scaler_, serve::SessionConfig());
  }

  // telemetry_ stays null in the base fixture (telemetry-free server).
  void StartServer() {
    server_ = std::make_unique<serve::Server>(session_.get(), 0,
                                              telemetry_.get());
    std::string error;
    ASSERT_TRUE(server_->Start(&error)) << error;
    thread_ = std::thread([this] { server_->Run(); });
  }

  void Shutdown() {
    if (thread_.joinable()) {
      Client quit(server_->port());
      quit.Call(R"({"op":"shutdown"})");
      thread_.join();
    }
  }

  void TearDown() override { Shutdown(); }

  std::string ObserveLine(const std::string& entity, int64_t t) const {
    const int64_t n = raw_.num_nodes();
    const int64_t d = raw_.num_features();
    std::string values = "[";
    for (int64_t node = 0; node < n; ++node) {
      values += node == 0 ? "[" : ",[";
      for (int64_t f = 0; f < d; ++f) {
        if (f > 0) values += ",";
        values += std::to_string(raw_.values.data()[(t * n + node) * d + f]);
      }
      values += "]";
    }
    values += "]";
    return R"({"op":"observe","entity":")" + entity +
           R"(","slot":)" + std::to_string(raw_.slot_of_day[t]) +
           R"(,"values":)" + values + "}";
  }

  data::SpatioTemporalData raw_;
  data::StandardScaler scaler_;
  std::unique_ptr<Rng> rng_;
  std::unique_ptr<core::TGCRN> model_;
  std::unique_ptr<serve::InferenceSession> session_;
  // Declared before server_ so the borrowing server is destroyed first.
  std::unique_ptr<serve::ServeTelemetry> telemetry_;
  std::unique_ptr<serve::Server> server_;
  std::thread thread_;
};

// The same server with an armed ServeTelemetry: every request traced
// into an access log, everything slow (slow_us = 1) so the exemplar
// paths are exercised too.
class ServeServerTelemetryFixture : public ServeServerFixture {
 protected:
  void SetUp() override {
    BuildSession();
    // Per-process name: ctest runs this binary's cases in parallel
    // processes, and each case removes and reads its own log.
    log_path_ = (std::filesystem::temp_directory_path() /
                 ("tgcrn_server_test." + std::to_string(::getpid()) +
                  ".access.jsonl"))
                    .string();
    std::filesystem::remove(log_path_);
    serve::TelemetryConfig config;
    config.access_log_path = log_path_;
    config.slow_us = 1;
    telemetry_ = std::make_unique<serve::ServeTelemetry>(config,
                                                         session_.get());
    StartServer();
  }

  void TearDown() override {
    ServeServerFixture::TearDown();
    std::filesystem::remove(log_path_);
  }

  std::vector<obs::Json> ReadLogLines() {
    std::vector<obs::Json> lines;
    std::ifstream in(log_path_);
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty()) continue;
      obs::Json entry;
      std::string error;
      EXPECT_TRUE(obs::Json::Parse(line, &entry, &error))
          << line << " (" << error << ")";
      lines.push_back(std::move(entry));
    }
    return lines;
  }

  std::string log_path_;
};

TEST_F(ServeServerFixture, ObserveThenForecastSchema) {
  Client client(server_->port());
  for (int64_t t = 0; t < 3; ++t) {
    const obs::Json reply = client.Call(ObserveLine("hz", t));
    EXPECT_TRUE(reply["ok"].AsBool()) << reply.Dump();
    EXPECT_EQ(reply.GetString("op"), "observe");
    EXPECT_EQ(reply.GetString("entity"), "hz");
    EXPECT_EQ(reply.GetInt("steps"), t + 1);
  }

  const obs::Json forecast =
      client.Call(R"({"op":"forecast","entity":"hz"})");
  EXPECT_TRUE(forecast["ok"].AsBool()) << forecast.Dump();
  EXPECT_EQ(forecast.GetString("op"), "forecast");
  EXPECT_EQ(forecast.GetInt("steps"), 3);
  const obs::Json& grid = forecast["forecast"];
  ASSERT_TRUE(grid.is_array());
  ASSERT_EQ(grid.size(), 2u);  // horizon
  ASSERT_EQ(grid.at(0).size(), static_cast<size_t>(raw_.num_nodes()));
  ASSERT_EQ(grid.at(0).at(0).size(),
            static_cast<size_t>(raw_.num_features()));
  EXPECT_TRUE(grid.at(0).at(0).at(0).is_number());
}

TEST_F(ServeServerFixture, StatsEvictAndErrorSchema) {
  Client client(server_->port());
  client.Call(ObserveLine("hz", 0));

  const obs::Json stats = client.Call(R"({"op":"stats"})");
  EXPECT_TRUE(stats["ok"].AsBool());
  EXPECT_EQ(stats.GetInt("entities"), 1);
  EXPECT_GE(stats.GetInt("requests"), 1);
  EXPECT_TRUE(stats.Has("p50_us"));
  EXPECT_TRUE(stats.Has("p99_us"));
  EXPECT_TRUE(stats.Has("mean_us"));
  EXPECT_TRUE(stats.Has("qps"));
  EXPECT_TRUE(stats.Has("tensor_allocations_delta"));

  // Forecasting an entity with no observations is an error, not a crash.
  const obs::Json cold = client.Call(R"({"op":"forecast","entity":"??"})");
  EXPECT_FALSE(cold["ok"].AsBool());
  EXPECT_NE(cold.GetString("error"), "");

  const obs::Json evict = client.Call(R"({"op":"evict","entity":"hz"})");
  EXPECT_TRUE(evict["ok"].AsBool());
  EXPECT_TRUE(evict["existed"].AsBool());
  const obs::Json again = client.Call(R"({"op":"evict","entity":"hz"})");
  EXPECT_FALSE(again["existed"].AsBool());

  const obs::Json bad_op = client.Call(R"({"op":"what"})");
  EXPECT_FALSE(bad_op["ok"].AsBool());
  const obs::Json malformed = client.Call("{not json");
  EXPECT_FALSE(malformed["ok"].AsBool());
}

TEST_F(ServeServerFixture, MalformedObserveValuesAreRejectedUnchanged) {
  Client client(server_->port());
  ASSERT_TRUE(client.Call(ObserveLine("hz", 0))["ok"].AsBool());
  // Swaps the first value of a well-formed observe line for `first`, or
  // the whole values array for `values` when given.
  const std::string good = ObserveLine("hz", 1);
  const size_t open = good.find("\"values\":[[") + 11;
  const size_t comma = good.find_first_of(",]", open);
  const auto with_first = [&](const std::string& entity,
                              const std::string& first) {
    std::string line = good.substr(0, open) + first + good.substr(comma);
    line.replace(line.find("\"hz\""), 4, "\"" + entity + "\"");
    return line;
  };
  const auto with_values = [](const std::string& values) {
    return R"({"op":"observe","entity":"hz","slot":1,"values":)" + values +
           "}";
  };
  const int64_t n = raw_.num_nodes();
  std::string ragged = "[[1,2]";
  for (int64_t i = 1; i < n; ++i) ragged += i == 1 ? ",[1]" : ",[1,2]";
  ragged += "]";
  std::string mixed = "[[1,2]";
  for (int64_t i = 1; i < n; ++i) mixed += ",1,2";
  mixed += "]";
  for (const std::string& line :
       {with_first("hz", "null"), with_first("hz", "\"1.5\""),
        with_first("hz", "true"), with_first("hz", "1e39"),
        with_first("hz", "-1e39"), with_first("hz", "{}"),
        with_first("fresh", "null"), with_values(ragged),
        with_values(mixed), with_values("[1,null,3,4,5,6,7,8]"),
        with_values("[]"), with_values("\"1,2\"")}) {
    const obs::Json reply = client.Call(line);
    EXPECT_FALSE(reply["ok"].AsBool()) << line << " -> " << reply.Dump();
    EXPECT_EQ(reply.GetString("op"), "observe");
    EXPECT_NE(reply.GetString("error"), "") << line;
  }
  // No rejected observe reached the session: "hz" still holds one step
  // and "fresh" was never created.
  const obs::Json stats = client.Call(R"({"op":"stats"})");
  EXPECT_EQ(stats.GetInt("entities"), 1);
  const obs::Json forecast =
      client.Call(R"({"op":"forecast","entity":"hz"})");
  ASSERT_TRUE(forecast["ok"].AsBool()) << forecast.Dump();
  EXPECT_EQ(forecast.GetInt("steps"), 1);
  const obs::Json next = client.Call(good);
  EXPECT_TRUE(next["ok"].AsBool()) << next.Dump();
  EXPECT_EQ(next.GetInt("steps"), 2);
}

TEST_F(ServeServerFixture, PipelinedRequestsAnswerInOrder) {
  Client client(server_->port());
  // Two observes and a forecast written as one burst; responses must come
  // back in request order with monotonically increasing step counts.
  std::string burst = ObserveLine("a", 0) + "\n" + ObserveLine("a", 1) +
                      "\n" + R"({"op":"forecast","entity":"a"})" + "\n";
  const obs::Json first = client.Call(burst.substr(0, burst.size() - 1));
  EXPECT_EQ(first.GetInt("steps"), 1);
  const obs::Json second = client.ReadLine();
  EXPECT_EQ(second.GetString("op"), "observe");
  EXPECT_EQ(second.GetInt("steps"), 2);
  const obs::Json third = client.ReadLine();
  EXPECT_EQ(third.GetString("op"), "forecast");
  EXPECT_TRUE(third["ok"].AsBool());
  EXPECT_EQ(third.GetInt("steps"), 2);
}

TEST_F(ServeServerFixture, SlowReaderDoesNotStallOtherConnections) {
  // A client that pipelines thousands of forecasts and never reads: once
  // the kernel socket buffers fill, its responses must queue in the
  // server's per-connection output buffer (flushed on POLLOUT) instead
  // of wedging the single-threaded poll loop in a blocking send().
  const int slow = ::socket(AF_INET, SOCK_STREAM, 0);
  int rcvbuf = 4096;  // shrink the reader side so kernel space fills fast
  ::setsockopt(slow, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
  timeval timeout{10, 0};
  ::setsockopt(slow, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(server_->port()));
  ASSERT_EQ(::connect(slow, reinterpret_cast<sockaddr*>(&addr),
                      sizeof(addr)), 0)
      << std::strerror(errno);

  constexpr size_t kForecasts = 2000;
  std::string burst;
  for (int64_t t = 0; t < 3; ++t) burst += ObserveLine("hz", t) + "\n";
  for (size_t i = 0; i < kForecasts; ++i) {
    burst += R"({"op":"forecast","entity":"hz"})" "\n";
  }
  size_t sent = 0;
  while (sent < burst.size()) {
    const ssize_t wrote = ::send(slow, burst.data() + sent,
                                 burst.size() - sent, MSG_NOSIGNAL);
    ASSERT_GT(wrote, 0) << std::strerror(errno);
    sent += static_cast<size_t>(wrote);
  }

  // While the slow client sits on its responses, a second connection
  // must still be answered promptly.
  Client probe(server_->port());
  const obs::Json stats = probe.Call(R"({"op":"stats"})");
  EXPECT_TRUE(stats["ok"].AsBool()) << stats.Dump();

  // Drain the slow client: every buffered response arrives intact.
  size_t lines = 0;
  char chunk[65536];
  while (lines < 3 + kForecasts) {
    const ssize_t got = ::recv(slow, chunk, sizeof(chunk), 0);
    ASSERT_GT(got, 0) << "slow connection lost responses: "
                      << std::strerror(errno);
    for (ssize_t k = 0; k < got; ++k) lines += chunk[k] == '\n';
  }
  EXPECT_EQ(lines, 3 + kForecasts);
  ::close(slow);
}

TEST_F(ServeServerTelemetryFixture, AccessLogRecordsEveryWireRequestOnce) {
  {
    Client client(server_->port());
    // Client-supplied id must be echoed back verbatim...
    std::string tagged = ObserveLine("hz", 0);
    tagged.insert(1, R"("id":777,)");
    const obs::Json reply = client.Call(tagged);
    EXPECT_TRUE(reply["ok"].AsBool()) << reply.Dump();
    EXPECT_EQ(reply.GetInt("id"), 777);
    // ...and server-assigned ids stay out of the response schema.
    const obs::Json untagged = client.Call(ObserveLine("hz", 1));
    EXPECT_FALSE(untagged.Has("id"));

    const obs::Json forecast =
        client.Call(R"({"op":"forecast","entity":"hz"})");
    EXPECT_TRUE(forecast["ok"].AsBool());
    const obs::Json bad_op = client.Call(R"({"op":"what"})");
    EXPECT_FALSE(bad_op["ok"].AsBool());
    const obs::Json malformed = client.Call("{not json");
    EXPECT_FALSE(malformed["ok"].AsBool());
  }
  Shutdown();  // Run() flushes the telemetry before returning.

  // 5 client requests + the shutdown request itself, each exactly once.
  std::vector<obs::Json> requests;
  for (const obs::Json& entry : ReadLogLines()) {
    if (entry.GetString("type") == "request") requests.push_back(entry);
  }
  ASSERT_EQ(requests.size(), 6u);
  std::unordered_set<int64_t> ids;
  bool saw_client_id = false;
  int errors = 0;
  for (const obs::Json& entry : requests) {
    EXPECT_TRUE(ids.insert(entry.GetInt("id")).second)
        << "duplicate request id: " << entry.Dump();
    saw_client_id |= entry.GetInt("id") == 777;
    errors += entry.GetString("status") == "error";
    const obs::Json& stages = entry["stage_us"];
    ASSERT_TRUE(stages.is_object()) << entry.Dump();
    int64_t prev = 0;
    for (int s = 0; s < serve::kServeStageCount; ++s) {
      const int64_t at = stages.GetInt(serve::ServeStageName(s), -1);
      ASSERT_GE(at, prev) << "non-monotone stages: " << entry.Dump();
      prev = at;
    }
    EXPECT_EQ(entry.GetInt("total_us"), prev);
  }
  EXPECT_TRUE(saw_client_id);
  EXPECT_EQ(errors, 2);  // bad op + malformed line
}

// A run of pipelined forecasts is one batched Forecast call, split into
// waves of kWaveMax rows; each traced request must carry the width of
// the wave that served it.
TEST_F(ServeServerTelemetryFixture, PipelinedForecastsCarryTheirWaveWidth) {
  const int64_t count = serve::kWaveMax + 1;
  {
    Client client(server_->port());
    for (const char* entity : {"a", "b", "c"}) {
      ASSERT_TRUE(client.Call(ObserveLine(entity, 0))["ok"].AsBool());
    }
    // One write well under the server's 4 KiB read, so one poll round
    // sees every line.
    std::string burst;
    for (int64_t i = 0; i < count; ++i) {
      burst += std::string(R"({"op":"forecast","entity":")") + "abc"[i % 3] +
               "\"}\n";
    }
    client.Send(burst);
    for (int64_t i = 0; i < count; ++i) {
      const obs::Json reply = client.ReadLine();
      ASSERT_TRUE(reply["ok"].AsBool()) << reply.Dump();
    }
  }
  Shutdown();

  std::map<int64_t, int64_t> batch_by_id;  // request id -> wave width
  for (const obs::Json& entry : ReadLogLines()) {
    if (entry.GetString("type") == "request" &&
        entry.GetString("op") == "forecast") {
      batch_by_id[entry.GetInt("id")] = entry.GetInt("batch");
    }
  }
  ASSERT_EQ(static_cast<int64_t>(batch_by_id.size()), count);
  int64_t i = 0;
  for (const auto& [id, batch] : batch_by_id) {
    EXPECT_EQ(batch, i < serve::kWaveMax ? serve::kWaveMax : 1)
        << "forecast " << i << " (id " << id << ")";
    ++i;
  }
}

TEST_F(ServeServerTelemetryFixture, StatsExposeStagesCacheAndSlowView) {
  Client client(server_->port());
  for (int64_t t = 0; t < 3; ++t) {
    ASSERT_TRUE(client.Call(ObserveLine("hz", t))["ok"].AsBool());
  }

  const obs::Json stats = client.Call(R"({"op":"stats"})");
  ASSERT_TRUE(stats["ok"].AsBool()) << stats.Dump();
  const obs::Json& cache = stats["cache"];
  ASSERT_TRUE(cache.is_object()) << stats.Dump();
  EXPECT_TRUE(cache.Has("hits"));
  EXPECT_TRUE(cache.Has("misses"));
  EXPECT_TRUE(cache.Has("evictions"));
  const obs::Json& stages = stats["stages"];
  ASSERT_TRUE(stages.is_object()) << stats.Dump();
  for (int s = 0; s < serve::kServeStageCount; ++s) {
    const obs::Json& stage = stages[serve::ServeStageName(s)];
    ASSERT_TRUE(stage.is_object()) << stats.Dump();
    EXPECT_TRUE(stage.Has("p50_us"));
    EXPECT_TRUE(stage.Has("p99_us"));
  }
  // slow_us = 1 marks every request slow, so the exemplar view fills up.
  EXPECT_GE(stats.GetInt("slow_count"), 3);
  const obs::Json slow = client.Call(R"({"op":"stats","view":"slow"})");
  ASSERT_TRUE(slow["ok"].AsBool());
  const obs::Json& exemplars = slow["slow_requests"];
  ASSERT_TRUE(exemplars.is_array()) << slow.Dump();
  EXPECT_GE(exemplars.size(), 3u);
  EXPECT_GT(exemplars.at(0).GetInt("total_us"), 0);
}

TEST_F(ServeServerTelemetryFixture, RequestStopFlushesCompleteAccessLog) {
  {
    Client client(server_->port());
    for (int64_t t = 0; t < 2; ++t) {
      ASSERT_TRUE(client.Call(ObserveLine("hz", t))["ok"].AsBool());
    }
  }
  // The SIGTERM path: no shutdown request on the wire, just the stop
  // flag — Run() must still drain and leave a complete, flushed log.
  server_->RequestStop();
  thread_.join();

  int requests = 0;
  bool saw_drift = false;
  for (const obs::Json& entry : ReadLogLines()) {
    requests += entry.GetString("type") == "request";
    saw_drift |= entry.GetString("type") == "drift";
  }
  EXPECT_EQ(requests, 2);
  // Observations were recorded, so the final flush emits a drift block.
  EXPECT_TRUE(saw_drift);
}

TEST_F(ServeServerTelemetryFixture,
       SteadyStateAllocatesNothingWithTelemetryArmed) {
  // Start from a cold buffer pool, as a fresh tgcrn_serve process does,
  // whatever ran earlier in this process.
  TensorBufferPool::Global().Clear();
  Client client(server_->port());
  auto round = [&](int64_t t) {
    for (const char* entity : {"hz", "sh"}) {
      ASSERT_TRUE(client.Call(ObserveLine(entity, t))["ok"].AsBool());
    }
    for (const char* entity : {"hz", "sh"}) {
      const obs::Json forecast = client.Call(
          std::string(R"({"op":"forecast","entity":")") + entity + "\"}");
      ASSERT_TRUE(forecast["ok"].AsBool()) << forecast.Dump();
    }
  };
  // Warm-up touches every steady-state shape (observe + forecast).
  for (int64_t t = 0; t < 4; ++t) round(t);

  // The allocation delta of the second stats call covers exactly the
  // requests between the two calls.
  ASSERT_TRUE(client.Call(R"({"op":"stats"})")["ok"].AsBool());
  for (int64_t t = 4; t < 10; ++t) round(t);
  const obs::Json stats = client.Call(R"({"op":"stats"})");
  ASSERT_TRUE(stats["ok"].AsBool()) << stats.Dump();
  EXPECT_EQ(stats.GetInt("entities"), 2);
  EXPECT_TRUE(stats.Has("uptime_s"));
  EXPECT_EQ(stats.GetInt("tensor_allocations_delta", -1), 0)
      << "steady state allocated with telemetry armed: " << stats.Dump();
}

TEST_F(ServeServerTelemetryFixture, ShutdownFlushWritesSlowAndOneDriftBlock) {
  {
    Client client(server_->port());
    for (int64_t t = 0; t < 3; ++t) {
      ASSERT_TRUE(client.Call(ObserveLine("hz", t))["ok"].AsBool());
    }
    ASSERT_TRUE(client.Call(R"({"op":"forecast","entity":"hz"})")["ok"]
                    .AsBool());
    ASSERT_TRUE(client.Call(ObserveLine("hz", 3))["ok"].AsBool());
  }
  Shutdown();  // the wire shutdown request, as tgcrn_serve receives it

  int slow = 0;
  std::vector<obs::Json> drift;
  for (const obs::Json& entry : ReadLogLines()) {
    slow += entry.GetString("type") == "slow";
    if (entry.GetString("type") == "drift") drift.push_back(entry);
  }
  EXPECT_GT(slow, 0);  // slow_us = 1: every request is an exemplar
  ASSERT_EQ(drift.size(), 1u) << "expected exactly one final drift block";
  for (const char* key : {"observations", "matched", "coverage", "horizons"}) {
    EXPECT_TRUE(drift[0].Has(key)) << key;
  }
  EXPECT_GT(drift[0].GetInt("observations"), 0);
}


// --- Forecast wire format ---------------------------------------------------

uint32_t Bits(float v) {
  uint32_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

// `value` written by the forecast writer reads back bit for bit through
// strtof and through strtod then a float cast (how a double-parsing
// client, such as a JSON library, reads it).
void ExpectRoundTrips(float value) {
  std::string text;
  serve::AppendFloat32(value, &text);
  const float via_strtof = std::strtof(text.c_str(), nullptr);
  const float via_strtod =
      static_cast<float>(std::strtod(text.c_str(), nullptr));
  ASSERT_EQ(Bits(via_strtof), Bits(value)) << text << " via strtof";
  ASSERT_EQ(Bits(via_strtod), Bits(value)) << text << " via strtod";
}

TEST(ForecastWireTest, FloatsRoundTripThroughStrtofAndStrtod) {
  // 7.038531e-26 is the float whose shortest text strtod-then-cast rounds
  // to a neighbour; the writer falls back to 9 digits for it.
  const float twice_rounded = std::strtof("7.038531e-26", nullptr);
  std::string shortest(32, '\0');
  shortest.resize(std::snprintf(shortest.data(), shortest.size(), "%.7g",
                                twice_rounded));
  EXPECT_NE(Bits(static_cast<float>(std::strtod(shortest.c_str(), nullptr))),
            Bits(twice_rounded))
      << "expected the double-rounding case";
  std::string written;
  serve::AppendFloat32(twice_rounded, &written);
  EXPECT_NE(written, shortest);
  for (const float v :
       {twice_rounded, -twice_rounded, 0.0f, -0.0f, FLT_MAX, -FLT_MAX,
        FLT_MIN, -FLT_MIN, std::numeric_limits<float>::denorm_min(),
        -std::numeric_limits<float>::denorm_min(), FLT_MIN / 2.0f,
        std::nextafter(FLT_MIN, 0.0f), 1.0f, 0.1f, 1e10f, 123456789.0f}) {
    ExpectRoundTrips(v);
  }
  // A strided sweep over the bit patterns: 2^32 / 4093 > 1M floats.
  int64_t checked = 0;
  for (uint64_t bits = 0; bits < (uint64_t{1} << 32); bits += 4093) {
    const uint32_t b = static_cast<uint32_t>(bits);
    float v;
    std::memcpy(&v, &b, sizeof(v));
    if (!std::isfinite(v)) continue;
    ExpectRoundTrips(v);
    if (::testing::Test::HasFatalFailure()) return;
    ++checked;
  }
  EXPECT_GT(checked, 1000000);
}

TEST(ForecastWireTest, NonFiniteValuesAreNull) {
  for (const float v : {std::numeric_limits<float>::quiet_NaN(),
                        std::numeric_limits<float>::infinity(),
                        -std::numeric_limits<float>::infinity()}) {
    std::string text;
    serve::AppendFloat32(v, &text);
    EXPECT_EQ(text, "null");
  }
}

TEST(ForecastWireTest, LineMatchesJsonSchemaAndStaysUnderBound) {
  const std::string entity = "a\"b\\c\x01\x1f\n\xc3\xa9\xe2\x82\xac";
  const std::vector<float> grid = {1.5f, -0.0f, FLT_MAX,
                                   std::numeric_limits<float>::quiet_NaN(),
                                   -1.17549435e-38f, 7.038531e-26f};
  for (const bool with_id : {false, true}) {
    serve::ForecastLine line;
    line.entity = obs::Json::Escape(entity);
    line.grid = grid.data();
    line.horizon = 3;
    line.nodes = 1;
    line.dims = 2;
    line.steps = 42;
    line.with_id = with_id;
    line.id = 9007199254740993;
    std::string text;
    serve::AppendForecastLine(line, &text);
    EXPECT_LE(text.size(), serve::ForecastLineBound(line));
    obs::Json parsed;
    std::string error;
    ASSERT_TRUE(obs::Json::Parse(text, &parsed, &error)) << error << text;
    // The keys in obs::Json's own (sorted) order: the DOM would dump the
    // same object with the same key sequence.
    std::vector<std::string> keys;
    for (const auto& [key, value] : parsed.AsObject()) keys.push_back(key);
    std::vector<std::string> want = {"entity", "forecast", "ok", "op",
                                     "steps"};
    if (with_id) want.insert(want.begin() + 2, "id");
    EXPECT_EQ(keys, want);
    EXPECT_EQ(text.rfind("{\"entity\":", 0), 0u);
    EXPECT_EQ(parsed.GetString("entity"), entity);
    EXPECT_EQ(parsed.GetString("op"), "forecast");
    EXPECT_TRUE(parsed["ok"].AsBool());
    EXPECT_EQ(parsed.GetInt("steps"), 42);
    if (with_id) {
      EXPECT_NE(text.find("\"id\":9007199254740993,"), std::string::npos);
    }
    const obs::Json& rows = parsed["forecast"];
    ASSERT_EQ(rows.size(), 3u);
    for (size_t q = 0; q < 3; ++q) {
      ASSERT_EQ(rows.at(q).size(), 1u);
      ASSERT_EQ(rows.at(q).at(0).size(), 2u);
      for (size_t f = 0; f < 2; ++f) {
        const float want_v = grid[2 * q + f];
        const obs::Json& got = rows.at(q).at(0).at(f);
        if (std::isnan(want_v)) {
          EXPECT_TRUE(got.is_null());
        } else {
          EXPECT_EQ(Bits(static_cast<float>(got.AsDouble())), Bits(want_v));
        }
      }
    }
  }
}

// Every served forecast value, parsed from the wire as float32 (strtof)
// or as a double then cast, equals a fresh InferenceSession's replay of
// the same observations bit for bit — for entity names that need
// escaping too.
TEST_F(ServeServerFixture, ForecastValuesMatchSessionReplayBitwise) {
  Client client(server_->port());
  serve::InferenceSession replay(model_.get(), scaler_,
                                 serve::SessionConfig());
  const std::vector<std::string> entities = {
      "hz", "quote\"back\\slash", std::string("ctl\x01\x1f", 5),
      "utf8-\xc3\xa9\xe2\x82\xac"};
  for (const std::string& entity : entities) {
    const std::string name = obs::Json::Escape(entity);
    for (int64_t t = 0; t < 3; ++t) {
      std::string line = ObserveLine("hz", t);
      line.replace(line.find("\"hz\""), 4, "\"" + name + "\"");
      const obs::Json reply = client.Call(line);
      ASSERT_TRUE(reply["ok"].AsBool()) << reply.Dump();
      EXPECT_EQ(reply.GetString("entity"), entity);
      // The replay reads the request's numbers as the server does.
      obs::Json body;
      ASSERT_TRUE(obs::Json::Parse(line, &body));
      serve::Observation ob;
      ob.entity = entity;
      ob.slot = body.GetInt("slot");
      for (const obs::Json& row : body["values"].AsArray()) {
        for (const obs::Json& v : row.AsArray()) {
          ob.values.push_back(static_cast<float>(v.AsDouble()));
        }
      }
      replay.Observe({ob});
    }
    client.Send(R"({"op":"forecast","entity":")" + name + "\"}\n");
    const std::string text = client.ReadRawLine();
    obs::Json parsed;
    ASSERT_TRUE(obs::Json::Parse(text, &parsed)) << text;
    ASSERT_TRUE(parsed["ok"].AsBool()) << text;
    EXPECT_EQ(parsed.GetString("entity"), entity);
    Tensor want;
    std::vector<int64_t> steps;
    replay.Forecast({entity}, &want, &steps);
    EXPECT_EQ(parsed.GetInt("steps"), steps[0]);
    // The numbers in wire order: every token after "forecast":[ up to
    // its closing bracket that is not a bracket or comma.
    const size_t begin = text.find("\"forecast\":") + 11;
    const size_t end = text.find("]]]", begin) + 3;
    std::vector<std::string> tokens;
    std::string token;
    for (size_t i = begin; i < end; ++i) {
      const char ch = text[i];
      if (ch == '[' || ch == ']' || ch == ',') {
        if (!token.empty()) tokens.push_back(token);
        token.clear();
      } else {
        token.push_back(ch);
      }
    }
    ASSERT_EQ(static_cast<int64_t>(tokens.size()), want.numel());
    for (int64_t i = 0; i < want.numel(); ++i) {
      const float expected = want.data()[i];
      ASSERT_EQ(Bits(std::strtof(tokens[i].c_str(), nullptr)), Bits(expected))
          << entity << " value " << i << ": " << tokens[i];
      ASSERT_EQ(Bits(static_cast<float>(
                    std::strtod(tokens[i].c_str(), nullptr))),
                Bits(expected))
          << entity << " value " << i << ": " << tokens[i];
    }
  }
}

// --- NDJSON protocol fuzz ---------------------------------------------------

// Seeded mutations of well-formed request lines plus random lines:
// truncations, byte flips (NULs and CRs included), wrong-typed and huge
// fields, CRLF endings. The server must never crash, must answer every
// non-empty line with exactly one parseable JSON line, in order, and a
// rejected request must leave every entity's step count unchanged.
TEST_F(ServeServerFixture, ProtocolFuzzAnswersEveryLineAndRejectsCleanly) {
  Client client(server_->port());
  for (int64_t t = 0; t < 2; ++t) {
    ASSERT_TRUE(client.Call(ObserveLine("hz", t))["ok"].AsBool());
  }
  std::map<std::string, int64_t> steps = {{"hz", 2}};
  const std::vector<std::string> seeds = {
      ObserveLine("hz", 2),
      ObserveLine("hz", 3),
      R"({"op":"forecast","entity":"hz"})",
      R"({"op":"forecast","entity":"hz","id":7})",
      R"({"op":"stats"})",
      R"({"op":"stats","view":"slow"})",
  };
  const std::vector<std::string> fields = {
      "1e308", "-1e308", "9223372036854775808", "-9223372036854775809",
      "\"7\"", "null", "true", "[]", "{}", "-1", "0.5", "1e-400",
      "123456789012345678901234567890"};
  std::mt19937_64 gen(20261017);
  auto pick = [&](size_t n) {
    return static_cast<size_t>(gen() % static_cast<uint64_t>(n));
  };
  auto mutate = [&](std::string line) {
    switch (pick(7)) {
      case 0:  // truncate
        line.resize(pick(line.size() + 1));
        break;
      case 1:  // flip a byte, NUL and CR included
        if (!line.empty()) {
          const char bytes[] = {'\0', '\r', '"', '\\', '{', '}', '[',
                                ']', ',', ':', 'e', '-', '\x80', '\xff'};
          line[pick(line.size())] = bytes[pick(sizeof(bytes))];
        }
        break;
      case 2: {  // a field set to a wrong type or a huge number
        const char* keys[] = {"\"slot\":", "\"entity\":", "\"op\":",
                              "\"values\":", "\"id\":"};
        const std::string key = keys[pick(5)];
        const size_t at = line.find(key);
        if (at == std::string::npos) {
          line.insert(line.size() - 1, "," + key + fields[pick(fields.size())]);
        } else {
          const size_t v0 = at + key.size();
          size_t v1 = v0;
          int depth = 0;
          while (v1 < line.size() &&
                 (depth > 0 || (line[v1] != ',' && line[v1] != '}'))) {
            if (line[v1] == '[') ++depth;
            if (line[v1] == ']') --depth;
            ++v1;
          }
          line.replace(v0, v1 - v0, fields[pick(fields.size())]);
        }
        break;
      }
      case 3:  // CRLF ending
        line += "\r";
        break;
      case 4: {  // random bytes
        std::string junk(pick(40), ' ');
        for (char& ch : junk) {
          ch = static_cast<char>(gen() & 0xff);
          if (ch == '\n') ch = ' ';
        }
        line = junk;
        break;
      }
      case 5:  // duplicated tail
        line += line.substr(pick(line.size() + 1));
        break;
      default:  // left valid
        break;
    }
    return line;
  };
  constexpr int kRounds = 40;
  constexpr int kLinesPerRound = 25;
  for (int round = 0; round < kRounds; ++round) {
    std::vector<std::string> lines;
    std::string payload;
    for (int i = 0; i < kLinesPerRound; ++i) {
      std::string line = mutate(seeds[pick(seeds.size())]);
      // Never stop or reset the server under test.
      if (line.find("shutdown") != std::string::npos ||
          line.find("evict") != std::string::npos) {
        continue;
      }
      payload += line + "\n";
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (!line.empty()) lines.push_back(line);
    }
    client.Send(payload);
    for (const std::string& line : lines) {
      const std::string text = client.ReadRawLine();
      obs::Json reply;
      std::string error;
      ASSERT_TRUE(obs::Json::Parse(text, &reply, &error) &&
                  reply.is_object() && reply["ok"].is_bool())
          << "request " << line << " -> " << text << " (" << error << ")";
      obs::Json request;
      const bool parsed =
          obs::Json::Parse(line, &request) && request.is_object();
      const std::string op = parsed ? request.GetString("op") : "";
      if (!reply["ok"].AsBool()) continue;
      const std::string entity = reply.GetString("entity");
      if (op == "observe") {
        // An accepted observe advances exactly its entity, by one step.
        EXPECT_EQ(reply.GetInt("steps"), steps[entity] + 1) << line;
        steps[entity] = reply.GetInt("steps");
      } else if (op == "forecast") {
        EXPECT_EQ(reply.GetInt("steps"), steps[entity]) << line;
      }
    }
  }
  // The session agrees: rejected requests changed nothing.
  const obs::Json stats = client.Call(R"({"op":"stats"})");
  int64_t live = 0;
  for (const auto& [entity, count] : steps) live += count > 0 ? 1 : 0;
  EXPECT_EQ(stats.GetInt("entities"), live);
  for (const auto& [entity, count] : steps) {
    if (count == 0) continue;
    const obs::Json forecast = client.Call(
        R"({"op":"forecast","entity":")" + obs::Json::Escape(entity) +
        "\"}");
    EXPECT_EQ(forecast.GetInt("steps"), count) << entity;
  }
}

}  // namespace
}  // namespace tgcrn
