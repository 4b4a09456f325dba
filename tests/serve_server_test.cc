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
#include <cstring>
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

  obs::Json ReadLine() {
    while (buffer_.find('\n') == std::string::npos) {
      char chunk[4096];
      const ssize_t got = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (got <= 0) break;
      buffer_.append(chunk, static_cast<size_t>(got));
    }
    const size_t newline = buffer_.find('\n');
    EXPECT_NE(newline, std::string::npos) << "no response line";
    const std::string line = buffer_.substr(0, newline);
    buffer_.erase(0, newline + 1);
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

}  // namespace
}  // namespace tgcrn
