// Copyright 2026 TGCRN Reproduction Authors
// Tests of the request-level serving telemetry (src/serve/telemetry.h):
// trace finalization monotonicity, ring wrap-around, the access-log
// exactly-once and schema contracts, the slow-request exemplar buffer,
// drift-monitor residual math, and the observability flush hook that
// makes aborted servers leave a complete log.
#include "serve/telemetry.h"

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "core/tgcrn.h"
#include "datagen/metro_sim.h"
#include "obs/json.h"
#include "obs/trace.h"
#include "serve/session.h"

namespace tgcrn {
namespace {

constexpr int64_t kHorizon = 2;

class ServeTelemetryFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    datagen::MetroSimConfig config;
    config.num_stations = 5;
    config.num_days = 7;
    config.seed = 23;
    config.keep_od_ground_truth = false;
    auto sim = datagen::SimulateMetro(config);
    raw_ = new data::SpatioTemporalData(std::move(sim.data));
    scaler_ = new data::StandardScaler();
    scaler_->Fit(raw_->values, raw_->num_steps() * 7 / 10);

    core::TGCRNConfig model_config;
    model_config.num_nodes = raw_->num_nodes();
    model_config.input_dim = raw_->num_features();
    model_config.output_dim = raw_->num_features();
    model_config.horizon = kHorizon;
    model_config.hidden_dim = 8;
    model_config.steps_per_day = raw_->steps_per_day;
    rng_ = new Rng(31);
    model_ = new core::TGCRN(model_config, rng_);
    session_ = new serve::InferenceSession(model_, *scaler_,
                                           serve::SessionConfig());
  }
  static void TearDownTestSuite() {
    delete session_;
    delete model_;
    delete rng_;
    delete scaler_;
    delete raw_;
    session_ = nullptr;
    model_ = nullptr;
    rng_ = nullptr;
    scaler_ = nullptr;
    raw_ = nullptr;
  }

  static std::string TempPath(const std::string& name) {
    return (std::filesystem::temp_directory_path() / name).string();
  }

  static std::vector<obs::Json> ReadLogLines(const std::string& path) {
    std::vector<obs::Json> lines;
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty()) continue;
      obs::Json entry;
      std::string error;
      EXPECT_TRUE(obs::Json::Parse(line, &entry, &error))
          << "unparseable log line: " << line << " (" << error << ")";
      lines.push_back(std::move(entry));
    }
    return lines;
  }

  // A plausible fully-stamped trace taking `total_us` end to end.
  static serve::RequestTrace MakeTrace(int64_t id, int64_t total_us) {
    serve::RequestTrace trace;
    trace.Reset();
    trace.id = id;
    trace.op = serve::kOpObserve;
    trace.entity_count = 1;
    trace.batch_width = 1;
    trace.start_ns = 1000;
    const int64_t step = total_us * 1000 / serve::kServeStageCount;
    for (int s = 0; s < serve::kServeStageCount; ++s) {
      trace.Stamp(s, trace.start_ns + (s + 1) * step);
    }
    return trace;
  }

  static data::SpatioTemporalData* raw_;
  static data::StandardScaler* scaler_;
  static Rng* rng_;
  static core::TGCRN* model_;
  static serve::InferenceSession* session_;
};

data::SpatioTemporalData* ServeTelemetryFixture::raw_ = nullptr;
data::StandardScaler* ServeTelemetryFixture::scaler_ = nullptr;
Rng* ServeTelemetryFixture::rng_ = nullptr;
core::TGCRN* ServeTelemetryFixture::model_ = nullptr;
serve::InferenceSession* ServeTelemetryFixture::session_ = nullptr;

// ----------------------------------------------------- RequestTrace/ring --

TEST(RequestTraceTest, FinalizeMakesOffsetsMonotoneNonDecreasing) {
  serve::RequestTrace trace;
  trace.Reset();
  trace.start_ns = 100;
  // Stamp only some stages, deliberately out of a full lifecycle:
  // read at +10us, kernel at +50us, flush at +60us.
  trace.Stamp(serve::kStageRead, 100 + 10000);
  trace.Stamp(serve::kStageKernel, 100 + 50000);
  trace.Stamp(serve::kStageFlush, 100 + 60000);
  trace.Finalize();
  int64_t prev = 0;
  for (int s = 0; s < serve::kServeStageCount; ++s) {
    EXPECT_GE(trace.stage_ns[s], prev) << "stage " << s;
    prev = trace.stage_ns[s];
  }
  // Unset stages inherit the previous offset (zero duration)...
  EXPECT_EQ(trace.stage_ns[serve::kStageParse], 10000);
  EXPECT_EQ(trace.stage_ns[serve::kStageBatchWait], 10000);
  EXPECT_EQ(trace.stage_ns[serve::kStageGather], 10000);
  EXPECT_EQ(trace.stage_ns[serve::kStageScatter], 50000);
  EXPECT_EQ(trace.stage_ns[serve::kStageSerialize], 50000);
  // ...and the total is the final stage's offset.
  EXPECT_EQ(trace.total_ns(), 60000);
}

TEST(RpcTraceRingTest, WrapsOverwritingOldestAndKeepsCounting) {
  serve::RpcTraceRing ring(3);
  for (int64_t id = 1; id <= 5; ++id) {
    serve::RequestTrace trace;
    trace.id = id;
    ring.Push(trace);
  }
  EXPECT_EQ(ring.capacity(), 3);
  EXPECT_EQ(ring.size(), 3);
  EXPECT_EQ(ring.total(), 5);
  // Oldest-first iteration over the retained window: ids 3, 4, 5.
  EXPECT_EQ(ring.At(0).id, 3);
  EXPECT_EQ(ring.At(1).id, 4);
  EXPECT_EQ(ring.At(2).id, 5);
  ring.Clear();
  EXPECT_EQ(ring.size(), 0);
  EXPECT_EQ(ring.total(), 0);
}

// ------------------------------------------------------- ServeTelemetry --

TEST_F(ServeTelemetryFixture, AccessLogWritesEachRequestExactlyOnce) {
  const std::string path = TempPath("tgcrn_telemetry_test.access.jsonl");
  std::filesystem::remove(path);
  {
    serve::TelemetryConfig config;
    config.access_log_path = path;
    serve::ServeTelemetry telemetry(config, session_);
    ASSERT_TRUE(telemetry.armed());
    EXPECT_TRUE(serve::RpcTracingArmed());
    for (int64_t i = 0; i < 10; ++i) {
      serve::RequestTrace trace =
          MakeTrace(telemetry.NextRequestId(), /*total_us=*/100 + i);
      telemetry.RecordRequest(&trace);
    }
    EXPECT_EQ(telemetry.requests_recorded(), 10);
  }  // destructor flushes and closes
  EXPECT_FALSE(serve::RpcTracingArmed());

  const std::vector<obs::Json> lines = ReadLogLines(path);
  std::unordered_set<long long> ids;
  int64_t request_lines = 0;
  for (const obs::Json& entry : lines) {
    if (entry.GetString("type") != "request") continue;
    ++request_lines;
    EXPECT_TRUE(ids.insert(entry.GetInt("id")).second)
        << "duplicate id " << entry.GetInt("id");
    EXPECT_EQ(entry.GetString("op"), "observe");
    EXPECT_EQ(entry.GetString("status"), "ok");
    EXPECT_TRUE(entry.Has("total_us"));
    // Cumulative stage offsets are monotone non-decreasing in lifecycle
    // order — the wire-format pin of the Finalize contract.
    const obs::Json& stage_us = entry["stage_us"];
    ASSERT_TRUE(stage_us.is_object());
    int64_t prev = 0;
    for (int s = 0; s < serve::kServeStageCount; ++s) {
      const char* name = serve::ServeStageName(s);
      ASSERT_TRUE(stage_us.Has(name)) << name;
      EXPECT_GE(stage_us.GetInt(name), prev) << name;
      prev = stage_us.GetInt(name);
    }
  }
  EXPECT_EQ(request_lines, 10);
  std::filesystem::remove(path);
}

TEST_F(ServeTelemetryFixture, SlowBufferKeepsExemplarsAndDumpsOnFlush) {
  const std::string path = TempPath("tgcrn_telemetry_test.slow.jsonl");
  std::filesystem::remove(path);
  {
    serve::TelemetryConfig config;
    config.access_log_path = path;
    config.slow_us = 500;
    serve::ServeTelemetry telemetry(config, session_);
    // Two fast, then three more slow requests than the ring holds: the
    // bounded buffer keeps the newest kSlowCapacity.
    const int64_t slow_requests = serve::kSlowCapacity + 3;
    std::vector<int64_t> totals = {100, 200};
    for (int64_t i = 0; i < slow_requests; ++i) totals.push_back(600 + i);
    for (int64_t total_us : totals) {
      serve::RequestTrace trace =
          MakeTrace(telemetry.NextRequestId(), total_us);
      telemetry.RecordRequest(&trace);
    }
    EXPECT_EQ(telemetry.slow_count(), slow_requests);
    const obs::Json slow = telemetry.SlowRequestsJson();
    // Capacity-bounded, oldest evicted: the first retained is the fourth.
    ASSERT_EQ(slow.size(), static_cast<size_t>(serve::kSlowCapacity));
    EXPECT_EQ(slow.at(0).GetInt("total_us"), 603);
    for (size_t i = 1; i < slow.size(); ++i) {
      EXPECT_GT(slow.at(i).GetInt("total_us"),
                slow.at(i - 1).GetInt("total_us"));
    }
    // Stage histograms are global/cumulative; this run added its samples.
    const obs::Json stages = telemetry.StageStatsJson();
    EXPECT_GE(stages["kernel"].GetInt("count"),
              static_cast<int64_t>(totals.size()));
  }
  // The flush dumped the retained exemplars as {"type":"slow"} lines.
  int64_t slow_lines = 0;
  for (const obs::Json& entry : ReadLogLines(path)) {
    if (entry.GetString("type") == "slow") ++slow_lines;
  }
  EXPECT_EQ(slow_lines, serve::kSlowCapacity);
  std::filesystem::remove(path);
}

TEST_F(ServeTelemetryFixture, ObservabilityFlushHookCompletesTheLog) {
  const std::string path = TempPath("tgcrn_telemetry_test.abort.jsonl");
  std::filesystem::remove(path);
  serve::TelemetryConfig config;
  config.access_log_path = path;
  serve::ServeTelemetry telemetry(config, session_);
  serve::RequestTrace trace = MakeTrace(telemetry.NextRequestId(), 100);
  telemetry.RecordRequest(&trace);
  // The path a CHECK failure or SIGTERM takes: the registered hook must
  // flush and close the access log without touching the telemetry object
  // directly.
  obs::FlushObservability();
  const std::vector<obs::Json> lines = ReadLogLines(path);
  int64_t request_lines = 0;
  for (const obs::Json& entry : lines) {
    if (entry.GetString("type") == "request") ++request_lines;
  }
  EXPECT_EQ(request_lines, 1);
  std::filesystem::remove(path);
}

TEST_F(ServeTelemetryFixture, DisarmedConfigRecordsNothing) {
  serve::TelemetryConfig config;  // no access log, no slow threshold
  serve::ServeTelemetry telemetry(config, session_);
  EXPECT_FALSE(telemetry.armed());
  EXPECT_FALSE(serve::RpcTracingArmed());
}

// --------------------------------------------------------- DriftMonitor --

TEST_F(ServeTelemetryFixture, DriftMonitorMatchesHorizonsWithExactResiduals) {
  serve::DriftMonitor drift(session_);

  const core::TGCRNConfig& mc = session_->model_config();
  const int64_t nd = mc.num_nodes * mc.output_dim;
  // Forecast grid: horizon 1 predicts 10.0 everywhere, horizon 2
  // predicts 20.0 everywhere.
  std::vector<float> grid(static_cast<size_t>(kHorizon * nd));
  for (int64_t j = 0; j < nd; ++j) grid[j] = 10.0f;
  for (int64_t j = 0; j < nd; ++j) grid[nd + j] = 20.0f;
  // Each round forecasts at `steps`, then observes steps + 1 = horizon 1,
  // off by +2 everywhere, and steps + 2 = horizon 2, off by -3
  // everywhere: two matches per round, so kDriftEvery / 2 rounds fill
  // one block.
  std::vector<float> ob1(static_cast<size_t>(nd), 12.0f);
  std::vector<float> ob2(static_cast<size_t>(nd), 17.0f);
  const int64_t rounds = serve::kDriftEvery / kHorizon;
  for (int64_t r = 0; r < rounds; ++r) {
    const int64_t steps = 5 + r * kHorizon;
    drift.RecordForecast("hz", steps, grid.data());
    drift.RecordObservation("hz", steps + 1, 0, ob1.data());
    if (r + 1 == rounds) {
      EXPECT_FALSE(drift.BlockDue()) << "one match short";
    }
    drift.RecordObservation("hz", steps + 2, 1, ob2.data());
  }
  EXPECT_TRUE(drift.HasData());
  EXPECT_TRUE(drift.BlockDue());

  obs::Json block = drift.Block();
  EXPECT_EQ(block.GetString("type"), "drift");
  EXPECT_EQ(block.GetInt("observations"), serve::kDriftEvery);
  EXPECT_EQ(block.GetInt("matched"), serve::kDriftEvery);
  EXPECT_DOUBLE_EQ(block.GetDouble("coverage"), 1.0);
  const obs::Json& horizons = block["horizons"];
  ASSERT_EQ(horizons.size(), static_cast<size_t>(kHorizon));
  EXPECT_EQ(horizons.at(0).GetInt("h"), 1);
  EXPECT_EQ(horizons.at(0).GetInt("count"), rounds);
  EXPECT_DOUBLE_EQ(horizons.at(0).GetDouble("mae"), 2.0);
  EXPECT_DOUBLE_EQ(horizons.at(0).GetDouble("rmse"), 2.0);
  EXPECT_EQ(horizons.at(1).GetInt("count"), rounds);
  EXPECT_DOUBLE_EQ(horizons.at(1).GetDouble("mae"), 3.0);
  EXPECT_DOUBLE_EQ(horizons.at(1).GetDouble("rmse"), 3.0);

  // The window resets after emission; totals keep accumulating.
  EXPECT_FALSE(drift.BlockDue());
  obs::Json next = drift.Block();
  EXPECT_EQ(next.GetInt("observations"), 0);
  EXPECT_EQ(next.GetInt("total_matched"), serve::kDriftEvery);
  EXPECT_EQ(next.GetInt("block"), 1);
}

TEST_F(ServeTelemetryFixture, DriftMonitorStopsMatchingPastTheLastHorizon) {
  serve::DriftMonitor drift(session_);
  const core::TGCRNConfig& mc = session_->model_config();
  const int64_t nd = mc.num_nodes * mc.output_dim;
  std::vector<float> grid(static_cast<size_t>(kHorizon * nd), 1.0f);
  std::vector<float> ob(static_cast<size_t>(nd), 1.0f);
  drift.RecordForecast("hz", 5, grid.data());
  drift.RecordObservation("hz", 6, 0, ob.data());  // horizon 1
  drift.RecordObservation("hz", 7, 1, ob.data());  // horizon 2 (last)
  drift.RecordObservation("hz", 8, 2, ob.data());  // beyond: no match
  obs::Json block = drift.Block();
  EXPECT_EQ(block.GetInt("observations"), 3);
  EXPECT_EQ(block.GetInt("matched"), 2);
}

TEST_F(ServeTelemetryFixture, DriftBlockCarriesLiveGraphHealth) {
  serve::DriftMonitor drift(session_);
  const int64_t n = raw_->num_nodes();
  const int64_t d = raw_->num_features();
  // Two consecutive raw observations of one entity arm the graph probe.
  for (int64_t t = 0; t < 2; ++t) {
    drift.RecordObservation("probe", t + 1, raw_->slot_of_day[t],
                            raw_->values.data() + t * n * d);
  }
  obs::Json block = drift.Block();
  const obs::Json& graph = block["graph"];
  ASSERT_TRUE(graph.is_object()) << "probe armed, graph block expected";
  EXPECT_TRUE(graph.Has("row_entropy"));
  EXPECT_TRUE(graph.Has("sparsity"));

  // A single observation (probe depth 1) yields a null graph block.
  serve::DriftMonitor cold(session_);
  cold.RecordObservation("probe", 1, 0, raw_->values.data());
  EXPECT_TRUE(cold.Block()["graph"].is_null());
}

// TGCRN_SERVE_SLOW_US is a whole integer >= 0 (0 switches the slow
// buffer off), default when unset or empty. A partial, non-numeric or
// negative value stops the process naming the variable; atoll used to
// read "12abc" as 12 and turn "abc" and "-3" into the default.
TEST(TelemetryConfigEnvTest, ValidValuesAreRead) {
  setenv("TGCRN_SERVE_SLOW_US", "250", 1);
  EXPECT_EQ(serve::TelemetryConfig::FromEnv().slow_us, 250);
  unsetenv("TGCRN_SERVE_SLOW_US");
  EXPECT_EQ(serve::TelemetryConfig::FromEnv().slow_us,
            serve::TelemetryConfig().slow_us);
}

TEST(TelemetryConfigEnvDeathTest, MalformedValuesAbort) {
  for (const char* bad : {"12abc", "abc", "99999999999999999999"}) {
    EXPECT_DEATH(
        {
          setenv("TGCRN_SERVE_SLOW_US", bad, 1);
          (void)serve::TelemetryConfig::FromEnv();
        },
        "TGCRN_SERVE_SLOW_US=\".*\" is not an integer")
        << bad;
  }
  EXPECT_DEATH(
      {
        setenv("TGCRN_SERVE_SLOW_US", "-3", 1);
        (void)serve::TelemetryConfig::FromEnv();
      },
      "TGCRN_SERVE_SLOW_US=\"-3\" is outside \\[0, ");
}

}  // namespace
}  // namespace tgcrn
