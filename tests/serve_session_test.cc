// Copyright 2026 TGCRN Reproduction Authors
// Contract tests of the inference session (src/serve/session.h): a warm
// entity's forecast is bitwise-identical to a direct Forward over the
// same window (the model/runtime split is exact), the steady state makes
// zero tensor heap allocations, and the entity cache warms/evicts as
// documented in docs/SERVING.md.
#include "serve/session.h"

#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "autograd/variable.h"
#include "core/tgcrn.h"
#include "datagen/metro_sim.h"
#include "obs/metrics.h"
#include "tensor/buffer_pool.h"

namespace tgcrn {
namespace {

constexpr int64_t kInputSteps = 4;
constexpr int64_t kHorizon = 2;

class ServeSessionFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    datagen::MetroSimConfig config;
    config.num_stations = 6;
    config.num_days = 8;
    config.seed = 91;
    config.keep_od_ground_truth = false;
    auto sim = datagen::SimulateMetro(config);
    raw_ = new data::SpatioTemporalData(std::move(sim.data));
    scaler_ = new data::StandardScaler();
    scaler_->Fit(raw_->values, raw_->num_steps() * 7 / 10);
  }
  static void TearDownTestSuite() {
    delete raw_;
    delete scaler_;
    raw_ = nullptr;
    scaler_ = nullptr;
  }

  static core::TGCRNConfig SmallConfig() {
    core::TGCRNConfig config;
    config.num_nodes = raw_->num_nodes();
    config.input_dim = raw_->num_features();
    config.output_dim = raw_->num_features();
    config.horizon = kHorizon;
    config.hidden_dim = 8;
    config.num_layers = 2;
    config.node_embed_dim = 6;
    config.time_embed_dim = 4;
    config.steps_per_day = raw_->steps_per_day;
    return config;
  }

  // Assembles the eval Batch for the raw window starting at t0, scaled
  // the same way the serving session scales observations.
  static data::Batch WindowBatch(int64_t t0) {
    const int64_t n = raw_->num_nodes();
    const int64_t d = raw_->num_features();
    Tensor x({1, kInputSteps, n, d});
    std::memcpy(x.mutable_data(), raw_->values.data() + t0 * n * d,
                static_cast<size_t>(kInputSteps * n * d) * sizeof(float));
    data::Batch batch;
    batch.x = scaler_->Transform(x);
    batch.x_slots.push_back(std::vector<int64_t>());
    for (int64_t t = 0; t < kInputSteps; ++t) {
      batch.x_slots[0].push_back(raw_->slot_of_day[t0 + t]);
    }
    // Future slots exactly as the session derives them from the last
    // observed slot.
    const int64_t last = batch.x_slots[0].back();
    batch.y_slots.push_back(std::vector<int64_t>());
    for (int64_t q = 0; q < kHorizon; ++q) {
      batch.y_slots[0].push_back((last + 1 + q) % raw_->steps_per_day);
    }
    return batch;
  }

  static serve::Observation ObservationAt(const std::string& entity,
                                          int64_t t) {
    const int64_t n = raw_->num_nodes();
    const int64_t d = raw_->num_features();
    serve::Observation ob;
    ob.entity = entity;
    ob.slot = raw_->slot_of_day[t];
    ob.values.assign(raw_->values.data() + t * n * d,
                     raw_->values.data() + (t + 1) * n * d);
    return ob;
  }

  // Runs both paths over the window at t0 and expects bitwise equality.
  static void ExpectSessionMatchesForward(core::TGCRNConfig config,
                                          int64_t t0) {
    Rng rng(17);
    core::TGCRN model(config, &rng);
    model.SetTraining(false);

    data::Batch batch = WindowBatch(t0);
    Tensor direct;
    {
      ag::NoGradGuard no_grad;
      direct = scaler_->InverseTransform(model.Forward(batch).value());
    }

    serve::SessionConfig session_config;
    serve::InferenceSession session(&model, *scaler_, session_config);
    std::vector<serve::Observation> window;
    for (int64_t t = 0; t < kInputSteps; ++t) {
      window.push_back(ObservationAt("hz", t0 + t));
    }
    const auto observed = session.Observe(window);
    EXPECT_EQ(observed.steps.back(), kInputSteps);

    Tensor served;
    std::vector<int64_t> steps;
    session.Forecast({"hz"}, &served, &steps);
    ASSERT_EQ(steps[0], kInputSteps);

    ASSERT_EQ(served.numel(), direct.numel());
    EXPECT_EQ(std::memcmp(served.data(), direct.data(),
                          static_cast<size_t>(direct.numel()) *
                              sizeof(float)),
              0)
        << "serving path diverged from direct Forward";
  }

  static data::SpatioTemporalData* raw_;
  static data::StandardScaler* scaler_;
};

data::SpatioTemporalData* ServeSessionFixture::raw_ = nullptr;
data::StandardScaler* ServeSessionFixture::scaler_ = nullptr;

TEST_F(ServeSessionFixture, ForecastMatchesDirectForwardDense) {
  ExpectSessionMatchesForward(SmallConfig(), 10);
}

TEST_F(ServeSessionFixture, ForecastMatchesDirectForwardSparseTopK) {
  core::TGCRNConfig config = SmallConfig();
  config.graph_topk = 3;
  ExpectSessionMatchesForward(config, 10);
}

TEST_F(ServeSessionFixture, ForecastMatchesDirectForwardDirectHead) {
  core::TGCRNConfig config = SmallConfig();
  config.use_encoder_decoder = false;
  ExpectSessionMatchesForward(config, 20);
}

TEST_F(ServeSessionFixture, SteadyStateMakesZeroTensorAllocations) {
  Rng rng(5);
  core::TGCRN model(SmallConfig(), &rng);
  serve::InferenceSession session(&model, *scaler_, serve::SessionConfig());

  const std::vector<std::string> names = {"a", "b", "c", "d"};
  auto round = [&](int64_t t) {
    std::vector<serve::Observation> wave;
    for (const std::string& name : names) {
      wave.push_back(ObservationAt(name, t));
    }
    session.Observe(wave);
    Tensor out;
    std::vector<int64_t> steps;
    session.Forecast(names, &out, &steps);
  };
  for (int64_t t = 0; t < 3; ++t) round(t);  // warm-up

  auto* allocations =
      obs::Registry::Global().GetCounter("tensor.allocations");
  const int64_t before = allocations->Value();
  for (int64_t t = 3; t < 8; ++t) round(t);
  EXPECT_EQ(allocations->Value() - before, 0)
      << "steady-state serving must not touch the heap for tensors";
}

TEST_F(ServeSessionFixture, SteadyStateZeroAllocationsSparseTopK) {
  core::TGCRNConfig config = SmallConfig();
  config.graph_topk = 3;
  Rng rng(5);
  core::TGCRN model(config, &rng);
  serve::InferenceSession session(&model, *scaler_, serve::SessionConfig());

  auto round = [&](int64_t t) {
    std::vector<serve::Observation> wave = {ObservationAt("a", t),
                                            ObservationAt("b", t)};
    session.Observe(wave);
    Tensor out;
    std::vector<int64_t> steps;
    session.Forecast({"a", "b"}, &out, &steps);
  };
  for (int64_t t = 0; t < 3; ++t) round(t);

  auto* allocations =
      obs::Registry::Global().GetCounter("tensor.allocations");
  const int64_t before = allocations->Value();
  for (int64_t t = 3; t < 8; ++t) round(t);
  EXPECT_EQ(allocations->Value() - before, 0);
}

TEST_F(ServeSessionFixture, RepeatedEntityInOneCallAdvancesSequentially) {
  Rng rng(6);
  core::TGCRN model(SmallConfig(), &rng);
  serve::InferenceSession session(&model, *scaler_, serve::SessionConfig());

  std::vector<serve::Observation> wave = {ObservationAt("hz", 0),
                                          ObservationAt("hz", 1),
                                          ObservationAt("sh", 0)};
  const auto result = session.Observe(wave);
  EXPECT_EQ(result.steps[0], 1);
  EXPECT_EQ(result.steps[1], 2);  // second observation saw the first
  EXPECT_EQ(result.steps[2], 1);
  EXPECT_EQ(session.StepsFor("hz"), 2);
}

TEST_F(ServeSessionFixture, LruEvictionBoundsTheEntityCache) {
  Rng rng(7);
  core::TGCRN model(SmallConfig(), &rng);
  serve::SessionConfig config;
  config.max_entities = 2;
  serve::InferenceSession session(&model, *scaler_, config);

  session.Observe({ObservationAt("old", 0)});
  session.Observe({ObservationAt("mid", 1)});
  session.Observe({ObservationAt("old", 2)});  // refresh "old"
  const auto result = session.Observe({ObservationAt("new", 3)});
  EXPECT_EQ(result.evicted, 1);
  EXPECT_EQ(session.EntityCount(), 2);
  EXPECT_EQ(session.StepsFor("mid"), -1);  // LRU victim
  EXPECT_EQ(session.StepsFor("old"), 2);
  EXPECT_EQ(session.StepsFor("new"), 1);

  EXPECT_TRUE(session.Evict("new"));
  EXPECT_FALSE(session.Evict("new"));
  EXPECT_EQ(session.StepsFor("new"), -1);
}

TEST_F(ServeSessionFixture, ObserveBatchNeverEvictsItsOwnEntities) {
  Rng rng(9);
  core::TGCRN model(SmallConfig(), &rng);
  serve::SessionConfig config;
  config.max_entities = 2;
  serve::InferenceSession session(&model, *scaler_, config);

  session.Observe({ObservationAt("a", 0)});  // "a" becomes the LRU entity
  session.Observe({ObservationAt("b", 1)});
  // One batch holding the current LRU warm entity plus a new one: the
  // admission of "c" must evict "b", never the in-batch "a" (which the
  // wave is about to step — evicting it used to throw out_of_range).
  const auto result =
      session.Observe({ObservationAt("a", 2), ObservationAt("c", 2)});
  EXPECT_EQ(result.evicted, 1);
  EXPECT_EQ(result.steps[0], 2);
  EXPECT_EQ(result.steps[1], 1);
  EXPECT_EQ(session.StepsFor("a"), 2);
  EXPECT_EQ(session.StepsFor("b"), -1);  // the only legal victim
  EXPECT_EQ(session.StepsFor("c"), 1);
}

TEST_F(ServeSessionFixture, ObserveBatchWiderThanTheCacheChunksIntoWaves) {
  Rng rng(10);
  core::TGCRN model(SmallConfig(), &rng);
  serve::SessionConfig config;
  config.max_entities = 2;
  serve::InferenceSession session(&model, *scaler_, config);

  // More distinct new entities than the cache holds, in one call: waves
  // are capped at max_entities distinct entities, so this serves all
  // three observations and evicts the overflow instead of crashing.
  const auto result = session.Observe({ObservationAt("x", 0),
                                       ObservationAt("y", 0),
                                       ObservationAt("z", 0)});
  EXPECT_EQ(result.steps, (std::vector<int64_t>{1, 1, 1}));
  EXPECT_EQ(result.evicted, 1);
  EXPECT_EQ(session.EntityCount(), 2);
  EXPECT_EQ(session.StepsFor("x"), -1);  // LRU of the first wave
  EXPECT_EQ(session.StepsFor("y"), 1);
  EXPECT_EQ(session.StepsFor("z"), 1);
}

TEST_F(ServeSessionFixture, CacheCountersTrackAdmitHitEvictAndWaveShield) {
  Rng rng(11);
  core::TGCRN model(SmallConfig(), &rng);
  serve::SessionConfig config;
  config.max_entities = 2;
  serve::InferenceSession session(&model, *scaler_, config);

  // Counters are global and cumulative, so assert deltas.
  obs::Registry& reg = obs::Registry::Global();
  auto* hits = reg.GetCounter("serve.cache_hits");
  auto* misses = reg.GetCounter("serve.cache_misses");
  auto* evictions = reg.GetCounter("serve.evictions");
  auto* age = reg.GetHistogram("serve.eviction_age_ticks");
  const int64_t hits0 = hits->Value();
  const int64_t misses0 = misses->Value();
  const int64_t evictions0 = evictions->Value();
  const int64_t ages0 = age->Snapshot().count;

  session.Observe({ObservationAt("a", 0)});  // admit = miss
  session.Observe({ObservationAt("b", 1)});  // admit = miss
  EXPECT_EQ(misses->Value() - misses0, 2);
  EXPECT_EQ(hits->Value() - hits0, 0);

  session.Observe({ObservationAt("a", 2)});  // warm entity = hit
  EXPECT_EQ(hits->Value() - hits0, 1);
  EXPECT_EQ(evictions->Value() - evictions0, 0);

  // Admitting "c" evicts the LRU ("b") and observes its age in ticks.
  session.Observe({ObservationAt("c", 3)});
  EXPECT_EQ(misses->Value() - misses0, 3);
  EXPECT_EQ(evictions->Value() - evictions0, 1);
  EXPECT_EQ(age->Snapshot().count - ages0, 1);

  // Wave shield: the LRU entity "a" rides in the same batch as a new
  // one, so the victim must be "c" — and the counters must agree with
  // the protection ("a" still counts as a hit, "d" as a miss).
  const auto result =
      session.Observe({ObservationAt("a", 4), ObservationAt("d", 4)});
  EXPECT_EQ(result.evicted, 1);
  EXPECT_EQ(hits->Value() - hits0, 2);
  EXPECT_EQ(misses->Value() - misses0, 4);
  EXPECT_EQ(evictions->Value() - evictions0, 2);
  EXPECT_EQ(age->Snapshot().count - ages0, 2);
  EXPECT_EQ(session.StepsFor("c"), -1);
  EXPECT_EQ(session.StepsFor("a"), 3);
}

TEST_F(ServeSessionFixture, WaveTimingsCoverEveryObservationInOrder) {
  Rng rng(12);
  core::TGCRN model(SmallConfig(), &rng);
  serve::InferenceSession session(&model, *scaler_, serve::SessionConfig());

  // A repeated entity starts the next wave: two waves, and every
  // observation maps to the wave that actually served it.
  const auto result = session.Observe({ObservationAt("a", 0),
                                       ObservationAt("b", 0),
                                       ObservationAt("a", 1)});
  ASSERT_EQ(result.wave_index.size(), 3u);
  ASSERT_EQ(session.wave_timings().size(), 2u);
  EXPECT_EQ(result.wave_index[0], 0);
  EXPECT_EQ(result.wave_index[1], 0);
  EXPECT_EQ(result.wave_index[2], 1);
  EXPECT_EQ(session.wave_timings()[0].active, 2);
  EXPECT_EQ(session.wave_timings()[1].active, 1);
  for (const serve::WaveTiming& wave : session.wave_timings()) {
    // Stage boundaries are stamped in lifecycle order on one clock.
    EXPECT_GT(wave.start_ns, 0);
    EXPECT_LE(wave.start_ns, wave.gather_end_ns);
    EXPECT_LE(wave.gather_end_ns, wave.kernel_end_ns);
    EXPECT_LE(wave.kernel_end_ns, wave.scatter_end_ns);
  }

  // Forecast replaces the timing list; rows chunk into kWaveMax waves.
  const std::vector<std::string> rows(
      static_cast<size_t>(serve::kWaveMax) + 1, "a");
  Tensor out;
  std::vector<int64_t> steps;
  session.Forecast(rows, &out, &steps);
  ASSERT_EQ(session.wave_timings().size(), 2u);
  EXPECT_EQ(session.wave_timings()[0].active, serve::kWaveMax);
  EXPECT_EQ(session.wave_timings()[1].active, 1);
}

// Training and serving share one pool policy: the floor is one element for
// every caller, so a session neither changes it while alive nor leaves it
// changed behind — sub-256-element tensors keep recycling afterwards.
TEST_F(ServeSessionFixture, PoolFloorIsRestoredWhenTheSessionEnds) {
  TensorBufferPool& pool = TensorBufferPool::Global();
  {
    Rng rng(8);
    core::TGCRN model(SmallConfig(), &rng);
    serve::InferenceSession session(&model, *scaler_,
                                    serve::SessionConfig());
    session.Observe({ObservationAt("a", 0)});
  }
  { Tensor small = Tensor::Full({100}, 1.0f); }
  const auto before = pool.GetStats();
  Tensor again = Tensor::Zeros({100});
  EXPECT_EQ(pool.GetStats().hits, before.hits + 1)
      << "a sub-256-element tensor bypassed the pool after the session";
}

// TGCRN_SERVE_MAX_ENTITIES is a whole integer >= 1, default when unset
// or empty. A partial, non-numeric or non-positive value stops the
// process naming the variable; atoll used to read "12abc" as 12 and turn
// "abc" and "-3" into the default.
TEST(SessionConfigEnvTest, ValidValuesAreRead) {
  setenv("TGCRN_SERVE_MAX_ENTITIES", "7", 1);
  EXPECT_EQ(serve::SessionConfig::FromEnv().max_entities, 7);
  setenv("TGCRN_SERVE_MAX_ENTITIES", "", 1);
  EXPECT_EQ(serve::SessionConfig::FromEnv().max_entities,
            serve::SessionConfig().max_entities);
  unsetenv("TGCRN_SERVE_MAX_ENTITIES");
  EXPECT_EQ(serve::SessionConfig::FromEnv().max_entities,
            serve::SessionConfig().max_entities);
}

TEST(SessionConfigEnvDeathTest, MalformedValuesAbort) {
  for (const char* bad : {"12abc", "abc", "1.5"}) {
    EXPECT_DEATH(
        {
          setenv("TGCRN_SERVE_MAX_ENTITIES", bad, 1);
          (void)serve::SessionConfig::FromEnv();
        },
        "TGCRN_SERVE_MAX_ENTITIES=\".*\" is not an integer")
        << bad;
  }
  for (const char* bad : {"-3", "0"}) {
    EXPECT_DEATH(
        {
          setenv("TGCRN_SERVE_MAX_ENTITIES", bad, 1);
          (void)serve::SessionConfig::FromEnv();
        },
        "TGCRN_SERVE_MAX_ENTITIES=\".*\" is outside \\[1, ")
        << bad;
  }
}

}  // namespace
}  // namespace tgcrn
