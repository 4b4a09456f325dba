// Copyright 2026 TGCRN Reproduction Authors
#include "serve.h"

#include <algorithm>
#include <climits>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "common/rng.h"
#include "datagen/metro_sim.h"
#include "obs/json.h"
#include "spans.h"
#include "stats.h"

namespace tgbench {
namespace {

constexpr uint64_t kServeModelSeed = 31337;
// The phase A arrival times and entity draws are part of the workload and
// fixed across seeds: a latency tail is set by which arrivals collide, and
// a seeded schedule made the p99 swing by half between seeds. The seed
// still picks the observation stream and each entity's offset in it.
constexpr uint64_t kArrivalSeed = 0xa4093822299f31d0ULL;
constexpr int64_t kNodes = 32;
constexpr int64_t kDims = 2;
constexpr int64_t kHorizon = 12;
constexpr int64_t kStepsPerDay = 72;
constexpr int kEntities = 32;
constexpr int kConnections = 4;  // entity e is pinned to e % kConnections
constexpr int kInflight = 8;     // phase B, per connection
// Phase A arrivals per second, fleet-wide. At ~15 ms per forecast this
// keeps the server near 25% busy, so queueing does not multiply the
// host's timing noise into the tails.
constexpr double kRate = 60.0;
constexpr int64_t kWarmupPerEntity = 4;
// The traced run's phase A must hold >= 1000 observes (ten beyond p99)
// and >= 100 forecasts (ten beyond p90), since it reports the tails.
// Every entity's requests cycle 3 observes, 1 forecast, so any 1400
// arrivals hold >= 1050 observes and, with 32 entities, >= 326 forecasts.
constexpr int64_t kMinPhaseARequests = 1400;
// Requests of the traced 1-connection, 1-in-flight phase.
constexpr int64_t kTracedRequests = 240;
// Phase A is invalid when the generator's p99 lateness exceeds this.
constexpr double kMaxGeneratorLateMs = 2.0;
constexpr int64_t kForecastEvery = 4;  // 3 observes, then a forecast

std::string EntityName(int e) {
  std::string name = "e";
  name += std::to_string(e);
  return name;
}

double ElapsedUs(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) / 1e3;
}

// Prints a phase A latency percentile with its sample count and returns
// it; a tail needs kMinSamplesBeyondTail samples beyond it.
double PrintPercentile(RunResult* result, const std::string& name,
                       const std::vector<double>& samples, double q,
                       bool tail) {
  const Percentile p = ExactPercentile(samples, q);
  std::printf("%-24s %10.4f ms  (n=%lld, beyond=%lld)\n", name.c_str(),
              p.value, static_cast<long long>(p.count),
              static_cast<long long>(p.beyond));
  if (p.count == 0 || (tail && !p.supported())) {
    result->Fail(name + " lacks samples beyond it");
  }
  return p.value;
}

}  // namespace

ServeSection::ServeSection(int64_t graph_topk, uint64_t seed)
    : arrivals_(kArrivalSeed) {
  tgcrn::datagen::MetroSimConfig sim;
  sim.num_stations = kNodes;
  sim.num_days = 7;
  sim.steps_per_day = kStepsPerDay;
  sim.seed = seed ^ 0x243f6a8885a308d3ULL;
  sim.keep_od_ground_truth = false;
  tgcrn::datagen::MetroSimOutput out = tgcrn::datagen::SimulateMetro(sim);
  values_ = out.data.values;
  slot_of_day_ = out.data.slot_of_day;
  const int64_t rows = values_.size(0);
  scaler_.Fit(values_, rows * 7 / 10);
  for (int64_t t = 0; t < rows; ++t) {
    const float* v = values_.data() + t * kNodes * kDims;
    std::string text = "[";
    for (int64_t n = 0; n < kNodes; ++n) {
      text += n > 0 ? ",[" : "[";
      for (int64_t f = 0; f < kDims; ++f) {
        char num[32];
        std::snprintf(num, sizeof num, "%.9g", v[n * kDims + f]);
        if (f > 0) text += ",";
        text += num;
      }
      text += "]";
    }
    row_json_.push_back(text + "]");
  }
  tgcrn::Rng rng(seed ^ 0x13198a2e03707344ULL);
  entities_.resize(kEntities);
  for (Entity& entity : entities_) {
    entity.offset = static_cast<int64_t>(rng.NextUint64() % rows);
  }

  tgcrn::core::TGCRNConfig config;
  config.num_nodes = kNodes;
  config.input_dim = kDims;
  config.output_dim = kDims;
  config.horizon = kHorizon;
  config.steps_per_day = kStepsPerDay;
  config.graph_topk = graph_topk;
  tgcrn::Rng model_rng(kServeModelSeed);
  model_ = std::make_unique<tgcrn::core::TGCRN>(config, &model_rng);
  session_ = std::make_unique<tgcrn::serve::InferenceSession>(
      model_.get(), scaler_, tgcrn::serve::SessionConfig{});
  server_ = std::make_unique<tgcrn::serve::Server>(session_.get(), 0);
  std::string error;
  if (!server_->Start(&error)) throw std::runtime_error("server: " + error);
  server_thread_ = std::thread([this] { server_->Run(); });
  try {
    if (!client_.Connect(server_->port(), kConnections, &error)) {
      throw std::runtime_error("client: " + error);
    }
    ClosedLoop(AllConnections(), kInflight, LLONG_MAX,
               kWarmupPerEntity * kEntities / kConnections, kWarmup);
  } catch (...) {
    Stop();
    throw;
  }
}

ServeSection::~ServeSection() { Stop(); }

void ServeSection::Stop() {
  if (server_thread_.joinable()) {
    server_->RequestStop();
    server_thread_.join();
  }
}

std::vector<int> ServeSection::AllConnections() const {
  std::vector<int> all;
  for (int c = 0; c < kConnections; ++c) all.push_back(c);
  return all;
}

size_t ServeSection::NextRequest(int e, Phase phase) {
  Entity& entity = entities_[e];
  Request request;
  request.conn = e % kConnections;
  request.entity = e;
  request.phase = phase;
  request.id = static_cast<int64_t>(log_.size()) + 1;
  const std::string head = "{\"id\":" + std::to_string(request.id) +
                           ",\"entity\":\"" + EntityName(e) + "\"";
  if (entity.sent % kForecastEvery == kForecastEvery - 1) {
    request.op = Op::kForecast;
    request.expect_steps = entity.observes;
    request.line = head + ",\"op\":\"forecast\"}";
  } else {
    request.op = Op::kObserve;
    request.row = (entity.offset + entity.observes) % values_.size(0);
    request.slot = slot_of_day_[request.row];
    request.expect_steps = ++entity.observes;
    request.line = head + ",\"op\":\"observe\",\"slot\":" +
                   std::to_string(request.slot) +
                   ",\"values\":" + row_json_[request.row] + "}";
  }
  ++entity.sent;
  log_.push_back(std::move(request));
  return log_.size() - 1;
}

size_t ServeSection::Stats(Phase phase) {
  Request request;
  request.op = Op::kStats;
  request.phase = phase;
  request.id = static_cast<int64_t>(log_.size()) + 1;
  request.line = "{\"op\":\"stats\",\"id\":" + std::to_string(request.id) + "}";
  log_.push_back(std::move(request));
  const size_t index = log_.size() - 1;
  bool sent = false;
  client_.RunClosedLoop(&log_, {0}, 1, LLONG_MAX, [&](int) -> int64_t {
    if (sent) return -1;
    sent = true;
    return static_cast<int64_t>(index);
  });
  return index;
}

void ServeSection::ClosedLoop(const std::vector<int>& conns, int inflight,
                              int64_t end_ns, int64_t per_conn, Phase phase) {
  std::vector<int64_t> issued(kConnections, 0);
  client_.RunClosedLoop(&log_, conns, inflight, end_ns, [&](int c) -> int64_t {
    if (per_conn >= 0 && issued[c] >= per_conn) return -1;
    // Entities c, c + C, c + 2C, ... share connection c.
    constexpr int kOnConn = kEntities / kConnections;
    const int e = c + static_cast<int>(issued[c] % kOnConn) * kConnections;
    ++issued[c];
    return static_cast<int64_t>(NextRequest(e, phase));
  });
}

void ServeSection::PhaseA(int64_t requests) {
  tgcrn::Rng& rng = arrivals_;
  std::vector<size_t> order;
  double t = 0.0;
  for (int64_t i = 0; i < requests; ++i) {
    t += -std::log(1.0 - rng.NextDouble()) / kRate;
    const int e = static_cast<int>(rng.NextUint64() % kEntities);
    const size_t index = NextRequest(e, kPhaseA);
    log_[index].due_ns = static_cast<int64_t>(t * 1e9);
    order.push_back(index);
  }
  const int64_t start = NowNs() + 1'000'000;
  for (size_t index : order) log_[index].due_ns += start;
  client_.RunOpenLoop(&log_, order);
}

std::vector<float> ServeSection::ObservationValues(int64_t row) const {
  const int64_t n = kNodes * kDims;
  const float* v = values_.data() + row * n;
  return std::vector<float>(v, v + n);
}

std::vector<double> ServeSection::LatenciesMs(Phase phase, Op op) const {
  std::vector<double> out;
  for (const Request& r : log_) {
    if (r.phase != phase || r.op != op || r.recv_ns == 0) continue;
    const int64_t from = r.due_ns > 0 ? r.due_ns : r.sent_ns;
    out.push_back(static_cast<double>(r.recv_ns - from) / 1e6);
  }
  return out;
}

double ServeSection::GeneratorLateP99Ms() const {
  std::vector<double> late;
  for (const Request& r : log_) {
    if (r.phase == kPhaseA && r.op != Op::kStats) {
      late.push_back(static_cast<double>(r.sent_ns - r.due_ns) / 1e6);
    }
  }
  const double p99 = ExactPercentile(late, 99.0).value;
  std::printf("phase A generator late p99 %.4f ms: %s\n", p99,
              p99 <= kMaxGeneratorLateMs ? "valid" : "INVALID");
  return p99;
}

int64_t ServeSection::Verify() {
  int64_t failed = client_.unexpected_lines();
  std::vector<char> bad(log_.size(), 0);
  auto fail = [&](size_t i, const std::string& why) {
    if (bad[i]) return;
    bad[i] = 1;
    if (++failed <= 5) {
      std::fprintf(stderr, "tgbench: request id %lld: %s\n",
                   static_cast<long long>(log_[i].id), why.c_str());
    }
  };
  std::string why;
  for (size_t i = 0; i < log_.size(); ++i) {
    const Request& r = log_[i];
    const bool ok =
        r.op == Op::kStats      ? CheckOkLine(r.response, r.id, &why)
        : r.op == Op::kObserve  ? CheckObserveResponse(r.response, r.id,
                                                       r.expect_steps, &why)
                                : true;  // forecasts: against the replay
    if (!ok) fail(i, why);
  }

  // The reference replay: the same model, a fresh session, each entity's
  // requests in its send order. Entities are independent, so requests of
  // different entities are batched into rounds (the session's results do
  // not depend on batch composition); the traced phase runs one request
  // at a time so each can be timed.
  Stop();
  server_.reset();
  session_.reset();
  tgcrn::serve::InferenceSession replay(model_.get(), scaler_,
                                        tgcrn::serve::SessionConfig{});
  const int64_t grid = kHorizon * kNodes * kDims;
  auto check_forecast = [&](size_t i, const float* expected) {
    const Request& r = log_[i];
    if (!CheckForecastResponse(r.response, r.id, r.expect_steps, expected,
                               grid, &why)) {
      fail(i, why);
    }
  };
  std::vector<std::vector<size_t>> lists(kEntities);
  for (size_t i = 0; i < log_.size(); ++i) {
    if (log_[i].op != Op::kStats) lists[log_[i].entity].push_back(i);
  }
  std::vector<size_t> cursor(kEntities, 0);
  auto next_of = [&](int e, Op op) -> int64_t {
    if (cursor[e] >= lists[e].size()) return -1;
    const Request& r = log_[lists[e][cursor[e]]];
    if (r.phase == kTraced || r.op != op) return -1;
    return static_cast<int64_t>(lists[e][cursor[e]++]);
  };
  for (;;) {
    std::vector<tgcrn::serve::Observation> observations;
    std::vector<size_t> observed;
    for (int e = 0; e < kEntities; ++e) {
      const int64_t i = next_of(e, Op::kObserve);
      if (i < 0) continue;
      observations.push_back({EntityName(e), log_[i].slot,
                              ObservationValues(log_[i].row)});
      observed.push_back(static_cast<size_t>(i));
    }
    if (!observations.empty()) {
      const auto res = replay.Observe(observations);
      for (size_t k = 0; k < observed.size(); ++k) {
        if (res.steps[k] != log_[observed[k]].expect_steps) {
          fail(observed[k], "reference replay step count differs");
        }
      }
    }
    std::vector<std::string> names;
    std::vector<size_t> forecasted;
    for (int e = 0; e < kEntities; ++e) {
      const int64_t i = next_of(e, Op::kForecast);
      if (i < 0) continue;
      names.push_back(EntityName(e));
      forecasted.push_back(static_cast<size_t>(i));
    }
    if (!names.empty()) {
      tgcrn::Tensor out;
      std::vector<int64_t> steps;
      replay.Forecast(names, &out, &steps);
      for (size_t k = 0; k < forecasted.size(); ++k) {
        check_forecast(forecasted[k], out.data() + k * grid);
      }
    }
    if (observations.empty() && names.empty()) break;
  }
  session_us_.assign(log_.size(), 0.0);
  for (size_t i = 0; i < log_.size(); ++i) {
    const Request& r = log_[i];
    if (r.phase != kTraced || r.op == Op::kStats) continue;
    const int64_t start = NowNs();
    if (r.op == Op::kObserve) {
      replay.Observe({{EntityName(r.entity), r.slot, ObservationValues(r.row)}});
      session_us_[i] = ElapsedUs(start);
    } else {
      tgcrn::Tensor out;
      std::vector<int64_t> steps;
      replay.Forecast({EntityName(r.entity)}, &out, &steps);
      session_us_[i] = ElapsedUs(start);
      check_forecast(i, out.data());
    }
  }
  return failed;
}

void ServeSection::Run(double seconds,
                       const std::function<void()>& between_rounds,
                       RunResult* result) {
  // Phase A segments and phase B windows take turns, so both phases
  // sample the same stretch of time (and the same slow spells of the
  // host). Each segment's open-loop schedule starts from an idle server.
  const int64_t a_requests = std::llround(kRate * 0.7 * seconds);
  const int64_t window_ns =
      static_cast<int64_t>(0.3 * seconds / kRounds * 1e9);
  std::vector<double> rates;
  for (int round = 0; round < kRounds; ++round) {
    PhaseA(a_requests * (round + 1) / kRounds - a_requests * round / kRounds);
    const int64_t b_start = NowNs();
    const int64_t b_end = b_start + window_ns;
    ClosedLoop(AllConnections(), kInflight, b_end, -1, kPhaseB);
    int64_t completed = 0;
    for (const Request& r : log_) {
      if (r.phase == kPhaseB && r.recv_ns > b_start && r.recv_ns <= b_end) {
        ++completed;
      }
    }
    rates.push_back(static_cast<double>(completed) / (window_ns / 1e9));
    between_rounds();
  }
  result->CountOps(static_cast<int64_t>(log_.size()), Verify());

  GeneratorLateP99Ms();
  // On a shared host the server runs in fast and slow spells of seconds:
  // forecasts take about 9.5 or 14.5 ms, and phase B windows complete
  // about 430 or 260 req/s. The share of each spell changes from run to
  // run, and over 12-16 runs per set the forecast latency spread by up to
  // 28% with every statistic tried (p10, p50, trimmed means, per-segment
  // medians), wider than the largest bound an end-to-end metric may
  // carry. The forecast figures are printed here and reported by the
  // traced run; forecasts make most of phase B's work, so the gated
  // throughput carries the forecast path. Its slowest window, the rate
  // the server sustained throughout, spread by 7-15%; the median window
  // by 7-29%, the best window by 8-20%.
  const std::vector<double> observe = LatenciesMs(kPhaseA, Op::kObserve);
  const std::vector<double> forecast = LatenciesMs(kPhaseA, Op::kForecast);
  result->Add("serve.observe.p50_ms",
              PrintPercentile(result, "serve.observe.p50_ms", observe, 50.0,
                              false),
              "ms");
  PrintPercentile(result, "serve.observe.p99_ms", observe, 99.0, false);
  PrintPercentile(result, "serve.forecast.p50_ms", forecast, 50.0, false);
  PrintPercentile(result, "serve.forecast.p90_ms", forecast, 90.0, false);
  std::printf("phase B windows (req/s):");
  for (double rate : rates) std::printf(" %.0f", rate);
  std::printf("\n");
  result->Add("serve.sustained_rps",
              *std::min_element(rates.begin(), rates.end()), "req/s");
}

void ServeSection::RunTraced(RunResult* result) {
  const size_t stats_before = Stats(kPhaseA);
  PhaseA(kMinPhaseARequests);
  const size_t stats_after = Stats(kPhaseA);
  ClosedLoop({0}, 1, LLONG_MAX, kTracedRequests, kTraced);
  result->CountOps(static_cast<int64_t>(log_.size()), Verify());

  // Unloaded round trip minus the session time of the same request.
  std::vector<double> session_observe, session_forecast, proto_observe,
      proto_forecast, forecast_bytes;
  for (size_t i = 0; i < log_.size(); ++i) {
    const Request& r = log_[i];
    if (r.op == Op::kForecast && r.phase == kPhaseA) {
      forecast_bytes.push_back(static_cast<double>(r.response.size() + 1));
    }
    if (r.phase != kTraced || r.recv_ns == 0 || r.op == Op::kStats) continue;
    const double rtt_us = static_cast<double>(r.recv_ns - r.sent_ns) / 1e3;
    const bool obs = r.op == Op::kObserve;
    (obs ? session_observe : session_forecast).push_back(session_us_[i]);
    (obs ? proto_observe : proto_forecast).push_back(rtt_us - session_us_[i]);
  }
  result->Add("serve.session.observe_us", Median(session_observe), "us");
  result->Add("serve.session.forecast_us", Median(session_forecast), "us");
  result->Add("serve.protocol.observe_us", Median(proto_observe), "us");
  result->Add("serve.protocol.forecast_us", Median(proto_forecast), "us");
  result->Add("serve.forecast_response_bytes", Median(forecast_bytes),
              "bytes");

  tgcrn::obs::Json before, after;
  tgcrn::obs::Json::Parse(log_[stats_before].response, &before);
  tgcrn::obs::Json::Parse(log_[stats_after].response, &after);
  const double hits = static_cast<double>(after["cache"].GetInt("hits") -
                                          before["cache"].GetInt("hits"));
  const double misses = static_cast<double>(after["cache"].GetInt("misses") -
                                            before["cache"].GetInt("misses"));
  result->Add("serve.cache_hit_ratio",
              hits + misses > 0.0 ? hits / (hits + misses) : 0.0, "ratio");
  result->Add("serve.steady_allocations",
              static_cast<double>(after.GetInt("tensor_allocations_delta")),
              "count");
  result->Add("serve.gen_late_ms.p99", GeneratorLateP99Ms(), "ms");
  result->Add("serve.observe.p99_ms",
              PrintPercentile(result, "serve.observe.p99_ms",
                              LatenciesMs(kPhaseA, Op::kObserve), 99.0, true),
              "ms");
  const std::vector<double> forecast = LatenciesMs(kPhaseA, Op::kForecast);
  result->Add("serve.forecast.p50_ms",
              PrintPercentile(result, "serve.forecast.p50_ms", forecast, 50.0,
                              false),
              "ms");
  result->Add("serve.forecast.p90_ms",
              PrintPercentile(result, "serve.forecast.p90_ms", forecast, 90.0,
                              true),
              "ms");
}

}  // namespace tgbench
