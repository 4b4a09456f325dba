// Copyright 2026 TGCRN Reproduction Authors
// The serving section of a workload: an in-process serve::Server on an
// ephemeral loopback port, run on its own thread over an
// InferenceSession with the default SessionConfig and no telemetry, and
// one client thread (this one) driving it over 4 connections. Tensor
// kernels run at one thread throughout the section.
//
// Traffic: 32 entities, entity i pinned to connection i mod 4, each
// sending 3 observes (rows of a metro simulator stream) for every
// forecast. Phase A is an open loop of Poisson arrivals at 60 req/s
// fleet-wide, each request timed from its scheduled send time. Phase B is
// a closed loop with 8 requests in flight per connection. The traced run
// replaces phase B by a 1-connection, 1-in-flight phase whose round trips
// are compared with the session time of the same requests.
//
// Correctness: every request must get exactly one ok:true line echoing
// its id, observes must report the entity's step count, and every
// forecast must equal, bit for bit, a reference InferenceSession replay of
// the same per-entity requests made after the server stops.
#ifndef TGBENCH_SERVE_H_
#define TGBENCH_SERVE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/tgcrn.h"
#include "loadgen.h"
#include "result.h"
#include "serve/server.h"
#include "serve/session.h"
#include "tensor/tensor.h"

namespace tgbench {

class ServeSection {
 public:
  // Set-up: generates the observation stream from `seed`, builds the
  // model (dense TGCRN, N=32, d=2, horizon 12, fixed-seed weights; a
  // top-k sparse graph when graph_topk > 0) and session, starts the server
  // thread, connects the client and warms every entity up over the wire.
  ServeSection(int64_t graph_topk, uint64_t seed);
  ~ServeSection();
  ServeSection(const ServeSection&) = delete;
  ServeSection& operator=(const ServeSection&) = delete;

  // Phases A and B take turns for kRounds rounds within about `seconds`,
  // and between_rounds() runs after each round; then the checks. Adds
  // serve.observe.p50_ms and serve.sustained_rps.
  void Run(double seconds, const std::function<void()>& between_rounds,
           RunResult* result);
  static constexpr int kRounds = 10;
  // Phase A, the 1-connection traced phase and the checks; adds the
  // serving layers' per-layer metrics.
  void RunTraced(RunResult* result);

 private:
  enum Phase { kWarmup, kPhaseA, kPhaseB, kTraced };
  struct Entity {
    int64_t offset = 0;    // first data row
    int64_t sent = 0;      // requests so far (every 4th is a forecast)
    int64_t observes = 0;  // observes so far = the entity's steps
  };

  // Appends entity `e`'s next request (observe or forecast) to the log.
  size_t NextRequest(int e, Phase phase);
  // Closed loop over `conns`, rotating through each connection's
  // entities; a connection stops after `per_conn` requests (< 0: no limit)
  // or at end_ns.
  void ClosedLoop(const std::vector<int>& conns, int inflight, int64_t end_ns,
                  int64_t per_conn, Phase phase);
  // Sends one stats request and waits for its response; returns its index.
  size_t Stats(Phase phase);
  // Sends the next `requests` Poisson arrivals at kRate, open loop,
  // starting now.
  void PhaseA(int64_t requests);
  // Stops the server and joins its thread (idempotent).
  void Stop();
  // Checks every logged request; replays observes and forecasts through a
  // fresh session (traced-phase requests one at a time, timing each into
  // session_us_). Returns the number of failed requests.
  int64_t Verify();
  std::vector<float> ObservationValues(int64_t row) const;
  std::vector<int> AllConnections() const;
  // Latencies of one phase's `op` requests: from the due time in the open
  // loop, from the send time otherwise.
  std::vector<double> LatenciesMs(Phase phase, Op op) const;
  // p99 of how late the phase A generator sent its requests, in ms;
  // prints it with phase A's validity (invalid past kMaxGeneratorLateMs).
  double GeneratorLateP99Ms() const;

  // Serving runs at one thread: at the default width, a vCPU stolen from
  // any pool worker stalled the server, and the observe p50 ranged from
  // 1.2 ms to 140 ms across runs on a shared 4-vCPU host. First member:
  // set before the model is built, restored after the server thread is
  // joined.
  tgcrn::common::ScopedNumThreads one_thread_{1};
  tgcrn::Rng arrivals_;  // phase A arrival times and entities
  tgcrn::Tensor values_;              // [T, N, d] observation stream
  tgcrn::data::StandardScaler scaler_;
  std::vector<int64_t> slot_of_day_;  // per row
  std::vector<std::string> row_json_; // per row: the [[..],..] values text
  std::vector<Entity> entities_;
  std::vector<Request> log_;
  std::vector<double> session_us_;    // per log index, traced phase only

  std::unique_ptr<tgcrn::core::TGCRN> model_;
  std::unique_ptr<tgcrn::serve::InferenceSession> session_;
  std::unique_ptr<tgcrn::serve::Server> server_;
  std::thread server_thread_;  // runs server_->Run()
  LoopbackClient client_;
};

}  // namespace tgbench

#endif  // TGBENCH_SERVE_H_
