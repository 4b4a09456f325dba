// Copyright 2026 TGCRN Reproduction Authors
// CLI: inspect a running tgcrn_serve's request telemetry over its own
// line protocol (operator guide: docs/SERVING.md "Reading the request
// telemetry").
//
// Usage:
//   tgcrn_serve_stats <show|watch|slow> --port PORT [--host H]
//       [--interval SECONDS] [--count N]
//
//   show   one stats snapshot: top-line gauges, the per-stage latency
//          table, and entity-cache health
//   watch  `show` every --interval seconds (default 2; --count bounds
//          the number of polls, 0 = until interrupted)
//   slow   the server's slow-request exemplars (requests over
//          TGCRN_SERVE_SLOW_US), one stage-breakdown row each
//
// Each poll opens a fresh connection, sends one {"op":"stats"} line and
// renders the reply — the cost to the serving loop is one non-batched
// stats request. Stage histograms are cumulative over the server's
// lifetime. Exits non-zero if the server is unreachable or replies with
// an error.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/flags.h"
#include "common/table_printer.h"
#include "obs/json.h"
#include "serve/telemetry.h"

namespace {

struct Args {
  std::string command;
  std::string host = "127.0.0.1";
  int port = 0;
  double interval_s = 2.0;
  int count = 0;  // watch polls; 0 = until interrupted
};

bool ParseArgs(int argc, char** argv, Args* args) {
  if (argc < 2) return false;
  args->command = argv[1];
  if (args->command != "show" && args->command != "watch" &&
      args->command != "slow") {
    return false;
  }
  tgcrn::Flags flags;
  flags.Add("--port", &args->port)
      .Add("--host", &args->host)
      .Add("--interval", &args->interval_s)
      .Add("--count", &args->count);
  return flags.Parse(argc, argv, 2) && args->port > 0 && args->port <= 65535;
}

// One round trip on a fresh connection: send `request` (one line), read
// one response line. False (with *error) on any socket trouble.
bool Call(const Args& args, const std::string& request, std::string* reply,
          std::string* error) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    *error = std::string("socket: ") + std::strerror(errno);
    return false;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(args.port));
  if (::inet_pton(AF_INET, args.host.c_str(), &addr.sin_addr) != 1) {
    *error = "bad host " + args.host;
    ::close(fd);
    return false;
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    *error = std::string("connect ") + args.host + ": " +
             std::strerror(errno);
    ::close(fd);
    return false;
  }
  const std::string line = request + "\n";
  size_t sent = 0;
  while (sent < line.size()) {
    const ssize_t wrote =
        ::send(fd, line.data() + sent, line.size() - sent, MSG_NOSIGNAL);
    if (wrote <= 0) {
      *error = std::string("send: ") + std::strerror(errno);
      ::close(fd);
      return false;
    }
    sent += static_cast<size_t>(wrote);
  }
  reply->clear();
  char buf[4096];
  for (;;) {
    const ssize_t got = ::recv(fd, buf, sizeof(buf), 0);
    if (got <= 0) break;
    reply->append(buf, static_cast<size_t>(got));
    const size_t newline = reply->find('\n');
    if (newline != std::string::npos) {
      reply->resize(newline);
      ::close(fd);
      return true;
    }
  }
  *error = "connection closed before a full reply";
  ::close(fd);
  return false;
}

bool FetchStats(const Args& args, bool slow_view, tgcrn::obs::Json* stats) {
  std::string request = "{\"op\":\"stats\"}";
  if (slow_view) request = "{\"op\":\"stats\",\"view\":\"slow\"}";
  std::string reply, error;
  if (!Call(args, request, &reply, &error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return false;
  }
  if (!tgcrn::obs::Json::Parse(reply, stats, &error)) {
    std::fprintf(stderr, "error: unparseable stats reply: %s\n",
                 error.c_str());
    return false;
  }
  const tgcrn::obs::Json& ok = (*stats)["ok"];
  if (!ok.is_bool() || !ok.AsBool()) {
    std::fprintf(stderr, "error: server replied: %s\n", reply.c_str());
    return false;
  }
  return true;
}

void RenderStats(const tgcrn::obs::Json& stats) {
  std::printf(
      "entities %lld  requests %lld  qps %.1f  p50 %lld us  p99 %lld us  "
      "uptime %.0f s\n",
      static_cast<long long>(stats.GetInt("entities")),
      static_cast<long long>(stats.GetInt("requests")),
      stats.GetDouble("qps"), static_cast<long long>(stats.GetInt("p50_us")),
      static_cast<long long>(stats.GetInt("p99_us")),
      stats.GetDouble("uptime_s"));
  if (stats.Has("cache")) {
    const tgcrn::obs::Json& cache = stats["cache"];
    std::printf(
        "cache: hits %lld  misses %lld  evictions %lld  "
        "eviction age p50 %lld ticks\n",
        static_cast<long long>(cache.GetInt("hits")),
        static_cast<long long>(cache.GetInt("misses")),
        static_cast<long long>(cache.GetInt("evictions")),
        static_cast<long long>(cache.GetInt("eviction_age_p50_ticks")));
  }
  if (!stats.Has("stages")) {
    std::printf(
        "no stage telemetry (server not armed: set TGCRN_SERVE_ACCESS_LOG "
        "or TGCRN_SERVE_SLOW_US)\n");
    return;
  }
  const tgcrn::obs::Json& stages = stats["stages"];
  tgcrn::TablePrinter table({"stage", "count", "p50_us", "p90_us", "p99_us"});
  for (int s = 0; s < tgcrn::serve::kServeStageCount; ++s) {
    const char* name = tgcrn::serve::ServeStageName(s);
    if (!stages.Has(name)) continue;
    const tgcrn::obs::Json& stage = stages[name];
    table.AddRow({name, std::to_string(stage.GetInt("count")),
                  std::to_string(stage.GetInt("p50_us")),
                  std::to_string(stage.GetInt("p90_us")),
                  std::to_string(stage.GetInt("p99_us"))});
  }
  table.Print();
  if (stats.Has("slow_count")) {
    std::printf("slow requests kept: %lld (view with `slow`)\n",
                static_cast<long long>(stats.GetInt("slow_count")));
  }
}

int RenderSlow(const tgcrn::obs::Json& stats) {
  if (!stats.Has("slow_requests")) {
    std::fprintf(stderr,
                 "no slow-request telemetry (server not armed: set "
                 "TGCRN_SERVE_SLOW_US)\n");
    return 1;
  }
  const tgcrn::obs::Json& slow = stats["slow_requests"];
  std::printf("%zu slow request(s), oldest first:\n", slow.size());
  tgcrn::TablePrinter table({"id", "op", "status", "batch", "total_us",
                             "read", "parse", "batch_wait", "gather",
                             "kernel", "scatter", "serialize", "flush"});
  for (size_t i = 0; i < slow.size(); ++i) {
    const tgcrn::obs::Json& entry = slow.at(i);
    const tgcrn::obs::Json& us = entry["stage_us"];
    std::vector<std::string> row = {
        std::to_string(entry.GetInt("id")), entry.GetString("op"),
        entry.GetString("status"), std::to_string(entry.GetInt("batch")),
        std::to_string(entry.GetInt("total_us"))};
    for (int s = 0; s < tgcrn::serve::kServeStageCount; ++s) {
      row.push_back(
          std::to_string(us.GetInt(tgcrn::serve::ServeStageName(s))));
    }
    table.AddRow(std::move(row));
  }
  table.Print();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s <show|watch|slow> --port PORT [--host H]\n"
                 "  [--interval SECONDS] [--count N]\n"
                 "operator guide: docs/SERVING.md\n",
                 argv[0]);
    return 2;
  }
  if (args.command == "slow") {
    tgcrn::obs::Json stats;
    if (!FetchStats(args, /*slow_view=*/true, &stats)) return 1;
    return RenderSlow(stats);
  }
  int polls = 0;
  for (;;) {
    tgcrn::obs::Json stats;
    if (!FetchStats(args, /*slow_view=*/false, &stats)) return 1;
    RenderStats(stats);
    if (args.command == "show") return 0;
    ++polls;
    if (args.count > 0 && polls >= args.count) return 0;
    std::printf("\n");
    std::fflush(stdout);
    std::this_thread::sleep_for(
        std::chrono::duration<double>(args.interval_s));
  }
}
