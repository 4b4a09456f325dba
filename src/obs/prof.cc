// Copyright 2026 TGCRN Reproduction Authors
#include "obs/prof.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

// The dependencies outside obs/ + std: the leaf header resolving which
// SIMD kernel table is live, so every profile is stamped with the ISA it
// measured (scalar vs avx2 rooflines are different machines), and the
// strict env-switch parser.
#include "common/cpu_features.h"
#include "common/flags.h"
#include "obs/json.h"
#include "obs/trace.h"

#if defined(__linux__)
#include <linux/perf_event.h>
#include <sys/ioctl.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <cerrno>
#endif

namespace tgcrn {
namespace obs {

namespace {

// Synthetic frame under which pool helpers attribute their chunk work:
// root -> "worker" -> <kernel>. A literal here so pointer identity works
// like every other span name.
constexpr const char* kWorkerFrameName = "worker";
constexpr const char* kRootName = "root";

// ---------------------------------------------------------------------------
// perf_event counter group (one per thread, lazily opened)
// ---------------------------------------------------------------------------

constexpr int kNumPerfEvents = 5;  // cycles, instructions, L1d, LLC, branch

struct PerfVals {
  int64_t v[kNumPerfEvents] = {0, 0, 0, 0, 0};
};

// 0 = not probed yet, 1 = available, 2 = unavailable (sticky: the first
// denied open disables the path for the whole process — containers
// typically refuse the syscall and retrying per thread is pointless).
std::atomic<int> g_perf_state{0};
std::atomic<bool> g_perf_forced_off{false};

struct PerfGroup {
  bool tried = false;
  bool ok = false;
  int leader = -1;
  // Read-buffer position -> event slot, for events that opened.
  int slot_of[kNumPerfEvents] = {0};
  int opened = 0;

#if defined(__linux__)
  ~PerfGroup() {
    for (int fd : fds) {
      if (fd >= 0) ::close(fd);
    }
  }
  int fds[kNumPerfEvents] = {-1, -1, -1, -1, -1};
#endif
};

#if defined(__linux__)

long PerfEventOpen(perf_event_attr* attr, pid_t pid, int cpu, int group_fd,
                   unsigned long flags) {
  return ::syscall(__NR_perf_event_open, attr, pid, cpu, group_fd, flags);
}

void OpenPerfGroup(PerfGroup* group) {
  group->tried = true;
  if (g_perf_forced_off.load(std::memory_order_relaxed) ||
      g_perf_state.load(std::memory_order_relaxed) == 2) {
    return;
  }
  struct EventSpec {
    uint32_t type;
    uint64_t config;
  };
  const EventSpec specs[kNumPerfEvents] = {
      {PERF_TYPE_HARDWARE, PERF_COUNT_HW_CPU_CYCLES},
      {PERF_TYPE_HARDWARE, PERF_COUNT_HW_INSTRUCTIONS},
      {PERF_TYPE_HW_CACHE,
       PERF_COUNT_HW_CACHE_L1D | (PERF_COUNT_HW_CACHE_OP_READ << 8) |
           (PERF_COUNT_HW_CACHE_RESULT_MISS << 16)},
      {PERF_TYPE_HARDWARE, PERF_COUNT_HW_CACHE_MISSES},  // LLC misses
      {PERF_TYPE_HARDWARE, PERF_COUNT_HW_BRANCH_MISSES},
  };
  for (int i = 0; i < kNumPerfEvents; ++i) {
    perf_event_attr attr;
    std::memset(&attr, 0, sizeof(attr));
    attr.size = sizeof(attr);
    attr.type = specs[i].type;
    attr.config = specs[i].config;
    attr.exclude_kernel = 1;
    attr.exclude_hv = 1;
    attr.disabled = group->leader < 0 ? 1 : 0;
    if (group->leader < 0) attr.read_format = PERF_FORMAT_GROUP;
    const int fd = static_cast<int>(
        PerfEventOpen(&attr, /*pid=*/0, /*cpu=*/-1, group->leader, 0));
    if (fd < 0) {
      if (group->leader < 0) {
        // Even the cycle counter is denied: perf_event is off for this
        // process (EACCES/EPERM under seccomp, ENOSYS without the
        // syscall). Remember globally so other threads skip the probe.
        g_perf_state.store(2, std::memory_order_relaxed);
        return;
      }
      continue;  // optional event missing on this machine; keep the rest
    }
    if (group->leader < 0) group->leader = fd;
    group->fds[i] = fd;
    group->slot_of[group->opened++] = i;
  }
  ::ioctl(group->leader, PERF_EVENT_IOC_RESET, PERF_IOC_FLAG_GROUP);
  ::ioctl(group->leader, PERF_EVENT_IOC_ENABLE, PERF_IOC_FLAG_GROUP);
  group->ok = true;
  g_perf_state.store(1, std::memory_order_relaxed);
}

bool ReadPerfGroup(PerfGroup* group, PerfVals* out) {
  if (!group->ok) return false;
  // PERF_FORMAT_GROUP layout: u64 nr, then one u64 per member in open
  // order.
  uint64_t buf[1 + kNumPerfEvents] = {0};
  const ssize_t want = static_cast<ssize_t>(
      sizeof(uint64_t) * (1 + static_cast<size_t>(group->opened)));
  if (::read(group->leader, buf, static_cast<size_t>(want)) != want) {
    return false;
  }
  const int nr = std::min<int>(static_cast<int>(buf[0]), group->opened);
  for (int i = 0; i < nr; ++i) {
    out->v[group->slot_of[i]] = static_cast<int64_t>(buf[1 + i]);
  }
  return true;
}

#else  // !__linux__

void OpenPerfGroup(PerfGroup* group) {
  group->tried = true;
  g_perf_state.store(2, std::memory_order_relaxed);
}

bool ReadPerfGroup(PerfGroup*, PerfVals*) { return false; }

#endif

// ---------------------------------------------------------------------------
// Per-thread attribution tree
// ---------------------------------------------------------------------------

// Tree nodes live in a flat per-thread vector; index 0 is the synthetic
// root. Children form a singly linked list (first_child/next_sibling) so
// the hot-path lookup is a short pointer-compare walk — kernels have a
// handful of distinct children. Accumulators are zeroed by ResetProfile;
// the structure itself only grows (stack indices stay valid across
// resets).
struct ProfNode {
  const char* name = nullptr;
  int32_t parent = -1;
  int32_t first_child = -1;
  int32_t next_sibling = -1;
  int64_t count = 0;
  int64_t total_ns = 0;  // inclusive, completed frames only
  int64_t kernel_calls = 0;
  double flops = 0.0;
  double bytes = 0.0;
  PerfVals hw;  // inclusive hardware-counter deltas
};

struct Frame {
  int32_t node = 0;
  bool has_perf = false;
  PerfVals perf_base;
};

struct ProfThread {
  std::mutex mu;
  std::vector<ProfNode> nodes;
  std::vector<Frame> stack;
  PerfGroup perf;
  int tid = 0;
};

struct ProfState {
  std::mutex mu;
  std::vector<std::shared_ptr<ProfThread>> threads;
  ProfOptions options;
  bool ever_started = false;
  bool atexit_registered = false;
};

ProfState& State() {
  static ProfState* state = new ProfState();  // leaked deliberately
  return *state;
}

ProfThread* GetProfThread() {
  thread_local std::shared_ptr<ProfThread> t = [] {
    auto p = std::make_shared<ProfThread>();
    p->nodes.push_back(ProfNode{});
    p->nodes[0].name = kRootName;
    p->stack.push_back(Frame{});
    ProfState& state = State();
    std::lock_guard<std::mutex> lock(state.mu);
    p->tid = static_cast<int>(state.threads.size());
    state.threads.push_back(p);
    return p;
  }();
  return t.get();
}

bool SameName(const char* a, const char* b) {
  return a == b || std::strcmp(a, b) == 0;
}

// Child of `parent` named `name`, created on first encounter. Caller holds
// t->mu.
int32_t FindOrAddChild(ProfThread* t, int32_t parent, const char* name) {
  for (int32_t c = t->nodes[parent].first_child; c >= 0;
       c = t->nodes[c].next_sibling) {
    if (SameName(t->nodes[c].name, name)) return c;
  }
  const int32_t idx = static_cast<int32_t>(t->nodes.size());
  ProfNode node;
  node.name = name;
  node.parent = parent;
  node.next_sibling = t->nodes[parent].first_child;
  t->nodes.push_back(node);
  t->nodes[parent].first_child = idx;
  return idx;
}

// Whether StartProfiling asked for hardware counters. An atomic (not read
// from ProfState under its mutex) because the scope hot path checks it
// while holding its thread's lock — taking state.mu there would invert
// the state.mu -> thread.mu order CollectProfReport uses.
std::atomic<bool> g_counters_wanted{true};

void AtExitWrite() {
  ProfState& state = State();
  std::string path;
  {
    std::lock_guard<std::mutex> lock(state.mu);
    path = state.options.path;
  }
  if (!path.empty()) WriteProfileFile(path);
}

// Reads TGCRN_PROF once at process start so any binary profiles without
// code changes; the atexit hook writes the file when a path was given.
struct EnvAutoStart {
  EnvAutoStart() {
    const ProfOptions options = ProfOptions::FromEnv();
    if (options.enabled) StartProfiling(options);
  }
};
EnvAutoStart env_auto_start;

// ---------------------------------------------------------------------------
// Merge across threads into a canonical tree
// ---------------------------------------------------------------------------

struct MergeNode {
  int64_t count = 0;
  int64_t total_ns = 0;
  int64_t kernel_calls = 0;
  double flops = 0.0;
  double bytes = 0.0;
  PerfVals hw;
  // Ordered by name so the emitted preorder is canonical regardless of
  // which thread touched a scope first.
  std::map<std::string, std::unique_ptr<MergeNode>> children;
};

void MergeThreadSubtree(const std::vector<ProfNode>& nodes, int32_t idx,
                        MergeNode* into) {
  const ProfNode& n = nodes[idx];
  into->count += n.count;
  into->total_ns += n.total_ns;
  into->kernel_calls += n.kernel_calls;
  into->flops += n.flops;
  into->bytes += n.bytes;
  for (int i = 0; i < kNumPerfEvents; ++i) into->hw.v[i] += n.hw.v[i];
  for (int32_t c = n.first_child; c >= 0; c = nodes[c].next_sibling) {
    auto& child = into->children[nodes[c].name];
    if (!child) child = std::make_unique<MergeNode>();
    MergeThreadSubtree(nodes, c, child.get());
  }
}

// Emits `node` and its subtree in preorder, returning the node's inclusive
// nanoseconds (the root's own total is the sum of its children).
int64_t EmitMerged(const std::string& name, const MergeNode& node,
                   int64_t parent_index, ProfReport* out,
                   std::vector<PerfVals>* hw_excl) {
  const int64_t index = static_cast<int64_t>(out->nodes.size());
  out->nodes.emplace_back();
  hw_excl->push_back(node.hw);
  {
    ProfNodeReport& r = out->nodes.back();
    r.name = name;
    r.parent = parent_index;
    r.count = node.count;
    r.flops = node.flops;
    r.instructions = node.hw.v[1];
    r.cycles = node.hw.v[0];
  }
  int64_t children_ns = 0;
  for (const auto& [child_name, child] : node.children) {
    children_ns += EmitMerged(child_name, *child, index, out, hw_excl);
    for (int i = 0; i < kNumPerfEvents; ++i) {
      (*hw_excl)[index].v[i] -= child->hw.v[i];
    }
  }
  // The root never times itself; open frames elsewhere can also make a
  // parent's completed total lag its children — clamp, don't go negative.
  const int64_t inclusive_ns = std::max(node.total_ns, children_ns);
  ProfNodeReport& r = out->nodes[index];
  r.inclusive_seconds = static_cast<double>(inclusive_ns) / 1e9;
  r.exclusive_seconds =
      static_cast<double>(std::max<int64_t>(inclusive_ns - children_ns, 0)) /
      1e9;
  return inclusive_ns;
}

// Folds the merged tree into the per-kernel summary: nodes that recorded
// analytic costs are kernel rows; same-named nodes under a "worker" frame
// contribute their helper time and hardware counts to that row.
void SummarizeKernels(const MergeNode& node, const std::string& name,
                      bool under_worker, ProfReport* out,
                      std::map<std::string, size_t>* by_name,
                      const std::vector<PerfVals>& hw_excl, size_t* cursor) {
  const size_t index = (*cursor)++;
  if (node.kernel_calls > 0) {
    auto [it, inserted] = by_name->try_emplace(name, out->kernels.size());
    if (inserted) {
      out->kernels.emplace_back();
      out->kernels.back().name = name;
    }
    ProfKernelReport& k = out->kernels[it->second];
    k.invocations += node.kernel_calls;
    k.exclusive_seconds += out->nodes[index].exclusive_seconds;
    k.flops += node.flops;
    k.bytes += node.bytes;
    const PerfVals& hw = hw_excl[index];
    k.cycles += std::max<int64_t>(hw.v[0], 0);
    k.instructions += std::max<int64_t>(hw.v[1], 0);
    k.l1_misses += std::max<int64_t>(hw.v[2], 0);
    k.llc_misses += std::max<int64_t>(hw.v[3], 0);
    k.branch_misses += std::max<int64_t>(hw.v[4], 0);
  } else if (under_worker) {
    const auto it = by_name->find(name);
    if (it != by_name->end()) {
      ProfKernelReport& k = out->kernels[it->second];
      k.worker_seconds += out->nodes[index].inclusive_seconds;
      k.cycles += std::max<int64_t>(node.hw.v[0], 0);
      k.instructions += std::max<int64_t>(node.hw.v[1], 0);
      k.l1_misses += std::max<int64_t>(node.hw.v[2], 0);
      k.llc_misses += std::max<int64_t>(node.hw.v[3], 0);
      k.branch_misses += std::max<int64_t>(node.hw.v[4], 0);
    }
  }
  const bool worker_frame = name == kWorkerFrameName;
  for (const auto& [child_name, child] : node.children) {
    SummarizeKernels(*child, child_name, under_worker || worker_frame, out,
                     by_name, hw_excl, cursor);
  }
}

}  // namespace

namespace internal {

std::atomic<bool> g_prof_armed{false};

void ProfEnterScope(const char* name) {
  ProfThread* t = GetProfThread();
  std::lock_guard<std::mutex> lock(t->mu);
  const int32_t child = FindOrAddChild(t, t->stack.back().node, name);
  ++t->nodes[child].count;
  Frame frame;
  frame.node = child;
  if (g_perf_state.load(std::memory_order_relaxed) != 2 &&
      g_counters_wanted.load(std::memory_order_relaxed)) {
    if (!t->perf.tried) OpenPerfGroup(&t->perf);
    frame.has_perf = ReadPerfGroup(&t->perf, &frame.perf_base);
  }
  t->stack.push_back(frame);
}

void ProfExitScope(int64_t dur_ns) {
  ProfThread* t = GetProfThread();
  std::lock_guard<std::mutex> lock(t->mu);
  if (t->stack.size() <= 1) return;  // defensive: never pop the root
  const Frame frame = t->stack.back();
  t->stack.pop_back();
  ProfNode& node = t->nodes[frame.node];
  node.total_ns += dur_ns;
  if (frame.has_perf) {
    PerfVals now;
    if (ReadPerfGroup(&t->perf, &now)) {
      for (int i = 0; i < kNumPerfEvents; ++i) {
        node.hw.v[i] += now.v[i] - frame.perf_base.v[i];
      }
    }
  }
}

}  // namespace internal

ProfOptions ProfOptions::FromEnv() {
  ProfOptions options;
  if (const char* value = std::getenv("TGCRN_PROF")) {
    const bool off = value[0] == '\0' || (value[0] == '0' && value[1] == '\0');
    if (!off) {
      options.enabled = true;
      if (!(value[0] == '1' && value[1] == '\0')) options.path = value;
    }
  }
  options.counters = EnvBoolOrDie("TGCRN_PROF_COUNTERS",
                                  std::getenv("TGCRN_PROF_COUNTERS"),
                                  options.counters);
  return options;
}

bool ProfilingEnabled() {
  return internal::g_prof_armed.load(std::memory_order_relaxed);
}

void StartProfiling(const ProfOptions& options) {
  ProfState& state = State();
  {
    std::lock_guard<std::mutex> lock(state.mu);
    state.options = options;
    state.ever_started = true;
    g_counters_wanted.store(options.counters, std::memory_order_relaxed);
    if (!state.atexit_registered && !options.path.empty()) {
      state.atexit_registered = true;
      std::atexit(AtExitWrite);
    }
  }
  ResetProfile();
  internal::g_prof_armed.store(true, std::memory_order_relaxed);
}

void StopProfiling() {
  internal::g_prof_armed.store(false, std::memory_order_relaxed);
}

void ResetProfile() {
  ProfState& state = State();
  std::vector<std::shared_ptr<ProfThread>> threads;
  {
    std::lock_guard<std::mutex> lock(state.mu);
    threads = state.threads;
  }
  for (const auto& t : threads) {
    std::lock_guard<std::mutex> lock(t->mu);
    for (ProfNode& node : t->nodes) {
      node.count = 0;
      node.total_ns = 0;
      node.kernel_calls = 0;
      node.flops = 0.0;
      node.bytes = 0.0;
      node.hw = PerfVals{};
    }
  }
}

void RecordKernelCost(const char* kernel, double flops, double bytes) {
  if (!ProfilingEnabled()) return;
  ProfThread* t = GetProfThread();
  std::lock_guard<std::mutex> lock(t->mu);
  const int32_t top = t->stack.back().node;
  int32_t node;
  if (top != 0 && SameName(t->nodes[top].name, kernel)) {
    node = top;  // the kernel's own scope — the common case
  } else {
    // Cost recorded outside its span: keep the accounting on a child
    // node.
    node = FindOrAddChild(t, top, kernel);
  }
  ++t->nodes[node].kernel_calls;
  t->nodes[node].flops += flops;
  t->nodes[node].bytes += bytes;
}

const char* CurrentProfLeafName() {
  if (!ProfilingEnabled()) return nullptr;
  ProfThread* t = GetProfThread();
  std::lock_guard<std::mutex> lock(t->mu);
  const int32_t top = t->stack.back().node;
  return top == 0 ? nullptr : t->nodes[top].name;
}

WorkerAttributionScope::WorkerAttributionScope(const char* leaf) {
  if (leaf == nullptr || !ProfilingEnabled()) return;
  leaf_ = leaf;
  internal::ProfEnterScope(kWorkerFrameName);
  internal::ProfEnterScope(leaf);
  start_ns_ = internal::TraceNowNs();
}

WorkerAttributionScope::~WorkerAttributionScope() {
  if (leaf_ == nullptr) return;
  const int64_t dur_ns = internal::TraceNowNs() - start_ns_;
  internal::ProfExitScope(dur_ns);
  internal::ProfExitScope(dur_ns);
}

ProfReport CollectProfReport() {
  ProfState& state = State();
  std::vector<std::shared_ptr<ProfThread>> threads;
  {
    std::lock_guard<std::mutex> lock(state.mu);
    threads = state.threads;
  }
  MergeNode root;
  int64_t contributing = 0;
  for (const auto& t : threads) {
    std::lock_guard<std::mutex> lock(t->mu);
    if (t->nodes.size() <= 1) continue;
    ++contributing;
    MergeThreadSubtree(t->nodes, 0, &root);
  }
  ProfReport report;
  report.counters_available =
      g_perf_state.load(std::memory_order_relaxed) == 1;
  report.isa = common::SimdIsaName(common::ActiveSimdIsa());
  report.threads = contributing;
  std::vector<PerfVals> hw_excl;
  EmitMerged(kRootName, root, -1, &report, &hw_excl);
  std::map<std::string, size_t> kernel_by_name;
  size_t cursor = 0;
  SummarizeKernels(root, kRootName, /*under_worker=*/false, &report,
                   &kernel_by_name, hw_excl, &cursor);
  std::sort(report.kernels.begin(), report.kernels.end(),
            [](const ProfKernelReport& a, const ProfKernelReport& b) {
              return a.name < b.name;
            });
  return report;
}

bool WriteProfileFile(const std::string& path) {
  const ProfReport report = CollectProfReport();
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "[obs] cannot open profile file %s\n", path.c_str());
    return false;
  }
  const std::string text = report.ToJson().Dump();
  bool ok = std::fputs(text.c_str(), out) >= 0 && std::fputc('\n', out) != EOF;
  ok = std::fclose(out) == 0 && ok;
  if (!ok) {
    std::fprintf(stderr, "[obs] profile write failed for %s\n", path.c_str());
  }
  return ok;
}

void DumpProfileOnAbort() {
  ProfState& state = State();
  std::string path;
  bool armed;
  {
    std::lock_guard<std::mutex> lock(state.mu);
    armed = state.ever_started;
    path = state.options.path;
  }
  if (!armed) return;
  if (!path.empty()) {
    WriteProfileFile(path);
  } else {
    // Armed without a file target (TGCRN_PROF=1): the abort still leaves
    // the cost snapshot on stderr, mirroring DumpMetricsRegistry.
    const ProfReport report = CollectProfReport();
    std::fprintf(stderr, "%s\n", report.ToJson().Dump().c_str());
  }
}

PerfCounterSample SampleThreadPerfCounters() {
  PerfCounterSample sample;
  if (g_perf_forced_off.load(std::memory_order_relaxed) ||
      g_perf_state.load(std::memory_order_relaxed) == 2) {
    return sample;
  }
  ProfThread* t = GetProfThread();
  std::lock_guard<std::mutex> lock(t->mu);
  if (!t->perf.tried) OpenPerfGroup(&t->perf);
  PerfVals vals;
  if (!ReadPerfGroup(&t->perf, &vals)) return sample;
  sample.available = true;
  sample.cycles = vals.v[0];
  sample.instructions = vals.v[1];
  sample.l1_misses = vals.v[2];
  sample.llc_misses = vals.v[3];
  sample.branch_misses = vals.v[4];
  return sample;
}

bool PerfCountersAvailable() {
  return g_perf_state.load(std::memory_order_relaxed) == 1;
}

void SetPerfForceUnavailableForTesting(bool unavailable) {
  g_perf_forced_off.store(unavailable, std::memory_order_relaxed);
  g_perf_state.store(unavailable ? 2 : 0, std::memory_order_relaxed);
}

}  // namespace obs
}  // namespace tgcrn
