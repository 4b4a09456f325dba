// Copyright 2026 TGCRN Reproduction Authors
#include "autograd/variable.h"

#include "common/arena.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace tgcrn {
namespace ag {

namespace {

obs::Counter* ForwardOpCounter() {
  static obs::Counter* c =
      obs::Registry::Global().GetCounter("autograd.forward_ops");
  return c;
}

obs::Counter* BackwardOpCounter() {
  static obs::Counter* c =
      obs::Registry::Global().GetCounter("autograd.backward_ops");
  return c;
}

// Grad-buffer zero-fills that reused the retained buffer instead of
// allocating a fresh one (steady-state steps should be all reuse).
obs::Counter* GradBufferReuseCounter() {
  static obs::Counter* c =
      obs::Registry::Global().GetCounter("tensor.grad_buffer_reuse");
  return c;
}

obs::Counter* ArenaNodeCounter() {
  static obs::Counter* c =
      obs::Registry::Global().GetCounter("arena.nodes_allocated");
  return c;
}

obs::Counter* ArenaStepCounter() {
  static obs::Counter* c = obs::Registry::Global().GetCounter("arena.steps");
  return c;
}

obs::Gauge* ArenaHighWaterGauge() {
  static obs::Gauge* g =
      obs::Registry::Global().GetGauge("arena.bytes_high_water");
  return g;
}

// Per-thread graph-recording switch, toggled by NoGradGuard.
thread_local bool g_grad_enabled = true;

// Per-thread step arena. Interior nodes created while `depth > 0` are
// placement-built in `arena` and chained on `head` in reverse creation
// order; EndStep destroys them child-first in one flat walk and rewinds
// the arena, keeping its blocks for the next step.
struct GraphArena {
  common::Arena arena;
  internal::Node* head = nullptr;
  int depth = 0;  // nesting of StepArenaScopes
  int64_t live_nodes = 0;
  int64_t nodes_allocated_total = 0;

  bool active() const { return depth > 0; }

  internal::Node* NewNode() {
    void* mem = arena.AllocateFor<internal::Node>();
    auto* node = new (mem) internal::Node();
    node->arena_owned = true;
    node->next_in_step = head;
    head = node;
    ++live_nodes;
    ++nodes_allocated_total;
    return node;
  }

  void EndStep() {
    // Child-first teardown: the list is in reverse creation order and a
    // node's parents always precede it, so each destructor only touches
    // parents that are still alive (releasing heap-leaf refcounts) —
    // without any recursion through parent edges.
    for (internal::Node* node = head; node != nullptr;
         node = node->next_in_step) {
      node->~Node();
    }
    head = nullptr;
    live_nodes = 0;
    ArenaHighWaterGauge()->Set(
        static_cast<double>(arena.stats().high_water_bytes));
    arena.Reset();
  }
};

GraphArena& ThreadGraphArena() {
  thread_local GraphArena arena;
  return arena;
}

}  // namespace

bool GradEnabled() { return g_grad_enabled; }

NoGradGuard::NoGradGuard() : previous_(g_grad_enabled) {
  g_grad_enabled = false;
}

NoGradGuard::~NoGradGuard() { g_grad_enabled = previous_; }

StepArenaScope::StepArenaScope() {
  GraphArena& ga = ThreadGraphArena();
  if (++ga.depth == 1) ArenaStepCounter()->Add(1);
}

StepArenaScope::~StepArenaScope() {
  GraphArena& ga = ThreadGraphArena();
  TGCRN_CHECK(ga.depth > 0);
  if (--ga.depth == 0) ga.EndStep();
}

namespace internal {

void Node::PrepareGrad() {
  if (has_grad) return;
  if (grad.numel() > 0 && grad.shape() == value.shape()) {
    // Steady-state path: the buffer retained across ZeroGrad() is zeroed
    // in place — same storage, no allocation. 0 + g == g keeps results
    // bitwise identical to the allocate-fresh path.
    grad.FillInplace(0.0f);
    GradBufferReuseCounter()->Add(1);
  } else {
    grad = Tensor::Zeros(value.shape());
  }
  has_grad = true;
}

void Node::AccumulateGrad(const Tensor& g) {
  TGCRN_CHECK(g.shape() == value.shape())
      << "gradient shape " << ShapeToString(g.shape())
      << " != value shape " << ShapeToString(value.shape());
  PrepareGrad();
  grad.AddInplace(g);
}

void Node::AccumulateScaledGrad(const Tensor& g, float scale) {
  TGCRN_CHECK(g.shape() == value.shape())
      << "gradient shape " << ShapeToString(g.shape())
      << " != value shape " << ShapeToString(value.shape());
  PrepareGrad();
  grad.AddScaledInplace(g, scale);
}

void Node::AccumulateProductGrad(const Tensor& a, const Tensor& b) {
  TGCRN_CHECK(a.shape() == value.shape() && b.shape() == value.shape())
      << "gradient shape " << ShapeToString(a.shape()) << " * "
      << ShapeToString(b.shape()) << " != value shape "
      << ShapeToString(value.shape());
  PrepareGrad();
  grad.AddProductInplace(a, b);
}

NodeRef NewLeafNode(Tensor value, bool requires_grad) {
  auto* node = new Node();
  node->value = std::move(value);
  node->requires_grad = requires_grad;
  node->needs_grad = requires_grad;
  return NodeRef::AdoptHeap(node);
}

NodeRef NewOpNode(Tensor value, const Variable* parents,
                  size_t num_parents) {
  ForwardOpCounter()->Add(1);
  GraphArena& ga = ThreadGraphArena();
  NodeRef ref;
  if (ga.active()) {
    ArenaNodeCounter()->Add(1);
    ref = NodeRef::WrapArena(ga.NewNode());
  } else {
    ref = NodeRef::AdoptHeap(new Node());
  }
  Node* node = ref.get();
  node->value = std::move(value);
  bool needs = false;
  for (size_t i = 0; i < num_parents; ++i) {
    TGCRN_CHECK(parents[i].defined());
    needs = needs || parents[i].needs_grad();
  }
  node->needs_grad = needs;
  // If no parent needs gradients the graph history is dead weight; leave
  // the parent list empty so inference-style forward passes don't retain
  // activations (the caller also skips installing the closure).
  if (needs) {
    node->parents.InitCapacity(num_parents);
    for (size_t i = 0; i < num_parents; ++i) {
      node->parents.EmplaceBack(parents[i].node());
    }
  }
  return ref;
}

void* AllocateInStep(size_t bytes, size_t align) {
  GraphArena& ga = ThreadGraphArena();
  return ga.active() ? ga.arena.Allocate(bytes, align) : nullptr;
}

GraphArenaStats ThreadGraphArenaStats() {
  GraphArena& ga = ThreadGraphArena();
  GraphArenaStats stats;
  stats.in_step = ga.active();
  stats.live_nodes = ga.live_nodes;
  stats.nodes_allocated_total = ga.nodes_allocated_total;
  const common::Arena::Stats as = ga.arena.stats();
  stats.bytes_used = as.bytes_used;
  stats.high_water_bytes = as.high_water_bytes;
  return stats;
}

}  // namespace internal

Variable::Variable(Tensor value, bool requires_grad) {
  node_ = internal::NewLeafNode(std::move(value), requires_grad);
}

Variable Variable::FromNode(internal::NodeRef node) {
  Variable v;
  v.node_ = std::move(node);
  return v;
}

namespace {

// Source of unique visit marks for ReverseTopoOrder. A fetch_add per
// Backward call gives every concurrent walk (on disjoint graphs) its own
// epoch, so nodes need no per-walk hash set membership — just a field
// compare against the current epoch.
std::atomic<uint64_t> g_visit_epoch{0};

// Builds a reverse topological order (children before parents) of the graph
// reachable from `root` following parent edges. Iterative DFS to avoid
// stack overflow on long recurrent chains (P x layers x gates nodes).
std::vector<internal::Node*> ReverseTopoOrder(internal::Node* root) {
  const uint64_t epoch =
      g_visit_epoch.fetch_add(1, std::memory_order_relaxed) + 1;
  std::vector<internal::Node*> order;
  // Each stack frame: (node, next parent index to visit).
  std::vector<std::pair<internal::Node*, size_t>> stack;
  stack.emplace_back(root, 0);
  root->visit_epoch = epoch;
  while (!stack.empty()) {
    auto& [node, next] = stack.back();
    if (next < node->parents.size()) {
      internal::Node* parent = node->parents[next].get();
      ++next;
      if (parent->needs_grad && parent->visit_epoch != epoch) {
        parent->visit_epoch = epoch;
        stack.emplace_back(parent, 0);
      }
    } else {
      order.push_back(node);
      stack.pop_back();
    }
  }
  // Postorder appends a node after its parents; reversing yields an order
  // where every node precedes its parents, i.e. each node's gradient is
  // complete before its backward_fn fires.
  std::reverse(order.begin(), order.end());
  return order;
}

}  // namespace

void Variable::Backward() const {
  TGCRN_CHECK(defined());
  TGCRN_CHECK_EQ(node_->value.numel(), 1)
      << "Backward() without explicit gradient requires a scalar output";
  Backward(Tensor::Full(node_->value.shape(), 1.0f));
}

void Variable::Backward(const Tensor& grad_output) const {
  TGCRN_CHECK(defined());
  TGCRN_CHECK(node_->needs_grad)
      << "Backward() on a graph with no trainable leaves";
  // The graph walk itself stays serial on purpose: firing independent
  // branches concurrently would make the float accumulation order into
  // shared parents depend on thread scheduling, breaking the bitwise
  // determinism guarantee. Parallelism happens one level down instead —
  // every backward_fn and AccumulateGrad bottoms out in the thread-pooled
  // tensor kernels (matmul, elementwise, AddInplace), which keep a fixed
  // accumulation order regardless of thread count.
  TGCRN_TRACE_SCOPE("autograd.Backward");
  node_->AccumulateGrad(grad_output);
  const auto order = ReverseTopoOrder(node_.get());
  int64_t fired = 0;
  for (internal::Node* node : order) {
    if (node->backward_fn && node->has_grad) {
      node->backward_fn(node->grad);
      ++fired;
    }
    // Interior nodes' grads are only needed transiently; free them so a
    // full BPTT pass doesn't hold two tensors per op. Leaves keep theirs —
    // the buffer is the one retained and reused across steps.
    if (!node->requires_grad && node != node_.get()) {
      node->has_grad = false;
      node->grad = Tensor();
    }
  }
  BackwardOpCounter()->Add(fired);
}

Variable Variable::Detach() const {
  TGCRN_CHECK(defined());
  return Variable(node_->value, /*requires_grad=*/false);
}

}  // namespace ag
}  // namespace tgcrn
