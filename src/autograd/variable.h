// Copyright 2026 TGCRN Reproduction Authors
// Tape-based reverse-mode automatic differentiation over tgcrn::Tensor.
//
// A Variable is a cheap shared handle to a node in a dynamically built
// computation graph. Operations in autograd/ops.h create new Variables whose
// nodes remember their parents and a backward closure; calling
// Variable::Backward() runs a reverse topological sweep accumulating
// gradients into every node with requires_grad set (directly or via an
// ancestor). Gradients are stored per-node and survive until ZeroGrad().
//
// Memory model. Nodes live in one of two regimes:
//   * Heap nodes: intrusively refcounted via NodeRef and freed when the
//     last handle drops. Leaves (parameters, inputs) and nodes built
//     outside any StepArenaScope are heap nodes.
//   * Arena nodes: while a StepArenaScope is active, every interior op
//     node is placement-built in a per-thread bump arena. Copying a handle
//     to an arena node is free, and when the outermost scope ends the
//     whole graph is torn down with a flat walk over an intrusive list —
//     destructors run child-first in one loop instead of recursing through
//     parent edges — followed by an O(1) arena reset that keeps the blocks
//     for the next step. Handles to arena nodes must not outlive the scope
//     that built them (Detach() first if a value has to escape).
// Both regimes build byte-identical graphs and run the same kernels, so a
// step gives bitwise-identical results inside or outside a scope.
#ifndef TGCRN_AUTOGRAD_VARIABLE_H_
#define TGCRN_AUTOGRAD_VARIABLE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "tensor/tensor.h"

namespace tgcrn {
namespace ag {

class Variable;

namespace internal {

struct Node;

// Intrusive smart handle to a Node. For heap-owned nodes it maintains an
// atomic refcount and deletes the node when the count hits zero; for
// arena-owned nodes copies and destruction are no-ops (the step arena owns
// the storage and destroys all nodes at scope end).
class NodeRef {
 public:
  NodeRef() = default;
  NodeRef(const NodeRef& other) : ptr_(other.ptr_) { Retain(); }
  NodeRef(NodeRef&& other) noexcept : ptr_(other.ptr_) { other.ptr_ = nullptr; }
  NodeRef& operator=(const NodeRef& other) {
    if (this != &other) {
      Release();
      ptr_ = other.ptr_;
      Retain();
    }
    return *this;
  }
  NodeRef& operator=(NodeRef&& other) noexcept {
    if (this != &other) {
      Release();
      ptr_ = other.ptr_;
      other.ptr_ = nullptr;
    }
    return *this;
  }
  ~NodeRef() { Release(); }

  Node* get() const { return ptr_; }
  Node* operator->() const { return ptr_; }
  Node& operator*() const { return *ptr_; }
  explicit operator bool() const { return ptr_ != nullptr; }
  bool operator==(const NodeRef& other) const { return ptr_ == other.ptr_; }
  bool operator==(std::nullptr_t) const { return ptr_ == nullptr; }

  // Takes ownership of a heap node whose refcount is already 1.
  static NodeRef AdoptHeap(Node* node) {
    NodeRef ref;
    ref.ptr_ = node;
    return ref;
  }
  // Wraps an arena node (no ownership; the arena frees it).
  static NodeRef WrapArena(Node* node) {
    NodeRef ref;
    ref.ptr_ = node;
    return ref;
  }

 private:
  inline void Retain();
  inline void Release();

  Node* ptr_ = nullptr;
};

// Type-erased backward closure with fixed inline storage, so closures live
// inside the Node itself (and hence inside the arena) instead of behind a
// std::function heap allocation. Every closure in ops.cc captures at most a
// couple of NodeRefs plus one Tensor, well under the inline capacity; a
// larger capture is a compile error rather than a silent heap fallback.
class BackwardFn {
 public:
  static constexpr size_t kInlineBytes = 128;

  BackwardFn() = default;
  BackwardFn(const BackwardFn&) = delete;
  BackwardFn& operator=(const BackwardFn&) = delete;
  ~BackwardFn() { Reset(); }

  template <typename F>
  void Emplace(F&& fn) {
    using Fn = std::decay_t<F>;
    static_assert(sizeof(Fn) <= kInlineBytes,
                  "backward closure exceeds BackwardFn inline storage; "
                  "raise kInlineBytes");
    static_assert(alignof(Fn) <= alignof(std::max_align_t),
                  "over-aligned backward closure");
    Reset();
    ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(fn));
    invoke_ = [](const unsigned char* s, const Tensor& g) {
      (*std::launder(reinterpret_cast<const Fn*>(s)))(g);
    };
    destroy_ = [](unsigned char* s) {
      std::launder(reinterpret_cast<Fn*>(s))->~Fn();
    };
  }

  void operator()(const Tensor& grad_out) const { invoke_(storage_, grad_out); }
  explicit operator bool() const { return invoke_ != nullptr; }

  void Reset() {
    if (destroy_ != nullptr) destroy_(storage_);
    invoke_ = nullptr;
    destroy_ = nullptr;
  }

 private:
  alignas(std::max_align_t) unsigned char storage_[kInlineBytes];
  void (*invoke_)(const unsigned char*, const Tensor&) = nullptr;
  void (*destroy_)(unsigned char*) = nullptr;
};

// Fixed-capacity parent list. Capacity is chosen once at node construction
// (almost every op has one or two parents, which fit inline); wider ops
// like Concat spill to a single exact-size heap array. Never grows.
class ParentVec {
 public:
  static constexpr size_t kInlineSlots = 2;

  ParentVec() = default;
  ParentVec(const ParentVec&) = delete;
  ParentVec& operator=(const ParentVec&) = delete;
  ~ParentVec() { clear(); }

  inline void InitCapacity(size_t capacity);
  inline void EmplaceBack(NodeRef ref);
  inline void clear();

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const NodeRef& operator[](size_t i) const { return slots()[i]; }
  const NodeRef* begin() const { return slots(); }
  const NodeRef* end() const { return slots() + size_; }

 private:
  NodeRef* slots() {
    return spill_ != nullptr
               ? spill_
               : std::launder(reinterpret_cast<NodeRef*>(inline_));
  }
  const NodeRef* slots() const {
    return spill_ != nullptr
               ? spill_
               : std::launder(reinterpret_cast<const NodeRef*>(inline_));
  }

  alignas(NodeRef) unsigned char inline_[sizeof(NodeRef) * kInlineSlots];
  NodeRef* spill_ = nullptr;  // exact-size heap array when capacity > 2
  uint32_t size_ = 0;
  uint32_t capacity_ = kInlineSlots;
};

// Graph node. Heap nodes are owned via NodeRef handles; arena nodes are
// owned by the per-thread step arena and merely referenced by handles.
struct Node {
  Tensor value;
  Tensor grad;            // valid iff has_grad; retained across ZeroGrad
  bool has_grad = false;
  bool requires_grad = false;  // set for leaves the optimizer updates
  bool needs_grad = false;     // this or an ancestor requires grad
  bool arena_owned = false;    // storage regime (see NodeRef)
  std::atomic<int32_t> refcount{1};  // heap nodes only; unused in the arena
  // Monotonic mark used by Backward's topo sort instead of a hash set.
  uint64_t visit_epoch = 0;
  // Intrusive list of all nodes built in the current arena step, in reverse
  // creation order (walking it destroys children before their parents).
  Node* next_in_step = nullptr;
  // Parents this node was computed from (empty for leaves).
  ParentVec parents;
  // Propagates `grad_out` (d loss / d value) into the parents' grads.
  // Empty for leaves.
  BackwardFn backward_fn;

  // Accumulates `g` into this->grad. The grad buffer is allocated on first
  // use and then retained across ZeroGrad(): later steps memset it in place
  // instead of reallocating (counted by tensor.grad_buffer_reuse).
  void AccumulateGrad(const Tensor& g);
  // grad += scale * g without materializing the scaled temporary.
  void AccumulateScaledGrad(const Tensor& g, float scale);
  // grad += a * b elementwise without materializing the product.
  void AccumulateProductGrad(const Tensor& a, const Tensor& b);

 private:
  // Zero-fills (reusing the retained buffer when possible) before the first
  // accumulation of a backward pass.
  void PrepareGrad();
};

void NodeRef::Retain() {
  if (ptr_ != nullptr && !ptr_->arena_owned) {
    ptr_->refcount.fetch_add(1, std::memory_order_relaxed);
  }
}

void NodeRef::Release() {
  if (ptr_ != nullptr && !ptr_->arena_owned) {
    if (ptr_->refcount.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      delete ptr_;
    }
  }
  ptr_ = nullptr;
}

void ParentVec::InitCapacity(size_t capacity) {
  clear();
  if (capacity > kInlineSlots) {
    spill_ = static_cast<NodeRef*>(
        ::operator new(capacity * sizeof(NodeRef), std::align_val_t{alignof(NodeRef)}));
    capacity_ = static_cast<uint32_t>(capacity);
  }
}

void ParentVec::EmplaceBack(NodeRef ref) {
  ::new (static_cast<void*>(slots() + size_)) NodeRef(std::move(ref));
  ++size_;
}

void ParentVec::clear() {
  NodeRef* data = slots();
  for (size_t i = 0; i < size_; ++i) data[i].~NodeRef();
  size_ = 0;
  if (spill_ != nullptr) {
    ::operator delete(spill_, std::align_val_t{alignof(NodeRef)});
    spill_ = nullptr;
    capacity_ = kInlineSlots;
  }
}

// Allocates a heap leaf node (refcount 1).
NodeRef NewLeafNode(Tensor value, bool requires_grad);
// Allocates an interior node — in the step arena when one is active on this
// thread, on the heap otherwise — wiring up `parents` and needs_grad, and
// bumping autograd.forward_ops. When no parent needs gradients the history
// is dropped (parents stay empty) and the caller skips the closure.
NodeRef NewOpNode(Tensor value, const Variable* parents, size_t num_parents);

// Storage of `bytes` (align <= alignof(std::max_align_t)) in this thread's
// step arena while a StepArenaScope is active, reclaimed when the outermost
// scope ends; nullptr when no scope is active.
void* AllocateInStep(size_t bytes, size_t align);

// Per-thread arena introspection (tests and benchmarks).
struct GraphArenaStats {
  bool in_step = false;            // a StepArenaScope is active
  int64_t live_nodes = 0;          // nodes built in the current step
  int64_t nodes_allocated_total = 0;  // arena nodes over the thread lifetime
  size_t bytes_used = 0;
  size_t high_water_bytes = 0;
};
GraphArenaStats ThreadGraphArenaStats();

}  // namespace internal

// Value-semantic handle to a graph node.
class Variable {
 public:
  // Null handle; defined() is false.
  Variable() = default;

  // Leaf variable. If `requires_grad`, Backward() will populate grad().
  // Leaves are always heap-allocated so they can outlive any arena step.
  explicit Variable(Tensor value, bool requires_grad = false);

  bool defined() const { return node_ != nullptr; }

  const Tensor& value() const {
    TGCRN_CHECK(defined());
    return node_->value;
  }

  // The accumulated gradient; CHECK-fails if none has been computed.
  const Tensor& grad() const {
    TGCRN_CHECK(defined() && node_->has_grad) << "no gradient accumulated";
    return node_->grad;
  }
  bool has_grad() const { return defined() && node_->has_grad; }
  bool requires_grad() const { return defined() && node_->requires_grad; }
  // True if gradients flow through this node (it or an ancestor is a
  // trainable leaf).
  bool needs_grad() const { return defined() && node_->needs_grad; }

  // Marks the gradient as cleared. The buffer itself is retained and
  // memset-reused by the next backward pass (zero grad allocations in
  // steady state), so the storage pointer is stable across steps.
  void ZeroGrad() {
    TGCRN_CHECK(defined());
    node_->has_grad = false;
  }

  // Replaces the value in place (used by optimizers on leaves).
  void SetValue(Tensor value) {
    TGCRN_CHECK(defined());
    node_->value = std::move(value);
  }

  // Mutable access to a leaf's value tensor for in-place optimizer updates.
  // The storage (and hence data pointer) is preserved. Only meaningful
  // before the next forward pass: closures recorded earlier see the update.
  Tensor& mutable_value() {
    TGCRN_CHECK(defined());
    return node_->value;
  }

  // Runs reverse-mode differentiation seeding d(this)/d(this) = 1.
  // This variable must hold a single element (a scalar loss).
  void Backward() const;
  // Runs reverse-mode differentiation with an explicit output gradient.
  void Backward(const Tensor& grad_output) const;

  // Returns a new heap leaf with the same value and no graph history. Safe
  // to hold across a StepArenaScope boundary (the tensor storage is shared,
  // not copied).
  Variable Detach() const;

  // Shape conveniences.
  const Shape& shape() const { return value().shape(); }
  int64_t size(int64_t axis) const { return value().size(axis); }
  int64_t numel() const { return value().numel(); }

  // Internal: used by ops to build graph nodes.
  static Variable FromNode(internal::NodeRef node);
  const internal::NodeRef& node() const { return node_; }

 private:
  internal::NodeRef node_;
};

// True when ops record graph history on this thread (the default).
bool GradEnabled();

// Builds an interior node: value computed from parents with the given
// backward closure. The closure must route grad_out into each parent that
// needs_grad (it may skip parents that don't). Declared here so layered ops
// outside ops.cc (e.g. custom fused ops) can also create nodes. Under a
// NoGradGuard this skips graph construction entirely and returns a plain
// leaf holding `value`. The closure is stored inline in the node
// (BackwardFn), so it must fit kInlineBytes — enforced at compile time.
template <typename F>
Variable MakeOpNode(Tensor value, std::vector<Variable> parents,
                    F backward_fn) {
  if (!GradEnabled()) return Variable(std::move(value));
  internal::NodeRef node =
      internal::NewOpNode(std::move(value), parents.data(), parents.size());
  if (node->needs_grad) node->backward_fn.Emplace(std::move(backward_fn));
  return Variable::FromNode(std::move(node));
}

// Owner of one fused op's saved activations, held by its backward
// closure (too big for BackwardFn's inline storage). Built in the step
// arena while a StepArenaScope is active, so steady-state training does no
// heap allocation for it, and on the heap otherwise. Destroying the owner
// (with its node) destroys the object; the arena reclaims the bytes at
// scope end. Like an arena node, it must not outlive the scope that built
// it.
template <typename T>
class SavedState {
 public:
  SavedState() {
    void* mem = internal::AllocateInStep(sizeof(T), alignof(T));
    heap_ = mem == nullptr;
    if (heap_) mem = ::operator new(sizeof(T));
    ptr_ = ::new (mem) T();
  }
  SavedState(SavedState&& other) noexcept
      : ptr_(other.ptr_), heap_(other.heap_) {
    other.ptr_ = nullptr;
  }
  SavedState(const SavedState&) = delete;
  SavedState& operator=(const SavedState&) = delete;
  SavedState& operator=(SavedState&&) = delete;
  ~SavedState() {
    if (ptr_ == nullptr) return;
    ptr_->~T();
    if (heap_) ::operator delete(ptr_);
  }

  T* operator->() const { return ptr_; }
  T& operator*() const { return *ptr_; }

 private:
  T* ptr_ = nullptr;
  bool heap_ = false;
};

// RAII inference mode: while alive, ops on this thread build no graph
// nodes and no backward closures — MakeOpNode returns a bare leaf, the
// autograd.forward_ops counter stays flat, and no activations are
// retained. Guards nest; the previous state is restored on destruction.
// Calling Backward() on a Variable produced under the guard aborts (it has
// no graph), exactly like any other leaf.
class NoGradGuard {
 public:
  NoGradGuard();
  ~NoGradGuard();
  NoGradGuard(const NoGradGuard&) = delete;
  NoGradGuard& operator=(const NoGradGuard&) = delete;

 private:
  bool previous_;
};

// RAII training-step scope: while the outermost scope is alive, interior
// graph nodes on this thread are bump-allocated
// in a per-thread arena. The destructor destroys every node built during
// the step in one flat list walk and resets the arena in O(1), updating the
// arena.bytes_high_water gauge. Scopes nest (inner scopes are no-ops).
//
// Contract: no Variable holding an interior node from inside the scope may
// be used after the outermost scope ends — copy values out via Detach() or
// value() first. Leaves (parameters, Variable(tensor) inputs) are heap
// nodes and are unaffected.
class StepArenaScope {
 public:
  StepArenaScope();
  ~StepArenaScope();
  StepArenaScope(const StepArenaScope&) = delete;
  StepArenaScope& operator=(const StepArenaScope&) = delete;
};

}  // namespace ag
}  // namespace tgcrn

#endif  // TGCRN_AUTOGRAD_VARIABLE_H_
