// Copyright 2026 TGCRN Reproduction Authors
// First-order optimizers over ag::Variable parameter lists, plus global
// gradient-norm clipping. Matches the paper's training recipe: Adam with
// L2 penalty 1e-4, initial LR 1e-3 (decayed externally by MultiStepLR).
#ifndef TGCRN_OPTIM_OPTIMIZER_H_
#define TGCRN_OPTIM_OPTIMIZER_H_

#include <cmath>
#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "autograd/variable.h"
#include "common/status.h"
#include "common/thread_pool.h"

namespace tgcrn {
namespace optim {

// Elements per chunk for the parallel parameter-update loops; parameter
// tensors are independent rows of work, so chunking never changes results.
inline constexpr int64_t kOptimizerGrain = 1024;

// Deterministic squared sum of one buffer (the per-parameter piece of the
// global gradient norm). This is the trainer's gradient-stats capture
// point: the value feeds the clip below, the per-epoch grad_norm fields in
// the run report, and — because NaN/Inf propagate through the sum — the
// health monitor's non-finite sentinel, all from a single reduction.
inline double GradSquaredSum(const float* data, int64_t n) {
  return common::DeterministicChunkedSum(
      n, kOptimizerGrain, [data](int64_t begin, int64_t end) {
        double sq = 0.0;
        for (int64_t i = begin; i < end; ++i) {
          sq += static_cast<double>(data[i]) * data[i];
        }
        return sq;
      });
}

// Scales all gradients so their global L2 norm is at most `max_norm`.
// Returns the pre-clip norm. Parameters without gradients are skipped.
// A non-finite return means some gradient element is non-finite; the
// `norm > max_norm` comparison is then false, so the offending gradients
// are left unscaled for the health monitor to inspect.
inline float ClipGradNorm(const std::vector<ag::Variable>& params,
                          float max_norm) {
  // Per-parameter partials via the deterministic chunked reduction, summed
  // in parameter order: the norm is bitwise identical at any thread count.
  double total_sq = 0.0;
  for (const auto& p : params) {
    if (!p.has_grad()) continue;
    const Tensor& g = p.grad();
    total_sq += GradSquaredSum(g.data(), g.numel());
  }
  const float norm = static_cast<float>(std::sqrt(total_sq));
  if (norm > max_norm && norm > 0.0f) {
    const float scale = max_norm / norm;
    for (auto& p : params) {
      if (!p.has_grad()) continue;
      // Safe: the grad tensor is owned by the leaf node.
      const_cast<Tensor&>(p.grad()).ScaleInplace(scale);
    }
  }
  return norm;
}

class Optimizer {
 public:
  explicit Optimizer(std::vector<ag::Variable> params, float lr)
      : params_(std::move(params)), lr_(lr) {}
  virtual ~Optimizer() = default;

  // Applies one update using the accumulated gradients.
  virtual void Step() = 0;

  void ZeroGrad() {
    for (auto& p : params_) p.ZeroGrad();
  }

  float lr() const { return lr_; }
  void set_lr(float lr) { lr_ = lr; }
  const std::vector<ag::Variable>& params() const { return params_; }

 protected:
  std::vector<ag::Variable> params_;
  float lr_;
};

// Plain SGD with optional momentum.
class SGD : public Optimizer {
 public:
  SGD(std::vector<ag::Variable> params, float lr, float momentum = 0.0f)
      : Optimizer(std::move(params), lr), momentum_(momentum) {
    if (momentum_ > 0.0f) {
      for (const auto& p : params_) {
        velocity_.push_back(Tensor::Zeros(p.value().shape()));
      }
    }
  }

  void Step() override {
    for (size_t i = 0; i < params_.size(); ++i) {
      auto& p = params_[i];
      if (!p.has_grad()) continue;
      Tensor update = p.grad().Clone();
      if (momentum_ > 0.0f) {
        velocity_[i].ScaleInplace(momentum_);
        velocity_[i].AddInplace(update);
        update = velocity_[i].Clone();
      }
      p.SetValue(p.value().Sub(update.MulScalar(lr_)));
    }
  }

 private:
  float momentum_;
  std::vector<Tensor> velocity_;
};

// Adam (Kingma & Ba, 2015) with coupled L2 weight decay (added to the
// gradient, as in torch.optim.Adam's weight_decay).
class Adam : public Optimizer {
 public:
  Adam(std::vector<ag::Variable> params, float lr, float beta1 = 0.9f,
       float beta2 = 0.999f, float eps = 1e-8f, float weight_decay = 0.0f)
      : Optimizer(std::move(params), lr),
        beta1_(beta1),
        beta2_(beta2),
        eps_(eps),
        weight_decay_(weight_decay) {
    for (const auto& p : params_) {
      m_.push_back(Tensor::Zeros(p.value().shape()));
      v_.push_back(Tensor::Zeros(p.value().shape()));
    }
  }

  void Step() override {
    ++step_;
    const float bias1 = 1.0f - std::pow(beta1_, static_cast<float>(step_));
    const float bias2 = 1.0f - std::pow(beta2_, static_cast<float>(step_));
    for (size_t i = 0; i < params_.size(); ++i) {
      auto& p = params_[i];
      if (!p.has_grad()) continue;
      // m = b1 m + (1-b1) g ; v = b2 v + (1-b2) g^2 ; w -= lr m^ / (sqrt(v^)
      // + eps) -- all in place. The weight decay term is folded into the
      // loop (gj = g + wd * w, the same float expression the old
      // materialized `g.Add(w.MulScalar(wd))` computed per element), and
      // the parameter is updated through mutable_value() instead of a
      // Clone/SetValue round trip: the grad buffer and the weight storage
      // are both stable across steps, so a steady-state step allocates
      // nothing here. Each element updates independently, so the chunked
      // loop is exact at any thread count.
      Tensor& m = m_[i];
      Tensor& v = v_[i];
      float* mp = m.mutable_data();
      float* vp = v.mutable_data();
      const float* gp = p.grad().data();
      const int64_t n = p.grad().numel();
      float* w = p.mutable_value().mutable_data();
      const float beta1 = beta1_, beta2 = beta2_, eps = eps_, lr = lr_;
      const float wd = weight_decay_;
      common::ParallelFor(0, n, kOptimizerGrain, [&](int64_t s, int64_t e) {
        for (int64_t j = s; j < e; ++j) {
          const float gj = wd > 0.0f ? gp[j] + w[j] * wd : gp[j];
          mp[j] = beta1 * mp[j] + (1.0f - beta1) * gj;
          vp[j] = beta2 * vp[j] + (1.0f - beta2) * gj * gj;
          const float m_hat = mp[j] / bias1;
          const float v_hat = vp[j] / bias2;
          w[j] -= lr * m_hat / (std::sqrt(v_hat) + eps);
        }
      });
    }
  }

  int64_t step_count() const { return step_; }

  // Persists the moment estimates and step counter so training can resume
  // exactly (the parameters themselves are saved by core::SaveCheckpoint).
  Status SaveState(const std::string& path) const {
    std::ofstream out(path, std::ios::binary);
    if (!out) return Status::IOError("cannot open " + path);
    const uint64_t count = m_.size();
    out.write(reinterpret_cast<const char*>(&step_), sizeof(step_));
    out.write(reinterpret_cast<const char*>(&count), sizeof(count));
    for (const auto& list : {&m_, &v_}) {
      for (const Tensor& t : *list) {
        const int64_t n = t.numel();
        out.write(reinterpret_cast<const char*>(&n), sizeof(n));
        out.write(reinterpret_cast<const char*>(t.data()),
                  static_cast<std::streamsize>(n * sizeof(float)));
      }
    }
    if (!out.good()) return Status::IOError("write failed for " + path);
    return Status::OK();
  }

  // Restores state saved by SaveState; the optimizer must be constructed
  // over the same parameter list.
  Status LoadState(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    if (!in) return Status::IOError("cannot open " + path);
    int64_t step = 0;
    uint64_t count = 0;
    in.read(reinterpret_cast<char*>(&step), sizeof(step));
    in.read(reinterpret_cast<char*>(&count), sizeof(count));
    if (count != m_.size()) {
      return Status::InvalidArgument(
          "state has " + std::to_string(count) + " slots, optimizer has " +
          std::to_string(m_.size()));
    }
    for (auto* list : {&m_, &v_}) {
      for (Tensor& t : *list) {
        int64_t n = 0;
        in.read(reinterpret_cast<char*>(&n), sizeof(n));
        if (n != t.numel()) {
          return Status::InvalidArgument("moment tensor size mismatch");
        }
        in.read(reinterpret_cast<char*>(t.mutable_data()),
                static_cast<std::streamsize>(n * sizeof(float)));
      }
    }
    if (!in.good()) return Status::IOError("truncated state " + path);
    step_ = step;
    return Status::OK();
  }

 private:
  float beta1_;
  float beta2_;
  float eps_;
  float weight_decay_;
  int64_t step_ = 0;
  std::vector<Tensor> m_;
  std::vector<Tensor> v_;
};

// Multi-milestone learning-rate schedule: lr *= gamma at each milestone
// epoch (the paper decays by 0.3 at epochs {5, 20, 40, 70, 90}).
class MultiStepLR {
 public:
  MultiStepLR(Optimizer* optimizer, std::vector<int64_t> milestones,
              float gamma)
      : optimizer_(optimizer),
        milestones_(std::move(milestones)),
        gamma_(gamma) {}

  // Call once after each epoch with the completed epoch index (0-based).
  void Step(int64_t epoch) {
    for (int64_t m : milestones_) {
      if (epoch + 1 == m) {
        optimizer_->set_lr(optimizer_->lr() * gamma_);
      }
    }
  }

 private:
  Optimizer* optimizer_;
  std::vector<int64_t> milestones_;
  float gamma_;
};

// Early stopping on a validation metric (lower is better), with patience
// matching the paper's setting of 15.
class EarlyStopper {
 public:
  explicit EarlyStopper(int64_t patience) : patience_(patience) {}

  // Returns true if this is a new best value.
  bool Update(float value) {
    if (value < best_) {
      best_ = value;
      bad_epochs_ = 0;
      return true;
    }
    ++bad_epochs_;
    return false;
  }

  bool ShouldStop() const { return bad_epochs_ >= patience_; }
  float best() const { return best_; }

 private:
  int64_t patience_;
  int64_t bad_epochs_ = 0;
  float best_ = std::numeric_limits<float>::infinity();
};

}  // namespace optim
}  // namespace tgcrn

#endif  // TGCRN_OPTIM_OPTIMIZER_H_
