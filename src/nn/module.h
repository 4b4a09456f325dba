// Copyright 2026 TGCRN Reproduction Authors
// Base class for neural-network modules: a named parameter registry with
// recursive collection and train/eval mode. Concrete layers own their
// submodules as plain members and register them in their constructor,
// mirroring the torch.nn.Module idiom.
#ifndef TGCRN_NN_MODULE_H_
#define TGCRN_NN_MODULE_H_

#include <string>
#include <utility>
#include <vector>

#include "autograd/variable.h"

namespace tgcrn {
namespace nn {

class Module {
 public:
  virtual ~Module() = default;
  Module() = default;
  // Modules hold registries of pointers into themselves; moving or copying
  // would dangle them.
  Module(const Module&) = delete;
  Module& operator=(const Module&) = delete;

  // All trainable parameters of this module and its submodules.
  std::vector<ag::Variable> Parameters() const;

  // Parameters with hierarchical dotted names ("encoder.cell0.gate_w").
  std::vector<std::pair<std::string, ag::Variable>> NamedParameters() const;

  // Total number of trainable scalars (the paper's "# Parameters").
  int64_t NumParameters() const;

  // Clears gradients on every parameter.
  void ZeroGrad();

  // Switches train/eval mode recursively (affects dropout etc.).
  void SetTraining(bool training);
  bool training() const { return training_; }

  // Copies parameter values from another module with an identical
  // parameter layout (used by early stopping to restore the best weights).
  void CopyParametersFrom(const Module& other);

 protected:
  // Registers a trainable parameter initialized to `init`.
  ag::Variable RegisterParameter(std::string name, Tensor init);

  // Registers a child module (must outlive this module; typically a member).
  void RegisterModule(std::string name, Module* module);

 private:
  std::vector<std::pair<std::string, ag::Variable>> params_;
  std::vector<std::pair<std::string, Module*>> children_;
  bool training_ = true;
};

}  // namespace nn
}  // namespace tgcrn

#endif  // TGCRN_NN_MODULE_H_
