// Copyright 2026 TGCRN Reproduction Authors
#include "nn/module.h"

#include <cstdint>

namespace tgcrn {
namespace nn {

std::vector<ag::Variable> Module::Parameters() const {
  std::vector<ag::Variable> out;
  for (const auto& [name, p] : params_) out.push_back(p);
  for (const auto& [name, child] : children_) {
    auto sub = child->Parameters();
    out.insert(out.end(), sub.begin(), sub.end());
  }
  return out;
}

std::vector<std::pair<std::string, ag::Variable>> Module::NamedParameters()
    const {
  std::vector<std::pair<std::string, ag::Variable>> out;
  for (const auto& [name, p] : params_) out.emplace_back(name, p);
  for (const auto& [child_name, child] : children_) {
    for (auto& [name, p] : child->NamedParameters()) {
      out.emplace_back(child_name + "." + name, p);
    }
  }
  return out;
}

int64_t Module::NumParameters() const {
  int64_t total = 0;
  for (const auto& p : Parameters()) total += p.numel();
  return total;
}

void Module::ZeroGrad() {
  for (auto& p : Parameters()) p.ZeroGrad();
}

void Module::SetTraining(bool training) {
  training_ = training;
  for (auto& [name, child] : children_) child->SetTraining(training);
}

ag::Variable Module::RegisterParameter(std::string name, Tensor init) {
  ag::Variable param(std::move(init), /*requires_grad=*/true);
  params_.emplace_back(std::move(name), param);
  return param;
}

void Module::RegisterModule(std::string name, Module* module) {
  TGCRN_CHECK(module != nullptr);
  children_.emplace_back(std::move(name), module);
}

void Module::CopyParametersFrom(const Module& other) {
  auto dst = Parameters();
  auto src = other.Parameters();
  TGCRN_CHECK_EQ(dst.size(), src.size());
  for (size_t i = 0; i < dst.size(); ++i) {
    TGCRN_CHECK(dst[i].value().shape() == src[i].value().shape());
    dst[i].SetValue(src[i].value().Clone());
  }
}

}  // namespace nn
}  // namespace tgcrn
