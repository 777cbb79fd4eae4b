#include "nn/module.h"

#include <memory>

#include "common/check.h"
#include "nn/fused.h"

namespace gnn4tdl {

std::vector<Tensor> Module::Parameters() const {
  std::vector<Tensor> all = params_;
  for (const Module* sub : submodules_) {
    std::vector<Tensor> sub_params = sub->Parameters();
    all.insert(all.end(), sub_params.begin(), sub_params.end());
  }
  return all;
}

size_t Module::NumParameters() const {
  size_t n = 0;
  for (const Tensor& p : Parameters()) n += p.rows() * p.cols();
  return n;
}

void Module::ZeroGrad() const {
  for (const Tensor& p : Parameters()) p.ZeroGrad();
}

Tensor Module::RegisterParameter(Matrix init) {
  Tensor t = Tensor::Leaf(std::move(init), /*requires_grad=*/true);
  params_.push_back(t);
  return t;
}

void Module::RegisterSubmodule(Module* submodule) {
  GNN4TDL_CHECK(submodule != nullptr);
  submodules_.push_back(submodule);
}

Linear::Linear(size_t in_dim, size_t out_dim, Rng& rng, bool bias)
    : in_dim_(in_dim), out_dim_(out_dim) {
  weight_ = RegisterParameter(Matrix::GlorotUniform(in_dim, out_dim, rng));
  if (bias) bias_ = RegisterParameter(Matrix::Zeros(1, out_dim));
}

Tensor Linear::Forward(const Tensor& x) const {
  return Forward(x, Activation::kNone);
}

Tensor Linear::Forward(const Tensor& x, Activation act) const {
  GNN4TDL_CHECK_EQ(x.cols(), in_dim_);
  return fused::LinearBiasAct(x, weight_, bias_, act);
}

Activation ActivationFromName(const std::string& name) {
  if (name == "relu") return Activation::kRelu;
  if (name == "leaky_relu") return Activation::kLeakyRelu;
  if (name == "sigmoid") return Activation::kSigmoid;
  if (name == "tanh") return Activation::kTanh;
  if (name == "none") return Activation::kNone;
  GNN4TDL_CHECK_MSG(false, "unknown activation name");
  return Activation::kNone;
}

kernels::FAct ToKernelActivation(Activation act) {
  switch (act) {
    case Activation::kRelu:
      return kernels::FAct::kRelu;
    case Activation::kLeakyRelu:
      return kernels::FAct::kLeakyRelu;
    case Activation::kSigmoid:
      return kernels::FAct::kSigmoid;
    case Activation::kTanh:
      return kernels::FAct::kTanh;
    case Activation::kNone:
      return kernels::FAct::kNone;
  }
  GNN4TDL_CHECK_MSG(false, "unknown activation");
  return kernels::FAct::kNone;
}

Mlp::Mlp(const std::vector<size_t>& dims, Rng& rng, Activation act,
         double dropout)
    : act_(act), dropout_(dropout) {
  GNN4TDL_CHECK_GE(dims.size(), 2u);
  for (size_t i = 0; i + 1 < dims.size(); ++i) {
    layers_.push_back(std::make_unique<Linear>(dims[i], dims[i + 1], rng));
    RegisterSubmodule(layers_.back().get());
  }
}

Tensor Mlp::Forward(const Tensor& x, Rng& rng, bool training,
                    Activation last) const {
  Tensor h = x;
  for (size_t i = 0; i < layers_.size(); ++i) {
    if (i + 1 < layers_.size()) {
      h = layers_[i]->Forward(h, act_);
      h = ops::Dropout(h, dropout_, rng, training);
    } else {
      h = layers_[i]->Forward(h, last);
    }
  }
  return h;
}

Tensor Mlp::Forward(const Tensor& x, Activation last) const {
  Rng unused(0);
  return Forward(x, unused, /*training=*/false, last);
}

}  // namespace gnn4tdl
