#include "gnn/gin.h"

#include "nn/ops.h"

namespace gnn4tdl {

GinLayer::GinLayer(size_t in_dim, size_t out_dim, size_t hidden_dim, Rng& rng)
    : mlp_({in_dim, hidden_dim, out_dim}, rng, Activation::kRelu) {
  RegisterSubmodule(&mlp_);
  eps_ = RegisterParameter(Matrix::Zeros(1, 1));
}

Tensor GinLayer::Forward(const Tensor& h, const SparseMatrix& sum_adj) const {
  return Forward(h, sum_adj, Activation::kNone);
}

Tensor GinLayer::Forward(const Tensor& h, const SparseMatrix& sum_adj,
                         Activation act) const {
  GNN4TDL_CHECK_EQ(sum_adj.rows(), h.rows());
  // (1 + eps) * h: broadcast the scalar eps over all entries.
  Tensor ones_col = Tensor::Constant(Matrix::Ones(h.rows(), 1));
  Tensor eps_col = ops::MatMul(ones_col, eps_);          // n x 1 of eps
  Tensor scaled = ops::Add(h, ops::MulColBroadcast(h, eps_col));
  Tensor agg = ops::SpMM(sum_adj, h);
  return mlp_.Forward(ops::Add(scaled, agg), act);
}

}  // namespace gnn4tdl
