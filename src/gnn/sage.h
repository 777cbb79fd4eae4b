#pragma once

#include "nn/module.h"
#include "tensor/sparse.h"

namespace gnn4tdl {

/// GraphSAGE with mean aggregation (Hamilton et al.):
///   H' = H W_self + mean_nbr(H) W_nbr + b.
/// `mean_adj` is the row-normalized adjacency (Graph::RowNormalized());
/// zero-degree nodes fall back to their self term only.
///
/// Survey mapping: Table 5, row "GraphSAGE" (Section 4.3) — the sample-and-
/// aggregate update h_v' = σ(W · [h_v ; AGG({h_u : u ∈ N(v)})]) with mean
/// aggregator, realized here as two thread-pool matmuls plus one SpMM with
/// D^{-1} A. The survey highlights it as the inductive backbone (Section
/// 2.5e); the serve/ path exploits exactly that property.
class SageLayer : public Module {
 public:
  SageLayer(size_t in_dim, size_t out_dim, Rng& rng);

  Tensor Forward(const Tensor& h, const SparseMatrix& mean_adj) const;

  /// act(self + neighbor) with the combine and activation fused into one
  /// tape node (nn/fused.h) when fusion is enabled; bit-identical to
  /// Forward() followed by the activation either way.
  Tensor Forward(const Tensor& h, const SparseMatrix& mean_adj,
                 Activation act) const;

  size_t in_dim() const { return self_.in_dim(); }
  size_t out_dim() const { return self_.out_dim(); }
  const Linear& self() const { return self_; }
  const Linear& neighbor() const { return neighbor_; }

 private:
  Linear self_;
  Linear neighbor_;
};

}  // namespace gnn4tdl
