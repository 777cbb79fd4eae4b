#pragma once

#include "nn/module.h"
#include "tensor/sparse.h"

namespace gnn4tdl {

/// Graph isomorphism layer (Xu et al.): H' = MLP((1 + eps) H + sum_nbr(H))
/// with a learnable eps. `sum_adj` is the *unnormalized* adjacency
/// (Graph::adjacency()): GIN's expressiveness argument relies on sum
/// aggregation.
///
/// Survey mapping: Table 5, row "GIN" (Section 4.3) — the
/// Weisfeiler-Lehman-strength update h_v' = MLP((1 + ε) h_v + Σ_{u∈N(v)}
/// h_u), cited by the survey for maximal discriminative power among
/// neighborhood aggregators. Sum aggregation is one SpMM; the MLP is
/// thread-pool matmuls — bit-exact at every thread count.
class GinLayer : public Module {
 public:
  GinLayer(size_t in_dim, size_t out_dim, size_t hidden_dim, Rng& rng);

  Tensor Forward(const Tensor& h, const SparseMatrix& sum_adj) const;

  /// Forward followed by `act`, fused into the MLP's last layer node.
  Tensor Forward(const Tensor& h, const SparseMatrix& sum_adj,
                 Activation act) const;

  size_t in_dim() const { return mlp_.in_dim(); }
  size_t out_dim() const { return mlp_.out_dim(); }
  const Mlp& mlp() const { return mlp_; }

  /// Current value of the learnable eps.
  double epsilon() const { return eps_.value()(0, 0); }

 private:
  Mlp mlp_;
  Tensor eps_;  // 1 x 1
};

}  // namespace gnn4tdl
