#pragma once

#include "nn/module.h"

namespace gnn4tdl {

/// Graph isomorphism layer (Xu et al.): the parameters of
/// H' = MLP((1 + eps) H + sum_nbr(H)) with a learnable eps. The neighbor sum
/// runs over the *unnormalized* adjacency: GIN's expressiveness argument
/// relies on sum aggregation. The forward is the kGin case of
/// InstanceGraphGnn's Encoder::Eval.
///
/// Survey mapping: Table 5, row "GIN" (Section 4.3) — the
/// Weisfeiler-Lehman-strength update h_v' = MLP((1 + ε) h_v + Σ_{u∈N(v)}
/// h_u), cited by the survey for maximal discriminative power among
/// neighborhood aggregators. Sum aggregation is one SpMM; the MLP is
/// thread-pool matmuls — bit-exact at every thread count.
class GinLayer : public Module {
 public:
  GinLayer(size_t in_dim, size_t out_dim, size_t hidden_dim, Rng& rng);

  size_t in_dim() const { return mlp_.in_dim(); }
  size_t out_dim() const { return mlp_.out_dim(); }
  const Mlp& mlp() const { return mlp_; }

  /// The learnable eps (1 x 1).
  const Tensor& eps() const { return eps_; }

 private:
  Mlp mlp_;
  Tensor eps_;  // 1 x 1
};

}  // namespace gnn4tdl
