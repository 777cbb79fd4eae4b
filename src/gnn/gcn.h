#pragma once

#include "nn/module.h"
#include "tensor/sparse.h"

namespace gnn4tdl {

/// Graph convolution (Kipf & Welling): H' = Â (H W + b), with Â the
/// symmetrically normalized adjacency from Graph::GcnNormalized(). The
/// workhorse layer of most GNN4TDL methods.
///
/// Survey mapping: Table 5, row "GCN" (Section 4.3, basic GNN models) — the
/// spectral message-passing update H^(l+1) = σ(D̃^{-1/2} Ã D̃^{-1/2} H^(l)
/// W^(l)), the default backbone of the instance-graph methods the survey
/// catalogs. Both SpMM and the inner matmul run on the shared thread pool;
/// the layer is bit-exact at every thread count (docs/KERNELS.md).
class GcnLayer : public Module {
 public:
  GcnLayer(size_t in_dim, size_t out_dim, Rng& rng);

  /// `norm_adj` must be n x n with n = h.rows().
  Tensor Forward(const Tensor& h, const SparseMatrix& norm_adj) const;

  /// act(Â (H W + b)) with the aggregation and activation fused into one
  /// tape node (nn/fused.h); bit-identical to Forward() followed by the
  /// activation.
  Tensor Forward(const Tensor& h, const SparseMatrix& norm_adj,
                 Activation act) const;

  size_t in_dim() const { return linear_.in_dim(); }
  size_t out_dim() const { return linear_.out_dim(); }
  const Linear& linear() const { return linear_; }

 private:
  Linear linear_;
};

}  // namespace gnn4tdl
