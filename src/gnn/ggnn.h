#pragma once

#include "nn/module.h"
#include "tensor/sparse.h"

namespace gnn4tdl {

/// Gated graph layer (Li et al., GGNN): a GRU cell whose input is the
/// aggregated neighbor message. Dimension-preserving (state stays `dim`).
/// Fi-GNN uses this gate to regulate information flow on feature graphs.
///
/// Survey mapping: Table 5, row "GGNN" — the recurrent update
/// h_v' = GRU(h_v, Σ_{u∈N(v)} Â_vu h_u), which the survey's feature-graph
/// methods (Fi-GNN, Section 4.2) use for interaction modeling. The
/// aggregation is one SpMM; all six gate matmuls run on the shared pool.
class GgnnLayer : public Module {
 public:
  GgnnLayer(size_t dim, Rng& rng);

  /// One propagation step: m = Â h; h' = GRU(h, m).
  Tensor Forward(const Tensor& h, const SparseMatrix& norm_adj) const;

  size_t dim() const { return dim_; }
  const Linear& update_x() const { return update_x_; }
  const Linear& update_h() const { return update_h_; }
  const Linear& reset_x() const { return reset_x_; }
  const Linear& reset_h() const { return reset_h_; }
  const Linear& cand_x() const { return cand_x_; }
  const Linear& cand_h() const { return cand_h_; }

 private:
  size_t dim_;
  Linear update_x_, update_h_;  // z gate
  Linear reset_x_, reset_h_;    // r gate
  Linear cand_x_, cand_h_;      // candidate state
};

}  // namespace gnn4tdl
