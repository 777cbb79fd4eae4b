#pragma once

#include <memory>
#include <vector>

#include "graph/graph.h"
#include "nn/module.h"
#include "tensor/sparse.h"

namespace gnn4tdl {

/// Graph attention layer (Veličković et al.). Per head: project with W, score
/// each edge with LeakyReLU(a_src·Wh_i + a_dst·Wh_j), softmax over each
/// node's in-edges, aggregate. Heads are concatenated, so out_dim must be a
/// multiple of num_heads. Self-loops are added to the edge set so every node
/// attends at least to itself.
///
/// Survey mapping: Table 5, row "GAT" (Section 4.3) — attention coefficients
/// α_ij = softmax_j(LeakyReLU(aᵀ [W h_i ; W h_j])) and update
/// h_i' = σ(Σ_j α_ij W h_j). The per-destination softmax is the
/// SegmentSoftmax kernel (tensor/sparse), whose forward and backward are
/// tree-reduced on the shared pool — bit-identical at every thread count.
class GatLayer : public Module {
 public:
  GatLayer(size_t in_dim, size_t out_dim, size_t num_heads, Rng& rng);

  /// Precomputes the edge arrays (with self-loops) for `g`; call once per
  /// graph, then Forward() any number of times. Alongside the flat edge
  /// arrays it carries the fixed CSR sparsity (row = dst, col = src, stored
  /// in edge order within each row) and the edge -> CSR-slot map, so each
  /// Forward() only stamps attention weights into the pattern and runs the
  /// SpMM kernel — no per-call graph assembly, and the per-destination
  /// accumulation order matches the edge order exactly.
  struct EdgeIndex {
    std::vector<size_t> src;
    std::vector<size_t> dst;
    size_t num_nodes = 0;
    SparseMatrix pattern;      // values are placeholders, overwritten per call
    std::vector<size_t> slot;  // slot[e] = index into pattern values for edge e
  };
  static EdgeIndex BuildEdgeIndex(const Graph& g);

  Tensor Forward(const Tensor& h, const EdgeIndex& edges) const;

  size_t in_dim() const { return in_dim_; }
  size_t out_dim() const { return head_dim_ * num_heads_; }
  size_t num_heads() const { return num_heads_; }
  const Linear& head_proj(size_t head) const { return *head_proj_[head]; }
  const Tensor& attn_src(size_t head) const { return attn_src_[head]; }
  const Tensor& attn_dst(size_t head) const { return attn_dst_[head]; }

 private:
  size_t in_dim_;
  size_t head_dim_;
  size_t num_heads_;
  std::vector<std::unique_ptr<Linear>> head_proj_;  // in -> head_dim, no bias
  std::vector<Tensor> attn_src_;                    // head_dim x 1
  std::vector<Tensor> attn_dst_;                    // head_dim x 1
};

}  // namespace gnn4tdl
