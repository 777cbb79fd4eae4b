#pragma once

#include "nn/module.h"

namespace gnn4tdl {

/// Structure-biased transformer layer (Section 6, "incorporating graph
/// transformers"; GPS/Structure-Aware-Transformer style, simplified): full
/// self-attention over all nodes with a learnable additive bias on the
/// adjacency,
///   attn = softmax(Q K^T / sqrt(dk) + beta * A_hat),
///   H'   = H + attn V W_o   (pre-LayerNorm residual), then H' + FFN(LN(H')).
/// Dense n x n attention: intended for the laptop-scale n this library
/// targets (the survey positions transformers as a direction, not a scaling
/// answer). When beta -> 0 the layer ignores the graph; large beta recovers
/// neighborhood-dominated attention — so the model *learns* how much
/// structure to use. This class holds the parameters; the forward is the
/// kTransformer case of InstanceGraphGnn's Encoder::Eval.
///
/// Survey mapping: Section 6 ("future directions: graph transformers"); no
/// Table 5 row — the survey catalogs transformers as an emerging direction
/// rather than an established GNN4TDL backbone. Defining equation:
/// attn = softmax(Q Kᵀ/√d_k + β Â), H' = H + attn · V W_o. The dense
/// n × n attention matmuls dominate cost and are row-partitioned on the
/// shared thread pool; SoftmaxRows is bit-exact at every thread count.
class GraphTransformerLayer : public Module {
 public:
  GraphTransformerLayer(size_t dim, size_t attn_dim, Rng& rng);

  /// The learnable structural-bias strength beta (1 x 1).
  const Tensor& structure_bias() const { return beta_; }

  size_t dim() const { return dim_; }
  size_t attn_dim() const { return attn_dim_; }
  const Linear& query() const { return query_; }
  const Linear& key() const { return key_; }
  const Linear& value() const { return value_; }
  const Linear& out() const { return out_; }
  const Mlp& ffn() const { return ffn_; }
  const Tensor& ln1_gamma() const { return ln1_gamma_; }
  const Tensor& ln1_beta() const { return ln1_beta_; }
  const Tensor& ln2_gamma() const { return ln2_gamma_; }
  const Tensor& ln2_beta() const { return ln2_beta_; }

 private:
  size_t dim_;
  size_t attn_dim_;
  Linear query_, key_, value_, out_;
  Mlp ffn_;
  Tensor beta_;       // 1 x 1 learnable structural-bias strength
  Tensor ln1_gamma_, ln1_beta_;  // pre-attention layer norm
  Tensor ln2_gamma_, ln2_beta_;  // pre-FFN layer norm
};

}  // namespace gnn4tdl
