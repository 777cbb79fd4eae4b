#include "gnn/gat.h"

namespace gnn4tdl {

GatLayer::GatLayer(size_t in_dim, size_t out_dim, size_t num_heads, Rng& rng)
    : in_dim_(in_dim), num_heads_(num_heads) {
  GNN4TDL_CHECK_GT(num_heads, 0u);
  GNN4TDL_CHECK_MSG(out_dim % num_heads == 0,
                    "GAT out_dim must be divisible by num_heads");
  head_dim_ = out_dim / num_heads;
  for (size_t h = 0; h < num_heads; ++h) {
    head_proj_.push_back(
        std::make_unique<Linear>(in_dim, head_dim_, rng, /*bias=*/false));
    RegisterSubmodule(head_proj_.back().get());
    attn_src_.push_back(
        RegisterParameter(Matrix::GlorotUniform(head_dim_, 1, rng)));
    attn_dst_.push_back(
        RegisterParameter(Matrix::GlorotUniform(head_dim_, 1, rng)));
  }
}

}  // namespace gnn4tdl
