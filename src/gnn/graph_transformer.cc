#include "gnn/graph_transformer.h"

namespace gnn4tdl {

GraphTransformerLayer::GraphTransformerLayer(size_t dim, size_t attn_dim,
                                             Rng& rng)
    : dim_(dim),
      attn_dim_(attn_dim),
      query_(dim, attn_dim, rng, /*bias=*/false),
      key_(dim, attn_dim, rng, /*bias=*/false),
      value_(dim, attn_dim, rng, /*bias=*/false),
      out_(attn_dim, dim, rng),
      ffn_({dim, 2 * dim, dim}, rng, Activation::kRelu) {
  RegisterSubmodule(&query_);
  RegisterSubmodule(&key_);
  RegisterSubmodule(&value_);
  RegisterSubmodule(&out_);
  RegisterSubmodule(&ffn_);
  beta_ = RegisterParameter(Matrix::Ones(1, 1));
  ln1_gamma_ = RegisterParameter(Matrix::Ones(1, dim));
  ln1_beta_ = RegisterParameter(Matrix::Zeros(1, dim));
  ln2_gamma_ = RegisterParameter(Matrix::Ones(1, dim));
  ln2_beta_ = RegisterParameter(Matrix::Zeros(1, dim));
}

}  // namespace gnn4tdl
