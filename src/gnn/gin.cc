#include "gnn/gin.h"

namespace gnn4tdl {

GinLayer::GinLayer(size_t in_dim, size_t out_dim, size_t hidden_dim, Rng& rng)
    : mlp_({in_dim, hidden_dim, out_dim}, rng, Activation::kRelu) {
  RegisterSubmodule(&mlp_);
  eps_ = RegisterParameter(Matrix::Zeros(1, 1));
}

}  // namespace gnn4tdl
