#include "gnn/ggnn.h"

namespace gnn4tdl {

GgnnLayer::GgnnLayer(size_t dim, Rng& rng)
    : dim_(dim),
      update_x_(dim, dim, rng),
      update_h_(dim, dim, rng, /*bias=*/false),
      reset_x_(dim, dim, rng),
      reset_h_(dim, dim, rng, /*bias=*/false),
      cand_x_(dim, dim, rng),
      cand_h_(dim, dim, rng, /*bias=*/false) {
  RegisterSubmodule(&update_x_);
  RegisterSubmodule(&update_h_);
  RegisterSubmodule(&reset_x_);
  RegisterSubmodule(&reset_h_);
  RegisterSubmodule(&cand_x_);
  RegisterSubmodule(&cand_h_);
}

}  // namespace gnn4tdl
