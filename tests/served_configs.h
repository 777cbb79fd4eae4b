#pragma once

// The model configurations every serving contract is checked over: the seven
// Table 5 backbones plus GCN with jumping knowledge, GCN with PairNorm, two
// frontier depths (a 1-layer GCN, whose anchors are input-only, and a
// 3-layer SAGE, whose frontier shrinks twice before the last layer), and a
// GAT trained on a sampled, hence directed, graph. Shared by the
// bit-exactness suite (tests/serve_test.cc), the f32 tolerance suite
// (tests/serve_precision_test.cc) and the encoder gradient checks
// (tests/gradcheck_test.cc).

#include <string>
#include <vector>

#include "models/knn_gnn.h"

namespace gnn4tdl {

/// The first seven values equal the GnnBackbone they serve.
enum class ServedConfig {
  kGcn,
  kSage,
  kGat,
  kGin,
  kGgnn,
  kAppnp,
  kTransformer,
  kGcnJumpingKnowledge,
  kGcnPairNorm,
  kGcnOneLayer,
  kSageThreeLayers,
  kGatSampled,
};

inline std::vector<ServedConfig> AllServedConfigs() {
  return {ServedConfig::kGcn,         ServedConfig::kSage,
          ServedConfig::kGat,         ServedConfig::kGin,
          ServedConfig::kGgnn,        ServedConfig::kAppnp,
          ServedConfig::kTransformer, ServedConfig::kGcnJumpingKnowledge,
          ServedConfig::kGcnPairNorm, ServedConfig::kGcnOneLayer,
          ServedConfig::kSageThreeLayers, ServedConfig::kGatSampled};
}

/// Sets the backbone, the GCN extras and the depth of `config` on `options`.
inline void ApplyServedConfig(ServedConfig config,
                              InstanceGraphGnnOptions* options) {
  switch (config) {
    case ServedConfig::kGcnJumpingKnowledge:
      options->backbone = GnnBackbone::kGcn;
      options->use_jumping_knowledge = true;
      return;
    case ServedConfig::kGcnPairNorm:
      options->backbone = GnnBackbone::kGcn;
      options->use_pair_norm = true;
      return;
    case ServedConfig::kGcnOneLayer:
      options->backbone = GnnBackbone::kGcn;
      options->num_layers = 1;
      return;
    case ServedConfig::kSageThreeLayers:
      options->backbone = GnnBackbone::kSage;
      options->num_layers = 3;
      return;
    case ServedConfig::kGatSampled:
      options->backbone = GnnBackbone::kGat;
      options->neighbor_sample = 3;
      return;
    default:
      options->backbone = static_cast<GnnBackbone>(config);
      return;
  }
}

/// gtest parameter name: the backbone name, with a suffix for the extras.
inline std::string ServedConfigName(ServedConfig config) {
  switch (config) {
    case ServedConfig::kGcnJumpingKnowledge:
      return "gcn_jk";
    case ServedConfig::kGcnPairNorm:
      return "gcn_pairnorm";
    case ServedConfig::kGcnOneLayer:
      return "gcn_1layer";
    case ServedConfig::kSageThreeLayers:
      return "sage_3layer";
    case ServedConfig::kGatSampled:
      return "gat_sampled";
    default:
      return GnnBackboneName(static_cast<GnnBackbone>(config));
  }
}

}  // namespace gnn4tdl
