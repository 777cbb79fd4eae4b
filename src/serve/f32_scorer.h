#pragma once

#include <utility>
#include <vector>

#include "common/status.h"
#include "graph/graph.h"
#include "kernels/fmatrix.h"
#include "models/knn_gnn.h"

namespace gnn4tdl {

/// Single-precision forward-only scorer for every backbone: the model's
/// eval-mode forward (the steps ScoreOnGraph runs) over the dispatched f32
/// kernels (kernels::Dispatch(): AVX2+FMA when the CPU has it, bit-identical
/// scalar otherwise). Build() casts the trained parameters down once; the
/// double training state is never touched again. Per-batch operators are
/// normalized in double and cast down; steps with no f32 kernel (GGNN gate
/// products, layer norm, row softmax, PairNorm) widen to double and narrow
/// back. Logits stay within 1e-3 of the f64 path (docs/KERNELS.md, enforced
/// by tests/serve_precision_test.cc).
class F32Scorer {
 public:
  /// Casts the trained parameters of a fitted/restored model, which must
  /// outlive the scorer.
  static StatusOr<F32Scorer> Build(const InstanceGraphGnn& model) {
    StatusOr<InstanceGraphGnn::F32Weights> weights = model.CastWeightsToF32();
    if (!weights.ok()) return weights.status();
    return F32Scorer(&model, std::move(*weights));
  }

  /// Forward pass on an attached batch: `x` holds one f32 feature row per
  /// node of `graph`, `degrees` are the extended-graph degrees the
  /// normalization must use (same contract as ScoreOnGraph's
  /// degree_override). Returns per-node head logits, NaN on the rows the
  /// layers cannot compute exactly.
  StatusOr<kernels::FMatrix> Score(const kernels::FMatrix& x,
                                   const Graph& graph,
                                   const std::vector<double>& degrees) const {
    return model_->ScoreOnGraphF32(x, graph, degrees, weights_);
  }

 private:
  F32Scorer(const InstanceGraphGnn* model,
            InstanceGraphGnn::F32Weights weights)
      : model_(model), weights_(std::move(weights)) {}

  const InstanceGraphGnn* model_;
  InstanceGraphGnn::F32Weights weights_;
};

}  // namespace gnn4tdl
