#include "construct/learned.h"

#include <algorithm>

#include "common/check.h"
#include "nn/fused.h"
#include "nn/ops.h"

namespace gnn4tdl {

CandidateEdges KnnCandidates(const Matrix& x, size_t k,
                             SimilarityMetric metric) {
  const size_t n = x.rows();
  CandidateEdges out;
  // Collect the symmetric union of directed kNN edges.
  std::vector<std::pair<size_t, size_t>> pairs;
  const std::vector<std::vector<KnnHit>> hits =
      KnnReference(x, metric).TopK(x, k, /*exclude_self=*/true);
  for (size_t i = 0; i < n; ++i) {
    for (const KnnHit& hit : hits[i])
      pairs.push_back({std::min(i, hit.index), std::max(i, hit.index)});
  }
  std::sort(pairs.begin(), pairs.end());
  pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());
  for (const auto& [a, b] : pairs) {
    out.src.push_back(a);
    out.dst.push_back(b);
    out.src.push_back(b);
    out.dst.push_back(a);
  }
  return out;
}

CandidateEdges FullCandidates(size_t n) {
  CandidateEdges out;
  for (size_t i = 0; i < n; ++i)
    for (size_t j = 0; j < n; ++j) {
      if (i == j) continue;
      out.src.push_back(i);
      out.dst.push_back(j);
    }
  return out;
}

MetricGraphLearner::MetricGraphLearner(size_t dim, Rng& rng) {
  (void)rng;
  log_scale_ = RegisterParameter(Matrix::Zeros(dim, 1));  // scale starts at 1
}

Tensor MetricGraphLearner::EdgeWeights(const Tensor& x,
                                       const CandidateEdges& edges) const {
  GNN4TDL_CHECK_EQ(x.cols(), static_cast<size_t>(log_scale_.rows()));
  // Broadcast the per-dimension scale across rows: scale_full = 1_n * s^T.
  Tensor scale_row = ops::Transpose(ops::Exp(log_scale_));  // 1 x d
  Tensor ones_col = Tensor::Constant(Matrix::Ones(x.rows(), 1));
  Tensor scale_full = ops::MatMul(ones_col, scale_row);     // n x d
  Tensor xw = ops::RowL2Normalize(ops::CwiseMul(x, scale_full));

  Tensor hs = ops::GatherRows(xw, edges.src);
  Tensor hd = ops::GatherRows(xw, edges.dst);
  Tensor ones_d = Tensor::Constant(Matrix::Ones(x.cols(), 1));
  Tensor cos = ops::MatMul(ops::CwiseMul(hs, hd), ones_d);  // E x 1
  return ops::Relu(cos);
}

NeuralEdgeScorer::NeuralEdgeScorer(size_t dim, size_t hidden, Rng& rng)
    : mlp_({3 * dim, hidden, 1}, rng, Activation::kRelu) {
  RegisterSubmodule(&mlp_);
}

Tensor NeuralEdgeScorer::EdgeWeights(const Tensor& x,
                                     const CandidateEdges& edges) const {
  Tensor hs = ops::GatherRows(x, edges.src);
  Tensor hd = ops::GatherRows(x, edges.dst);
  Tensor diff = ops::Abs(ops::Sub(hs, hd));
  Tensor feat = ops::ConcatCols(ops::ConcatCols(hs, hd), diff);
  return ops::Sigmoid(mlp_.Forward(feat));
}

DirectAdjacency::DirectAdjacency(size_t num_edges, Rng& rng,
                                 double init_logit) {
  Matrix init(num_edges, 1, init_logit);
  // Small random jitter breaks symmetry between candidate edges.
  for (size_t e = 0; e < num_edges; ++e) init(e, 0) += rng.Normal(0.0, 0.01);
  logits_ = RegisterParameter(std::move(init));
}

Tensor DirectAdjacency::EdgeWeights() const { return ops::Sigmoid(logits_); }

Tensor WeightedAggregate(const Tensor& h, const Tensor& edge_weights,
                         const CandidateEdges& edges, size_t num_nodes) {
  GNN4TDL_CHECK_EQ(edge_weights.rows(), edges.src.size());
  GNN4TDL_CHECK_EQ(edge_weights.cols(), 1u);
  // softmax(log w) over each destination = w / sum(w): a differentiable
  // degree normalization of the learned weights. The whole normalize+gather+
  // scale+scatter chain runs as one fused tape node (nn/fused.h), bit-exact
  // with the unfused Log/EdgeSoftmax/MulColBroadcast/ScatterAddRows chain.
  return fused::NormalizeAggregate(h, edge_weights, edges.src, edges.dst,
                                   num_nodes);
}

}  // namespace gnn4tdl
