#include "models/knn_gnn.h"

#include <algorithm>
#include <cmath>

#include "data/metrics.h"
#include "gnn/appnp.h"
#include "gnn/graph_transformer.h"
#include "graph/sampling.h"
#include "kernels/kernels.h"
#include "nn/fused.h"
#include "nn/ops.h"
#include "nn/serialize.h"

namespace gnn4tdl {

const char* GnnBackboneName(GnnBackbone b) {
  switch (b) {
    case GnnBackbone::kGcn:
      return "gcn";
    case GnnBackbone::kSage:
      return "sage";
    case GnnBackbone::kGat:
      return "gat";
    case GnnBackbone::kGin:
      return "gin";
    case GnnBackbone::kGgnn:
      return "ggnn";
    case GnnBackbone::kAppnp:
      return "appnp";
    case GnnBackbone::kTransformer:
      return "graph_transformer";
  }
  return "unknown";
}

StatusOr<GnnBackbone> GnnBackboneFromName(const std::string& name) {
  if (name == "gcn") return GnnBackbone::kGcn;
  if (name == "sage") return GnnBackbone::kSage;
  if (name == "gat") return GnnBackbone::kGat;
  if (name == "gin") return GnnBackbone::kGin;
  if (name == "ggnn") return GnnBackbone::kGgnn;
  if (name == "appnp") return GnnBackbone::kAppnp;
  if (name == "graph_transformer") return GnnBackbone::kTransformer;
  return Status::InvalidArgument("unknown GNN backbone: '" + name + "'");
}

const char* GraphSourceName(GraphSource s) {
  switch (s) {
    case GraphSource::kKnn:
      return "knn";
    case GraphSource::kMissingAwareKnn:
      return "missing_aware_knn";
    case GraphSource::kThreshold:
      return "threshold";
    case GraphSource::kFullyConnected:
      return "fully_connected";
    case GraphSource::kMultiplexFlatten:
      return "same_feature_value";
    case GraphSource::kPrecomputed:
      return "precomputed";
  }
  return "unknown";
}

const char* TrainStrategyName(TrainStrategy s) {
  switch (s) {
    case TrainStrategy::kEndToEnd:
      return "end_to_end";
    case TrainStrategy::kTwoStage:
      return "two_stage";
    case TrainStrategy::kPretrainFinetune:
      return "pretrain_finetune";
  }
  return "unknown";
}

/// The message-passing operators a backbone consumes, derived from a graph.
/// Kept separate from the Encoder's parameters so the same trained weights
/// can run on a different graph — the mechanism behind inductive prediction
/// on unseen rows (Section 2.5e).
struct InstanceGraphGnn::Operators {
  SparseMatrix sparse;
  GatLayer::EdgeIndex edge_index;
  Matrix dense;

  static Operators Build(GnnBackbone backbone, const Graph& graph,
                         const std::vector<double>* degree_override = nullptr) {
    Operators out;
    switch (backbone) {
      case GnnBackbone::kGcn:
      case GnnBackbone::kAppnp:
        out.sparse = degree_override
                         ? GcnNormalizedWithDegrees(graph, *degree_override)
                         : graph.GcnNormalized();
        break;
      case GnnBackbone::kSage:
      case GnnBackbone::kGgnn:
        out.sparse = degree_override
                         ? RowNormalizedWithDegrees(graph, *degree_override)
                         : graph.RowNormalized();
        break;
      case GnnBackbone::kGin:
        out.sparse = graph.adjacency();
        break;
      case GnnBackbone::kGat:
        out.edge_index = GatLayer::BuildEdgeIndex(graph);
        break;
      case GnnBackbone::kTransformer:
        out.dense = (degree_override
                         ? GcnNormalizedWithDegrees(graph, *degree_override)
                         : graph.GcnNormalized())
                        .ToDense();
        break;
    }
    return out;
  }
};

namespace {

using kernels::FCsr;
using kernels::FMatrix;

/// Eval-mode numerics in double: the value functions the tape ops call, with
/// no tape, so ScoreOnGraph reproduces the tape forward of PredictInductive
/// bit for bit.
struct F64Eval {
  using Mat = Matrix;

  const Matrix& W(const Tensor& t) const { return t.value(); }
  Matrix Act(Matrix x, Activation act) const {
    fused::ApplyActivation(&x, act);
    return x;
  }
  Matrix Linear(const Matrix& x, const gnn4tdl::Linear& layer,
                Activation act) const {
    Matrix out = x.Matmul(layer.weight().value());
    if (layer.bias().defined()) {
      fused::AddRowInPlace(&out, layer.bias().value());
    }
    return Act(std::move(out), act);
  }
  Matrix MatMul(const Matrix& a, const Matrix& b) const { return a.Matmul(b); }
  Matrix MatMulNt(const Matrix& a, const Matrix& b) const {
    return a.Matmul(b.Transpose());
  }
  Matrix Spmm(const SparseMatrix& s, const Matrix& x,
              Activation act = Activation::kNone) const {
    return Act(s.Multiply(x), act);
  }
  Matrix AddAct(const Matrix& a, const Matrix& b, Activation act) const {
    return Act(a + b, act);
  }
  /// sa * a + sb * b, each product rounded before the sum.
  Matrix ScaleAdd(const Matrix& a, double sa, const Matrix& b,
                  double sb) const {
    return a * sa + b * sb;
  }
  Matrix Mul(const Matrix& a, const Matrix& b) const { return a.CwiseMul(b); }
  /// (1 - z) ⊙ h + z ⊙ cand: the GGNN state update.
  Matrix GateMix(const Matrix& z, const Matrix& h, const Matrix& cand) const {
    return (Matrix::Ones(z.rows(), z.cols()) - z).CwiseMul(h) +
           z.CwiseMul(cand);
  }
  Matrix ConcatCols(const Matrix& a, const Matrix& b) const {
    return a.ConcatCols(b);
  }
  Matrix LayerNorm(const Matrix& x, const Tensor& gamma,
                   const Tensor& beta) const {
    return ops::LayerNormRowsValue(x, gamma.value(), beta.value());
  }
  Matrix SoftmaxRows(const Matrix& x) const {
    return ops::SoftmaxRowsValue(x);
  }
  Matrix PairNorm(const Matrix& x) const { return ops::PairNormRowsValue(x); }
  /// One GAT head's aggregation: LeakyRelu edge logits from the projected
  /// source and destination scores, softmax over each node's in-edges, then
  /// the attention-weighted sum of `hw` rows.
  Matrix EdgeAttention(const Matrix& s_src, const Matrix& s_dst,
                       const Matrix& hw,
                       const GatLayer::EdgeIndex& edges) const {
    Matrix logits = s_src.GatherRows(edges.src) + s_dst.GatherRows(edges.dst);
    fused::ApplyActivation(&logits, Activation::kLeakyRelu);
    const Matrix alpha = SegmentSoftmax(logits, edges.dst, edges.num_nodes);
    SparseMatrix weighted = edges.pattern;
    std::vector<double>& values = weighted.mutable_values();
    for (size_t e = 0; e < edges.slot.size(); ++e) {
      values[edges.slot[e]] = alpha(e, 0);
    }
    return weighted.Multiply(hw);
  }
};

/// Eval-mode numerics in f32: the kernels:: tier over weights cast once
/// (InstanceGraphGnn::CastWeightsToF32). Steps with no f32 kernel (GGNN's
/// gate products, layer norm, row softmax, PairNorm) widen to double, run
/// F64Eval's step and narrow back.
struct F32Eval {
  using Mat = FMatrix;

  /// Runs a kernel that writes its result through a trailing out-pointer.
  template <typename Kernel, typename... Args>
  static FMatrix Run(Kernel kernel, const Args&... args) {
    FMatrix out;
    kernel(args..., &out);
    return out;
  }

  const FMatrix& W(const Tensor& t) const {
    auto it = weights.find(t.id());
    GNN4TDL_CHECK_MSG(it != weights.end(), "parameter has no f32 cast");
    return it->second;
  }
  FMatrix Act(FMatrix x, Activation act) const {
    if (act != Activation::kNone) {
      kernels::BiasAct(&x, nullptr, ToKernelActivation(act));
    }
    return x;
  }
  FMatrix Linear(const FMatrix& x, const gnn4tdl::Linear& layer,
                 Activation act) const {
    FMatrix out = MatMul(x, W(layer.weight()));
    const float* bias =
        layer.bias().defined() ? W(layer.bias()).data() : nullptr;
    if (bias != nullptr || act != Activation::kNone) {
      kernels::BiasAct(&out, bias, ToKernelActivation(act));
    }
    return out;
  }
  FMatrix MatMul(const FMatrix& a, const FMatrix& b) const {
    return Run(kernels::Matmul, a, b);
  }
  FMatrix MatMulNt(const FMatrix& a, const FMatrix& b) const {
    return Run(kernels::MatmulNt, a, b);
  }
  FMatrix Spmm(const FCsr& s, const FMatrix& x,
               Activation act = Activation::kNone) const {
    FMatrix out;
    kernels::SpmmBiasAct(s, x, nullptr, ToKernelActivation(act), &out);
    return out;
  }
  FMatrix AddAct(const FMatrix& a, const FMatrix& b, Activation act) const {
    return Act(ScaleAdd(a, 1.0, b, 1.0), act);
  }
  FMatrix ScaleAdd(const FMatrix& a, double sa, const FMatrix& b,
                   double sb) const {
    return Run(kernels::ScaleAdd, a, static_cast<float>(sa), b,
               static_cast<float>(sb));
  }
  FMatrix Mul(const FMatrix& a, const FMatrix& b) const {
    return FMatrix::FromDouble(f64.Mul(a.ToDouble(), b.ToDouble()));
  }
  FMatrix GateMix(const FMatrix& z, const FMatrix& h,
                  const FMatrix& cand) const {
    return FMatrix::FromDouble(
        f64.GateMix(z.ToDouble(), h.ToDouble(), cand.ToDouble()));
  }
  FMatrix ConcatCols(const FMatrix& a, const FMatrix& b) const {
    GNN4TDL_CHECK_EQ(a.rows(), b.rows());
    FMatrix out(a.rows(), a.cols() + b.cols());
    for (size_t r = 0; r < a.rows(); ++r) {
      std::copy(a.row_data(r), a.row_data(r) + a.cols(), out.row_data(r));
      std::copy(b.row_data(r), b.row_data(r) + b.cols(),
                out.row_data(r) + a.cols());
    }
    return out;
  }
  FMatrix LayerNorm(const FMatrix& x, const Tensor& gamma,
                    const Tensor& beta) const {
    return FMatrix::FromDouble(f64.LayerNorm(x.ToDouble(), gamma, beta));
  }
  FMatrix SoftmaxRows(const FMatrix& x) const {
    return FMatrix::FromDouble(f64.SoftmaxRows(x.ToDouble()));
  }
  FMatrix PairNorm(const FMatrix& x) const {
    return FMatrix::FromDouble(f64.PairNorm(x.ToDouble()));
  }
  FMatrix EdgeAttention(const FMatrix& s_src, const FMatrix& s_dst,
                        const FMatrix& hw,
                        const GatLayer::EdgeIndex& edges) const {
    std::vector<float> logits(edges.src.size());
    for (size_t e = 0; e < logits.size(); ++e) {
      logits[e] = kernels::detail::ApplyBiasAct(
          s_src(edges.src[e], 0) + s_dst(edges.dst[e], 0), 0.0f,
          kernels::FAct::kLeakyRelu, 0.2f);
    }
    std::vector<float> alpha;
    kernels::SegmentSoftmax(logits, edges.dst, edges.num_nodes, &alpha);
    FCsr weighted = FCsr::FromDouble(edges.pattern);
    FMatrix out;
    kernels::WeightedSpmm(alpha, edges.slot, &weighted, hw, &out);
    return out;
  }

  const InstanceGraphGnn::F32Weights& weights;
  F64Eval f64;
};

Status CheckScoreInputs(bool fitted, size_t rows, const Graph& graph,
                        const std::vector<double>* degree_override) {
  if (!fitted) return Status::FailedPrecondition("scoring before Fit");
  if (rows != graph.num_nodes()) {
    return Status::InvalidArgument("feature rows do not match graph nodes");
  }
  if (degree_override != nullptr &&
      degree_override->size() != graph.num_nodes()) {
    return Status::InvalidArgument("degree override size mismatch");
  }
  return Status::OK();
}

/// Operators in f32: the double ones cast down once per batch.
struct F32Operators {
  FCsr sparse;
  GatLayer::EdgeIndex edge_index;
  FMatrix dense;
};

template <typename B>
typename B::Mat MlpEval(const B& b, const Mlp& mlp, typename B::Mat h) {
  const size_t n = mlp.layers().size();
  for (size_t i = 0; i < n; ++i) {
    h = b.Linear(h, *mlp.layers()[i],
                 i + 1 < n ? mlp.activation() : Activation::kNone);
  }
  return h;
}

template <typename B>
typename B::Mat GatEval(const B& b, const GatLayer& layer,
                        const typename B::Mat& h,
                        const GatLayer::EdgeIndex& edges) {
  typename B::Mat out;
  for (size_t head = 0; head < layer.num_heads(); ++head) {
    const typename B::Mat hw =
        b.Linear(h, layer.head_proj(head), Activation::kNone);
    typename B::Mat agg =
        b.EdgeAttention(b.MatMul(hw, b.W(layer.attn_src(head))),
                        b.MatMul(hw, b.W(layer.attn_dst(head))), hw, edges);
    out = head == 0 ? std::move(agg) : b.ConcatCols(out, agg);
  }
  return out;
}

template <typename B, typename Csr>
typename B::Mat GgnnEval(const B& b, const GgnnLayer& layer,
                         const typename B::Mat& h, const Csr& norm_adj) {
  const typename B::Mat m = b.Spmm(norm_adj, h);
  const auto gate = [&](const gnn4tdl::Linear& from_m,
                        const gnn4tdl::Linear& from_h,
                        const typename B::Mat& state, Activation act) {
    return b.AddAct(b.Linear(m, from_m, Activation::kNone),
                    b.Linear(state, from_h, Activation::kNone), act);
  };
  const typename B::Mat z =
      gate(layer.update_x(), layer.update_h(), h, Activation::kSigmoid);
  const typename B::Mat r =
      gate(layer.reset_x(), layer.reset_h(), h, Activation::kSigmoid);
  const typename B::Mat cand =
      gate(layer.cand_x(), layer.cand_h(), b.Mul(r, h), Activation::kTanh);
  return b.GateMix(z, h, cand);
}

template <typename B>
typename B::Mat TransformerEval(const B& b, const GraphTransformerLayer& layer,
                                const typename B::Mat& h,
                                const typename B::Mat& adj_dense) {
  const typename B::Mat normed =
      b.LayerNorm(h, layer.ln1_gamma(), layer.ln1_beta());
  const typename B::Mat q = b.Linear(normed, layer.query(), Activation::kNone);
  const typename B::Mat k = b.Linear(normed, layer.key(), Activation::kNone);
  const typename B::Mat v = b.Linear(normed, layer.value(), Activation::kNone);
  // softmax(Q K^T / sqrt(dk) + beta * A_hat)
  const typename B::Mat attn = b.SoftmaxRows(b.ScaleAdd(
      b.MatMulNt(q, k),
      1.0 / std::sqrt(static_cast<double>(layer.attn_dim())), adj_dense,
      layer.StructureBias()));
  const typename B::Mat residual = b.AddAct(
      h, b.Linear(b.MatMul(attn, v), layer.out(), Activation::kNone),
      Activation::kNone);
  return b.AddAct(residual,
                  MlpEval(b, layer.ffn(),
                          b.LayerNorm(residual, layer.ln2_gamma(),
                                      layer.ln2_beta())),
                  Activation::kNone);
}

}  // namespace

/// Backbone stack: owns the layers (parameters only; operators are passed to
/// Forward so the weights are graph-independent).
struct InstanceGraphGnn::Encoder : public Module {
  Encoder(const InstanceGraphGnnOptions& options, size_t in_dim, Rng& rng)
      : options_(options) {

    const size_t h = options.hidden_dim;
    size_t dim = in_dim;
    for (size_t l = 0; l < options.num_layers; ++l) {
      switch (options.backbone) {
        case GnnBackbone::kGcn:
          gcn_.push_back(std::make_unique<GcnLayer>(dim, h, rng));
          RegisterSubmodule(gcn_.back().get());
          break;
        case GnnBackbone::kSage:
          sage_.push_back(std::make_unique<SageLayer>(dim, h, rng));
          RegisterSubmodule(sage_.back().get());
          break;
        case GnnBackbone::kGat:
          gat_.push_back(
              std::make_unique<GatLayer>(dim, h, options.gat_heads, rng));
          RegisterSubmodule(gat_.back().get());
          break;
        case GnnBackbone::kGin:
          gin_.push_back(std::make_unique<GinLayer>(dim, h, h, rng));
          RegisterSubmodule(gin_.back().get());
          break;
        case GnnBackbone::kGgnn:
          if (l == 0) {
            input_proj_ = std::make_unique<Linear>(dim, h, rng);
            RegisterSubmodule(input_proj_.get());
            ggnn_ = std::make_unique<GgnnLayer>(h, rng);
            RegisterSubmodule(ggnn_.get());
          }
          break;
        case GnnBackbone::kAppnp:
          if (l == 0) {
            appnp_mlp_ = std::make_unique<Mlp>(
                std::vector<size_t>{dim, h, h}, rng, Activation::kRelu,
                options.dropout);
            RegisterSubmodule(appnp_mlp_.get());
          }
          break;
        case GnnBackbone::kTransformer:
          if (l == 0) {
            input_proj_ = std::make_unique<Linear>(dim, h, rng);
            RegisterSubmodule(input_proj_.get());
          }
          transformer_.push_back(
              std::make_unique<GraphTransformerLayer>(h, h, rng));
          RegisterSubmodule(transformer_.back().get());
          break;
      }
      dim = h;
    }
  }

  Tensor Forward(const Tensor& x, const Operators& graph_ops, Rng& rng,
                 bool training) const {
    const InstanceGraphGnnOptions& o = options_;
    const SparseMatrix& norm_adj_ = graph_ops.sparse;
    const GatLayer::EdgeIndex& edge_index_ = graph_ops.edge_index;
    const Matrix& adj_dense_ = graph_ops.dense;
    Tensor h = x;
    switch (o.backbone) {
      case GnnBackbone::kGcn: {
        std::vector<Tensor> layer_outputs;
        for (size_t l = 0; l < gcn_.size(); ++l) {
          // Interior layers fuse the ReLU into the aggregation node unless
          // PairNorm sits between them (nn/fused.h; bit-exact either way).
          const bool fuse_relu = l + 1 < gcn_.size() && !o.use_pair_norm;
          h = gcn_[l]->Forward(h, norm_adj_,
                               fuse_relu ? Activation::kRelu
                                         : Activation::kNone);
          if (l + 1 < gcn_.size()) {
            if (o.use_pair_norm) {
              h = ops::PairNormRows(h);
              h = ops::Relu(h);
            }
            h = ops::Dropout(h, o.dropout, rng, training);
          }
          if (o.use_jumping_knowledge) layer_outputs.push_back(h);
        }
        if (o.use_jumping_knowledge) {
          Tensor jk = layer_outputs[0];
          for (size_t l = 1; l < layer_outputs.size(); ++l)
            jk = ops::ConcatCols(jk, layer_outputs[l]);
          return ops::Relu(jk);
        }
        return ops::Relu(h);
      }
      case GnnBackbone::kSage:
        for (size_t l = 0; l < sage_.size(); ++l) {
          const bool interior = l + 1 < sage_.size();
          h = sage_[l]->Forward(h, norm_adj_,
                                interior ? Activation::kRelu
                                         : Activation::kNone);
          if (interior) h = ops::Dropout(h, o.dropout, rng, training);
        }
        return ops::Relu(h);
      case GnnBackbone::kGat:
        for (size_t l = 0; l < gat_.size(); ++l) {
          h = gat_[l]->Forward(h, edge_index_);
          if (l + 1 < gat_.size()) {
            h = ops::Relu(h);
            h = ops::Dropout(h, o.dropout, rng, training);
          }
        }
        return ops::Relu(h);
      case GnnBackbone::kGin:
        for (size_t l = 0; l < gin_.size(); ++l) {
          h = gin_[l]->Forward(h, norm_adj_);
          if (l + 1 < gin_.size()) {
            h = ops::Dropout(h, o.dropout, rng, training);
          }
        }
        return ops::Relu(h);
      case GnnBackbone::kGgnn: {
        h = ops::Relu(input_proj_->Forward(h));
        for (size_t step = 0; step < o.num_layers; ++step)
          h = ggnn_->Forward(h, norm_adj_);
        return h;
      }
      case GnnBackbone::kAppnp: {
        Tensor h0 = ops::Relu(appnp_mlp_->Forward(h, rng, training));
        return AppnpPropagate(h0, norm_adj_, o.appnp_steps, o.appnp_alpha);
      }
      case GnnBackbone::kTransformer: {
        h = ops::Relu(input_proj_->Forward(h));
        for (const auto& layer : transformer_)
          h = layer->Forward(h, adj_dense_);
        return h;
      }
    }
    GNN4TDL_CHECK_MSG(false, "unknown backbone");
    return h;
  }

  /// Forward's eval-mode steps (dropout off), written once over the numeric
  /// backend `B`: F64Eval for ScoreOnGraph, F32Eval for ScoreOnGraphF32.
  /// `ops` holds the per-batch operators in the backend's types.
  template <typename B, typename Ops>
  typename B::Mat Eval(const B& b, typename B::Mat h, const Ops& ops) const {
    using Mat = typename B::Mat;
    const InstanceGraphGnnOptions& o = options_;
    switch (o.backbone) {
      case GnnBackbone::kGcn: {
        std::vector<Mat> layer_outputs;
        for (size_t l = 0; l < gcn_.size(); ++l) {
          const bool interior = l + 1 < gcn_.size();
          h = b.Spmm(ops.sparse,
                     b.Linear(h, gcn_[l]->linear(), Activation::kNone),
                     interior && !o.use_pair_norm ? Activation::kRelu
                                                  : Activation::kNone);
          if (interior && o.use_pair_norm) {
            h = b.Act(b.PairNorm(h), Activation::kRelu);
          }
          if (o.use_jumping_knowledge) layer_outputs.push_back(h);
        }
        if (o.use_jumping_knowledge) {
          h = layer_outputs[0];
          for (size_t l = 1; l < layer_outputs.size(); ++l)
            h = b.ConcatCols(h, layer_outputs[l]);
        }
        return b.Act(std::move(h), Activation::kRelu);
      }
      case GnnBackbone::kSage:
        for (size_t l = 0; l < sage_.size(); ++l) {
          const SageLayer& layer = *sage_[l];
          h = b.AddAct(
              b.Linear(h, layer.self(), Activation::kNone),
              b.Linear(b.Spmm(ops.sparse, h), layer.neighbor(),
                       Activation::kNone),
              l + 1 < sage_.size() ? Activation::kRelu : Activation::kNone);
        }
        return b.Act(std::move(h), Activation::kRelu);
      case GnnBackbone::kGat:
        for (size_t l = 0; l < gat_.size(); ++l) {
          h = GatEval(b, *gat_[l], h, ops.edge_index);
          if (l + 1 < gat_.size()) h = b.Act(std::move(h), Activation::kRelu);
        }
        return b.Act(std::move(h), Activation::kRelu);
      case GnnBackbone::kGin:
        for (const auto& layer : gin_) {
          // mlp((1 + eps) h + sum_nbr(h)), the scaled term as h + eps h.
          Mat agg = b.Spmm(ops.sparse, h);
          h = MlpEval(b, layer->mlp(),
                      b.AddAct(b.ScaleAdd(h, layer->epsilon(), h, 1.0), agg,
                               Activation::kNone));
        }
        return b.Act(std::move(h), Activation::kRelu);
      case GnnBackbone::kGgnn:
        h = b.Linear(h, *input_proj_, Activation::kRelu);
        for (size_t step = 0; step < o.num_layers; ++step)
          h = GgnnEval(b, *ggnn_, h, ops.sparse);
        return h;
      case GnnBackbone::kAppnp: {
        // AppnpPropagate: H <- (1 - alpha) A H + alpha H0.
        const Mat h0 =
            b.Act(MlpEval(b, *appnp_mlp_, std::move(h)), Activation::kRelu);
        h = h0;
        for (size_t step = 0; step < o.appnp_steps; ++step) {
          h = b.ScaleAdd(b.Spmm(ops.sparse, h), 1.0 - o.appnp_alpha, h0,
                         o.appnp_alpha);
        }
        return h;
      }
      case GnnBackbone::kTransformer:
        h = b.Linear(h, *input_proj_, Activation::kRelu);
        for (const auto& layer : transformer_)
          h = TransformerEval(b, *layer, h, ops.dense);
        return h;
    }
    GNN4TDL_CHECK_MSG(false, "unknown backbone");
    return h;
  }

  InstanceGraphGnnOptions options_;
  std::vector<std::unique_ptr<GcnLayer>> gcn_;
  std::vector<std::unique_ptr<SageLayer>> sage_;
  std::vector<std::unique_ptr<GatLayer>> gat_;
  std::vector<std::unique_ptr<GinLayer>> gin_;
  std::unique_ptr<Linear> input_proj_;
  std::unique_ptr<GgnnLayer> ggnn_;
  std::unique_ptr<Mlp> appnp_mlp_;
  std::vector<std::unique_ptr<GraphTransformerLayer>> transformer_;
};

InstanceGraphGnn::InstanceGraphGnn(InstanceGraphGnnOptions options)
    : options_(std::move(options)),
      rng_(options_.seed),
      featurizer_(options_.featurizer) {}

InstanceGraphGnn::~InstanceGraphGnn() = default;

void InstanceGraphGnn::SetGraph(Graph graph) {
  graph_ = std::move(graph);
  graph_set_ = true;
}

std::string InstanceGraphGnn::Name() const {
  return std::string(GraphSourceName(options_.graph_source)) + "+" +
         GnnBackboneName(options_.backbone);
}

Tensor InstanceGraphGnn::Encode(const Tensor& x, bool training) const {
  return encoder_->Forward(x, *operators_, rng_, training);
}

Tensor InstanceGraphGnn::SelfSupervisedLoss(const Matrix& x_features) const {
  // Default self-supervised objective for the two-phase strategies: a
  // denoising feature reconstruction (SLAPS-style), plus contrastive if
  // configured.
  Matrix mask;
  Matrix corrupted = MaskCorrupt(
      x_features,
      options_.dae_weight > 0 ? options_.dae_corrupt_rate : 0.15, rng_, &mask);
  Tensor emb = Encode(Tensor::Constant(corrupted), /*training=*/true);
  Tensor loss = recon_->Loss(emb, x_features, &mask);
  if (options_.contrastive_weight > 0.0) {
    Matrix view1 =
        MaskCorrupt(x_features, options_.contrastive_corrupt_rate, rng_);
    Matrix view2 =
        MaskCorrupt(x_features, options_.contrastive_corrupt_rate, rng_);
    Tensor z1 = Encode(Tensor::Constant(view1), true);
    Tensor z2 = Encode(Tensor::Constant(view2), true);
    loss = ops::Add(loss, ops::Scale(NtXentLoss(z1, z2,
                                                options_.contrastive_temperature),
                                     options_.contrastive_weight));
  }
  return loss;
}

Status InstanceGraphGnn::Fit(const TabularDataset& data, const Split& split) {
  task_ = data.task();
  if (task_ == TaskType::kNone) {
    return Status::FailedPrecondition("dataset has no labels");
  }
  GNN4TDL_RETURN_IF_ERROR(featurizer_.Fit(data, split.train));
  StatusOr<Matrix> x = featurizer_.Transform(data);
  if (!x.ok()) return x.status();
  x_cache_ = *x;

  // --- Graph construction (Section 4.2) -----------------------------------
  switch (options_.graph_source) {
    case GraphSource::kKnn:
      graph_ = KnnGraph(x_cache_, options_.knn);
      break;
    case GraphSource::kMissingAwareKnn:
      graph_ = MissingAwareKnnGraph(data, options_.knn.k);
      break;
    case GraphSource::kThreshold:
      graph_ = ThresholdGraph(x_cache_, options_.threshold);
      break;
    case GraphSource::kFullyConnected:
      graph_ = FullyConnectedGraph(x_cache_.rows(), &x_cache_);
      break;
    case GraphSource::kMultiplexFlatten: {
      MultiplexGraph mg = MultiplexFromCategoricals(
          data, {}, options_.multiplex_max_group, options_.seed);
      if (mg.num_layers() == 0) {
        return Status::InvalidArgument(
            "same_feature_value graph requires categorical columns");
      }
      graph_ = mg.Flatten();
      break;
    }
    case GraphSource::kPrecomputed:
      if (!graph_set_) {
        return Status::FailedPrecondition(
            "graph_source=precomputed requires SetGraph() before Fit()");
      }
      if (graph_.num_nodes() != data.NumRows()) {
        return Status::InvalidArgument("precomputed graph node count mismatch");
      }
      break;
  }

  if (options_.neighbor_sample > 0) {
    graph_ = SampleNeighbors(graph_, options_.neighbor_sample, rng_);
  }

  // Table 9 "features used to create edges only": after the graph is built
  // from the features, the nodes carry featureless one-hot ids.
  if (options_.node_init == NodeInit::kIdentity) {
    x_cache_ = Matrix::Identity(data.NumRows());
  }

  // --- Model assembly -------------------------------------------------------
  const bool regression = task_ == TaskType::kRegression;
  const size_t out_dim =
      regression ? 1 : static_cast<size_t>(data.num_classes());
  encoder_ = std::make_unique<Encoder>(options_, x_cache_.cols(), rng_);
  operators_ = std::make_unique<Operators>(
      Operators::Build(options_.backbone, graph_));
  const bool jk = options_.use_jumping_knowledge &&
                  options_.backbone == GnnBackbone::kGcn;
  const size_t emb_dim =
      jk ? options_.hidden_dim * options_.num_layers : options_.hidden_dim;
  head_ = std::make_unique<Linear>(emb_dim, out_dim, rng_);
  const bool needs_recon =
      options_.reconstruction_weight > 0.0 || options_.dae_weight > 0.0 ||
      options_.strategy != TrainStrategy::kEndToEnd;
  if (needs_recon) {
    recon_ = std::make_unique<FeatureReconstructionTask>(
        emb_dim, x_cache_.cols(), options_.hidden_dim, rng_);
  }

  // --- Label plumbing --------------------------------------------------------
  std::vector<double> train_mask = Split::MaskFor(split.train, data.NumRows());
  std::vector<int> labels_cls;
  Matrix labels_reg;
  if (regression) {
    labels_reg = Matrix(data.NumRows(), 1);
    for (size_t i = 0; i < data.NumRows(); ++i)
      labels_reg(i, 0) = data.regression_labels()[i];
  } else {
    labels_cls = data.class_labels();
  }

  Tensor x_t = Tensor::Constant(x_cache_);
  auto main_loss = [&]() -> Tensor {
    Tensor emb = Encode(x_t, /*training=*/true);
    Tensor out = head_->Forward(emb);
    Tensor loss = regression
                      ? ops::MseLoss(out, labels_reg, train_mask)
                      : ops::SoftmaxCrossEntropy(out, labels_cls, train_mask);
    // End-to-end auxiliary terms (Table 7).
    if (options_.reconstruction_weight > 0.0) {
      loss = ops::Add(loss, ops::Scale(recon_->Loss(emb, x_cache_),
                                       options_.reconstruction_weight));
    }
    if (options_.dae_weight > 0.0) {
      Matrix mask;
      Matrix corrupted =
          MaskCorrupt(x_cache_, options_.dae_corrupt_rate, rng_, &mask);
      Tensor emb_cor = Encode(Tensor::Constant(corrupted), true);
      loss = ops::Add(loss, ops::Scale(recon_->Loss(emb_cor, x_cache_, &mask),
                                       options_.dae_weight));
    }
    if (options_.contrastive_weight > 0.0) {
      Matrix v1 = MaskCorrupt(x_cache_, options_.contrastive_corrupt_rate, rng_);
      Matrix v2 = MaskCorrupt(x_cache_, options_.contrastive_corrupt_rate, rng_);
      Tensor z1 = Encode(Tensor::Constant(v1), true);
      Tensor z2 = Encode(Tensor::Constant(v2), true);
      loss = ops::Add(
          loss, ops::Scale(NtXentLoss(z1, z2, options_.contrastive_temperature),
                           options_.contrastive_weight));
    }
    if (options_.smoothness_weight > 0.0) {
      loss = ops::Add(loss, ops::Scale(SmoothnessPenalty(emb, graph_),
                                       options_.smoothness_weight));
    }
    if (options_.edge_completion_weight > 0.0) {
      loss = ops::Add(
          loss, ops::Scale(EdgeCompletionLoss(
                               emb, graph_,
                               options_.edge_completion_negatives, rng_),
                           options_.edge_completion_weight));
    }
    return loss;
  };

  std::function<double()> val_fn = nullptr;
  if (!split.val.empty()) {
    val_fn = [&, this]() -> double {
      Tensor out = head_->Forward(Encode(x_t, false));
      if (regression) {
        return -Rmse(out.value(), data.regression_labels(), split.val);
      }
      return Accuracy(out.value(), labels_cls, split.val);
    };
  }

  // --- Training strategy (Table 8) ------------------------------------------
  if (options_.strategy == TrainStrategy::kEndToEnd) {
    std::vector<Tensor> params = encoder_->Parameters();
    for (const Tensor& p : head_->Parameters()) params.push_back(p);
    if (recon_ != nullptr)
      for (const Tensor& p : recon_->Parameters()) params.push_back(p);
    Trainer trainer(params, options_.train);
    trainer.Fit(main_loss, val_fn);
  } else {
    // Phase 1: self-supervised encoder training.
    std::vector<Tensor> pre_params = encoder_->Parameters();
    for (const Tensor& p : recon_->Parameters()) pre_params.push_back(p);
    TrainOptions pre_opts = options_.train;
    pre_opts.max_epochs = options_.pretrain_epochs;
    pre_opts.patience = 0;
    Trainer pre_trainer(pre_params, pre_opts);
    pre_trainer.Fit([&]() { return SelfSupervisedLoss(x_cache_); });

    // Phase 2.
    std::vector<Tensor> params;
    if (options_.strategy == TrainStrategy::kTwoStage) {
      params = head_->Parameters();  // encoder frozen
    } else {
      params = encoder_->Parameters();
      for (const Tensor& p : head_->Parameters()) params.push_back(p);
    }
    auto head_loss = [&]() -> Tensor {
      Tensor emb = Encode(x_t, options_.strategy ==
                                   TrainStrategy::kPretrainFinetune);
      Tensor out = head_->Forward(emb);
      return regression
                 ? ops::MseLoss(out, labels_reg, train_mask)
                 : ops::SoftmaxCrossEntropy(out, labels_cls, train_mask);
    };
    Trainer trainer(params, options_.train);
    trainer.Fit(head_loss, val_fn);
  }

  fitted_ = true;
  return Status::OK();
}

StatusOr<Matrix> InstanceGraphGnn::Predict(const TabularDataset& data) {
  if (!fitted_) return Status::FailedPrecondition("Predict before Fit");
  if (data.NumRows() != graph_.num_nodes()) {
    return Status::InvalidArgument(
        "transductive model: Predict() requires the dataset used in Fit()");
  }
  Tensor out = head_->Forward(Encode(Tensor::Constant(x_cache_), false));
  return out.value();
}

StatusOr<Matrix> InstanceGraphGnn::PredictInductive(
    const TabularDataset& new_data) {
  if (!fitted_) return Status::FailedPrecondition("PredictInductive before Fit");
  if (options_.node_init == NodeInit::kIdentity) {
    return Status::FailedPrecondition(
        "identity node init is transductive-only");
  }
  StatusOr<Matrix> x_new_or = featurizer_.Transform(new_data);
  if (!x_new_or.ok()) return x_new_or.status();
  const Matrix& x_new = *x_new_or;
  const size_t n_train = x_cache_.rows();
  const size_t n_new = x_new.rows();

  // Attach each new row to its k nearest *training* rows (it must not rewire
  // the training graph, and new rows must not see each other — matching the
  // one-at-a-time deployment setting).
  std::vector<Edge> edges = graph_.EdgeList();
  const size_t k = std::max<size_t>(options_.knn.k, 1);
  for (size_t i = 0; i < n_new; ++i) {
    for (const KnnHit& hit : ExactTopK(x_new.row_data(i), x_cache_, k,
                                       options_.knn.metric,
                                       options_.knn.gamma)) {
      edges.push_back({n_train + i, hit.index, 1.0});
      edges.push_back({hit.index, n_train + i, 1.0});
    }
  }
  Graph extended = Graph::FromEdges(n_train + n_new, edges,
                                    /*symmetrize=*/false);
  Operators extended_ops = Operators::Build(options_.backbone, extended);

  Matrix x_all = x_cache_.ConcatRows(x_new);
  Tensor emb = encoder_->Forward(Tensor::Constant(x_all), extended_ops, rng_,
                                 /*training=*/false);
  Tensor logits = head_->Forward(emb);
  Matrix out(n_new, logits.cols());
  for (size_t i = 0; i < n_new; ++i)
    std::copy(logits.value().row_data(n_train + i),
              logits.value().row_data(n_train + i) + logits.cols(),
              out.row_data(i));
  return out;
}

StatusOr<Matrix> InstanceGraphGnn::Embeddings() const {
  if (!fitted_) return Status::FailedPrecondition("Embeddings before Fit");
  return Encode(Tensor::Constant(x_cache_), false).value();
}

namespace {

/// Module view over the encoder+head pair, so nn/serialize can write/read
/// the inference-relevant parameters as one deterministic block (auxiliary
/// task heads are deliberately excluded — they are training-only).
class TrainedBundle : public Module {
 public:
  TrainedBundle(Module* encoder, Module* head) {
    RegisterSubmodule(encoder);
    RegisterSubmodule(head);
  }
};

}  // namespace

size_t InstanceGraphGnn::output_dim() const {
  return head_ != nullptr ? head_->out_dim() : 0;
}

Status InstanceGraphGnn::SaveTrainedParameters(std::ostream& out) const {
  if (!fitted_) {
    return Status::FailedPrecondition("SaveTrainedParameters before Fit");
  }
  TrainedBundle bundle(encoder_.get(), head_.get());
  return SaveParameters(bundle, out);
}

Status InstanceGraphGnn::LoadTrainedParameters(std::istream& in) {
  if (encoder_ == nullptr || head_ == nullptr) {
    return Status::FailedPrecondition(
        "LoadTrainedParameters before Fit or RestoreForInference");
  }
  TrainedBundle bundle(encoder_.get(), head_.get());
  return LoadParameters(bundle, in);
}

StatusOr<InstanceGraphGnn::F32Weights> InstanceGraphGnn::CastWeightsToF32()
    const {
  if (encoder_ == nullptr || head_ == nullptr) {
    return Status::FailedPrecondition(
        "CastWeightsToF32 before Fit or RestoreForInference");
  }
  TrainedBundle bundle(encoder_.get(), head_.get());
  F32Weights out;
  for (const Tensor& t : bundle.Parameters()) {
    out.emplace(t.id(), FMatrix::FromDouble(t.value()));
  }
  return out;
}

Status InstanceGraphGnn::RestoreForInference(TaskType task, size_t num_outputs,
                                             Featurizer featurizer, Graph graph,
                                             Matrix x_cache) {
  if (task == TaskType::kNone) {
    return Status::InvalidArgument("cannot restore an unlabeled-task model");
  }
  if (num_outputs == 0) {
    return Status::InvalidArgument("num_outputs must be positive");
  }
  if (graph.num_nodes() != x_cache.rows()) {
    return Status::InvalidArgument(
        "graph node count does not match feature row count");
  }
  task_ = task;
  featurizer_ = std::move(featurizer);
  graph_ = std::move(graph);
  graph_set_ = true;
  x_cache_ = std::move(x_cache);

  encoder_ = std::make_unique<Encoder>(options_, x_cache_.cols(), rng_);
  operators_ =
      std::make_unique<Operators>(Operators::Build(options_.backbone, graph_));
  const bool jk = options_.use_jumping_knowledge &&
                  options_.backbone == GnnBackbone::kGcn;
  const size_t emb_dim =
      jk ? options_.hidden_dim * options_.num_layers : options_.hidden_dim;
  head_ = std::make_unique<Linear>(emb_dim, num_outputs, rng_);
  recon_.reset();
  fitted_ = true;
  return Status::OK();
}

StatusOr<Matrix> InstanceGraphGnn::ScoreOnGraph(
    const Matrix& x, const Graph& graph,
    const std::vector<double>* degree_override) const {
  GNN4TDL_RETURN_IF_ERROR(
      CheckScoreInputs(fitted_, x.rows(), graph, degree_override));
  const F64Eval b;
  const Operators ops =
      Operators::Build(options_.backbone, graph, degree_override);
  return b.Linear(encoder_->Eval(b, x, ops), *head_, Activation::kNone);
}

StatusOr<FMatrix> InstanceGraphGnn::ScoreOnGraphF32(
    const FMatrix& x, const Graph& graph, const std::vector<double>& degrees,
    const F32Weights& weights) const {
  GNN4TDL_RETURN_IF_ERROR(
      CheckScoreInputs(fitted_, x.rows(), graph, &degrees));
  // Normalized in double with the same degrees as the f64 path, then cast.
  Operators ops = Operators::Build(options_.backbone, graph, &degrees);
  const F32Operators ops32{FCsr::FromDouble(ops.sparse),
                           std::move(ops.edge_index),
                           FMatrix::FromDouble(ops.dense)};
  const F32Eval b{weights, F64Eval{}};
  return b.Linear(encoder_->Eval(b, x, ops32), *head_, Activation::kNone);
}

}  // namespace gnn4tdl
