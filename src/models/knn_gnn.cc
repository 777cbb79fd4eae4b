#include "models/knn_gnn.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <type_traits>

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

size_t PropagationSteps(const InstanceGraphGnnOptions& o) {
  return o.backbone == GnnBackbone::kAppnp ? o.appnp_steps : o.num_layers;
}

bool NeedsFullNeighborhood(const InstanceGraphGnnOptions& o) {
  return o.backbone == GnnBackbone::kTransformer || o.use_pair_norm;
}

namespace {

/// Under a degree override, a node with no adjacency row but a non-zero
/// degree is input-only: its row was cut off, so only its input is known.
bool InputOnly(const Graph& graph, const std::vector<double>& degrees,
               size_t v) {
  return graph.adjacency().RowNnz(v) == 0 && degrees[v] != 0.0;
}

}  // namespace

/// The message-passing operators a backbone consumes, derived from a graph.
/// Kept separate from the Encoder's parameters so the same trained weights
/// can run on a different graph — the mechanism behind inductive prediction
/// on unseen rows (Section 2.5e).
///
/// Each step (layer) l runs only on the nodes it computes exactly, V_l. V_0
/// is every node; V_l is the nodes of V_{l-1} that are not input-only and
/// whose adjacency row reads only nodes of V_{l-1}. Without a degree
/// override no node is input-only, so every V_l is every node.
struct InstanceGraphGnn::Operators {
  /// One propagation step, from values on V_{l-1} to values on V_l.
  struct Step {
    /// The normalized operator: rows V_l, columns V_{l-1}, both ascending.
    SparseMatrix sparse;
    kernels::FCsr sparse_f32;  // `sparse` cast down for the f32 forward
    /// GAT's attention pattern over the same rows and columns.
    GatLayer::EdgeIndex edge_index;
    /// Position within V_{l-1} of each node of V_l.
    std::vector<size_t> keep;
  };
  /// Step l is steps[l]; once the frontier stops shrinking the last step
  /// repeats.
  std::vector<Step> steps;
  Matrix dense;  // graph transformer: the full GCN operator, dense
  kernels::FMatrix dense_f32;
  /// V_L, the nodes whose outputs every step computes exactly, ascending.
  std::vector<size_t> exact;

  const Step& step(size_t l) const {
    return steps[std::min(l, steps.size() - 1)];
  }

  static Operators Build(const InstanceGraphGnnOptions& o, const Graph& graph,
                         const std::vector<double>* degree_override = nullptr) {
    std::vector<size_t> all(graph.num_nodes());
    std::iota(all.begin(), all.end(), size_t{0});
    Operators out;
    out.exact = all;
    if (degree_override == nullptr ||
        o.backbone == GnnBackbone::kTransformer) {
      // One step over every node: no node is input-only, or (global
      // attention) every node's output reads every node.
      Step step;
      switch (o.backbone) {
        case GnnBackbone::kGcn:
        case GnnBackbone::kAppnp:
          step.sparse = graph.GcnNormalized();
          break;
        case GnnBackbone::kSage:
        case GnnBackbone::kGgnn:
          step.sparse = graph.RowNormalized();
          break;
        case GnnBackbone::kGin:
          step.sparse = graph.adjacency();
          break;
        case GnnBackbone::kGat:
          step.edge_index = GatLayer::BuildEdgeIndex(graph);
          break;
        case GnnBackbone::kTransformer:
          out.dense = (degree_override == nullptr
                           ? graph.GcnNormalized()
                           : BuildStep(GnnBackbone::kGcn, graph.adjacency(),
                                       *degree_override, all, all, all.size())
                                 .sparse)
                          .ToDense();
          break;
      }
      step.keep = std::move(all);
      out.steps.push_back(std::move(step));
      return out;
    }

    const std::vector<double>& deg = *degree_override;
    const SparseMatrix& adj = graph.adjacency();
    constexpr size_t kNone = std::numeric_limits<size_t>::max();
    std::vector<size_t> rows = all;  // V_{l-1}
    std::vector<size_t> pos = all;   // position of each node in V_{l-1}
    const auto kept = [&pos](size_t u) { return pos[u] != kNone; };
    const size_t* reads = adj.col_idx().data();
    for (size_t l = 0; l < PropagationSteps(o); ++l) {
      std::vector<size_t> next;
      std::vector<size_t> keep;
      for (size_t p = 0; p < rows.size(); ++p) {
        const size_t v = rows[p];
        if (InputOnly(graph, deg, v) ||
            !std::all_of(reads + adj.row_ptr()[v],
                         reads + adj.row_ptr()[v + 1], kept)) {
          continue;
        }
        next.push_back(v);
        keep.push_back(p);
      }
      Step step = BuildStep(o.backbone, adj, deg, next, pos, rows.size());
      step.keep = std::move(keep);
      out.steps.push_back(std::move(step));
      const bool shrank = next.size() < rows.size();
      for (size_t v : rows) pos[v] = kNone;
      for (size_t i = 0; i < next.size(); ++i) pos[next[i]] = i;
      rows = std::move(next);
      if (!shrank) break;
    }
    out.exact = std::move(rows);
    return out;
  }

  /// One step's operator built directly in CSR: the rows `rows` of the
  /// backbone's operator under the degrees `deg`, each column u remapped to
  /// pos[u] < cols. Entries keep the order and arithmetic of the full operator
  /// (Graph::GcnNormalized / RowNormalized with `deg`, GatLayer's edge
  /// index), so every per-row sum keeps its floating-point order.
  static Step BuildStep(GnnBackbone backbone, const SparseMatrix& adj,
                        const std::vector<double>& deg,
                        const std::vector<size_t>& rows,
                        const std::vector<size_t>& pos, size_t cols) {
    const auto norm = [&deg](size_t v) {
      const double d = deg[v] + 1.0;
      return d > 0 ? std::sqrt(d) : 1.0;
    };
    std::vector<size_t> row_ptr(1, 0);
    std::vector<size_t> col_idx;
    std::vector<double> values;
    for (size_t v : rows) {
      const size_t begin = adj.row_ptr()[v];
      const size_t end = adj.row_ptr()[v + 1];
      switch (backbone) {
        case GnnBackbone::kGcn:
        case GnnBackbone::kAppnp:
        case GnnBackbone::kTransformer: {
          // D^{-1/2} (A + I) D^{-1/2}: the self-loop merges into an existing
          // diagonal entry or takes its sorted place.
          const double ds = norm(v);
          const double self = 1.0 / (ds * ds);
          bool self_done = false;
          for (size_t e = begin; e < end; ++e) {
            const size_t u = adj.col_idx()[e];
            if (u > v && !self_done) {
              col_idx.push_back(pos[v]);
              values.push_back(self);
              self_done = true;
            }
            double value = adj.values()[e] / (ds * norm(u));
            if (u == v) {
              value += self;
              self_done = true;
            }
            col_idx.push_back(pos[u]);
            values.push_back(value);
          }
          if (!self_done) {
            col_idx.push_back(pos[v]);
            values.push_back(self);
          }
          break;
        }
        case GnnBackbone::kSage:
        case GnnBackbone::kGgnn:
        case GnnBackbone::kGin:
          // D^{-1} A (a zero-degree row stays empty), or A itself for GIN.
          if (backbone != GnnBackbone::kGin && deg[v] == 0.0) break;
          for (size_t e = begin; e < end; ++e) {
            col_idx.push_back(pos[adj.col_idx()[e]]);
            values.push_back(backbone == GnnBackbone::kGin
                                 ? adj.values()[e]
                                 : adj.values()[e] / deg[v]);
          }
          break;
        case GnnBackbone::kGat: {
          // The sources v reads, then its self-loop when the graph has none:
          // GatLayer::BuildEdgeIndex's per-destination order.
          bool has_self = false;
          for (size_t e = begin; e < end; ++e) {
            has_self = has_self || adj.col_idx()[e] == v;
            col_idx.push_back(pos[adj.col_idx()[e]]);
          }
          if (!has_self) col_idx.push_back(pos[v]);
          values.resize(col_idx.size(), 0.0);
          break;
        }
      }
      row_ptr.push_back(col_idx.size());
    }
    Step step;
    if (backbone != GnnBackbone::kGat) {
      step.sparse =
          SparseMatrix::FromCsr(rows.size(), cols, std::move(row_ptr),
                                std::move(col_idx), std::move(values));
      return step;
    }
    GatLayer::EdgeIndex& edges = step.edge_index;
    edges.num_nodes = rows.size();
    edges.src = col_idx;
    for (size_t i = 0; i < rows.size(); ++i) {
      edges.dst.insert(edges.dst.end(), row_ptr[i + 1] - row_ptr[i], i);
    }
    edges.slot.resize(col_idx.size());
    std::iota(edges.slot.begin(), edges.slot.end(), size_t{0});
    edges.pattern = SparseMatrix::FromCsr(rows.size(), cols, std::move(row_ptr),
                                          std::move(col_idx),
                                          std::move(values));
    return step;
  }

  /// Fills the f32 copies of the operators.
  void CastToF32() {
    for (Step& step : steps) {
      step.sparse_f32 = kernels::FCsr::FromDouble(step.sparse);
    }
    dense_f32 = kernels::FMatrix::FromDouble(dense);
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
  template <typename Step>
  const SparseMatrix& Op(const Step& step) const {
    return step.sparse;
  }
  template <typename Ops>
  const Matrix& Dense(const Ops& ops) const {
    return ops.dense;
  }
  Matrix Gather(const Matrix& x, const std::vector<size_t>& rows) const {
    return x.GatherRows(rows);
  }
  Matrix Act(Matrix x, Activation act) const {
    fused::BiasAct(&x, nullptr, act);
    return x;
  }
  Matrix Linear(const Matrix& x, const gnn4tdl::Linear& layer,
                Activation act) const {
    Matrix out = x.Matmul(layer.weight().value());
    fused::BiasAct(&out,
                   layer.bias().defined() ? &layer.bias().value() : nullptr,
                   act);
    return out;
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
    fused::BiasAct(&logits, nullptr, Activation::kLeakyRelu);
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
  template <typename Step>
  const FCsr& Op(const Step& step) const {
    return step.sparse_f32;
  }
  template <typename Ops>
  const FMatrix& Dense(const Ops& ops) const {
    return ops.dense_f32;
  }
  FMatrix Gather(const FMatrix& x, const std::vector<size_t>& rows) const {
    FMatrix out(rows.size(), x.cols());
    for (size_t i = 0; i < rows.size(); ++i) out.SetRow(i, x, rows[i]);
    return out;
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

Status CheckScoreInputs(bool fitted, const InstanceGraphGnnOptions& o,
                        size_t rows, const Graph& graph,
                        const std::vector<double>* degree_override) {
  if (!fitted) return Status::FailedPrecondition("scoring before Fit");
  if (rows != graph.num_nodes()) {
    return Status::InvalidArgument("feature rows do not match graph nodes");
  }
  if (degree_override == nullptr) return Status::OK();
  if (degree_override->size() != graph.num_nodes()) {
    return Status::InvalidArgument("degree override size mismatch");
  }
  if (!NeedsFullNeighborhood(o)) return Status::OK();
  for (size_t v = 0; v < graph.num_nodes(); ++v) {
    if (InputOnly(graph, *degree_override, v)) {
      return Status::InvalidArgument(
          "graph transformer and PairNorm outputs read every node, but node " +
          std::to_string(v) + " is input-only");
    }
  }
  return Status::OK();
}

/// The rows of `h` (one per node of a step's input, V_{l-1}) that the step
/// computes (V_l, at positions `keep`): `h` itself when the step keeps every
/// row, else a gathered copy held in *storage.
template <typename B>
const typename B::Mat& KeptRows(const B& b, const typename B::Mat& h,
                                const std::vector<size_t>& keep,
                                typename B::Mat* storage) {
  if (keep.size() == h.rows()) return h;
  *storage = b.Gather(h, keep);
  return *storage;
}

/// KeptRows in place.
template <typename B>
void KeepRows(const B& b, const std::vector<size_t>& keep,
              typename B::Mat* h) {
  if (keep.size() != h->rows()) *h = b.Gather(*h, keep);
}

/// Widens logits computed on the `exact` nodes to one row per graph node;
/// the rows of every other node are NaN.
template <typename Mat>
Mat ExactRowsOnly(Mat logits, const std::vector<size_t>& exact,
                  size_t num_nodes) {
  if (exact.size() == num_nodes) return logits;
  using T = std::remove_pointer_t<decltype(logits.data())>;
  Mat out(num_nodes, logits.cols());
  std::fill_n(out.data(), out.size(), std::numeric_limits<T>::quiet_NaN());
  for (size_t i = 0; i < exact.size(); ++i) {
    std::copy(logits.row_data(i), logits.row_data(i) + logits.cols(),
              out.row_data(exact[i]));
  }
  return out;
}

/// Mlp::Forward's eval steps; `last` is the output activation.
template <typename B>
typename B::Mat MlpEval(const B& b, const Mlp& mlp, typename B::Mat h,
                        Activation last = Activation::kNone) {
  const size_t n = mlp.layers().size();
  for (size_t i = 0; i < n; ++i) {
    h = b.Linear(h, *mlp.layers()[i], i + 1 < n ? mlp.activation() : last);
  }
  return h;
}

template <typename B, typename Step>
typename B::Mat GatEval(const B& b, const GatLayer& layer,
                        const typename B::Mat& h, const Step& step) {
  typename B::Mat out;
  for (size_t head = 0; head < layer.num_heads(); ++head) {
    const typename B::Mat hw =
        b.Linear(h, layer.head_proj(head), Activation::kNone);
    typename B::Mat kept;
    typename B::Mat agg = b.EdgeAttention(
        b.MatMul(hw, b.W(layer.attn_src(head))),
        b.MatMul(KeptRows(b, hw, step.keep, &kept),
                 b.W(layer.attn_dst(head))),
        hw, step.edge_index);
    out = head == 0 ? std::move(agg) : b.ConcatCols(out, agg);
  }
  return out;
}

template <typename B, typename Step>
typename B::Mat GgnnEval(const B& b, const GgnnLayer& layer,
                         const typename B::Mat& h, const Step& step) {
  const typename B::Mat m = b.Spmm(b.Op(step), h);
  typename B::Mat kept;
  const typename B::Mat& state = KeptRows(b, h, step.keep, &kept);
  const auto gate = [&](const gnn4tdl::Linear& from_m,
                        const gnn4tdl::Linear& from_h,
                        const typename B::Mat& from, Activation act) {
    return b.AddAct(b.Linear(m, from_m, Activation::kNone),
                    b.Linear(from, from_h, Activation::kNone), act);
  };
  const typename B::Mat z =
      gate(layer.update_x(), layer.update_h(), state, Activation::kSigmoid);
  const typename B::Mat r =
      gate(layer.reset_x(), layer.reset_h(), state, Activation::kSigmoid);
  const typename B::Mat cand = gate(layer.cand_x(), layer.cand_h(),
                                    b.Mul(r, state), Activation::kTanh);
  return b.GateMix(z, state, cand);
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
    const SparseMatrix& norm_adj_ = graph_ops.step(0).sparse;
    const GatLayer::EdgeIndex& edge_index_ = graph_ops.step(0).edge_index;
    const Matrix& adj_dense_ = graph_ops.dense;
    Tensor h = x;
    switch (o.backbone) {
      case GnnBackbone::kGcn: {
        std::vector<Tensor> layer_outputs;
        for (size_t l = 0; l < gcn_.size(); ++l) {
          // The ReLU after each layer fuses into its aggregation node
          // (nn/fused.h; bit-exact either way) except where PairNorm sits
          // between them and, under jumping knowledge, after the last layer,
          // whose ReLU follows the concat.
          const bool last = l + 1 == gcn_.size();
          const bool fuse_relu =
              last ? !o.use_jumping_knowledge : !o.use_pair_norm;
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
        return h;
      }
      case GnnBackbone::kSage:
        for (size_t l = 0; l < sage_.size(); ++l) {
          h = sage_[l]->Forward(h, norm_adj_, Activation::kRelu);
          if (l + 1 < sage_.size()) {
            h = ops::Dropout(h, o.dropout, rng, training);
          }
        }
        return h;
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
          const bool interior = l + 1 < gin_.size();
          h = gin_[l]->Forward(h, norm_adj_,
                               interior ? Activation::kNone
                                        : Activation::kRelu);
          if (interior) h = ops::Dropout(h, o.dropout, rng, training);
        }
        return h;
      case GnnBackbone::kGgnn: {
        h = input_proj_->Forward(h, Activation::kRelu);
        for (size_t step = 0; step < o.num_layers; ++step)
          h = ggnn_->Forward(h, norm_adj_);
        return h;
      }
      case GnnBackbone::kAppnp: {
        Tensor h0 =
            appnp_mlp_->Forward(h, rng, training, Activation::kRelu);
        return AppnpPropagate(h0, norm_adj_, o.appnp_steps, o.appnp_alpha);
      }
      case GnnBackbone::kTransformer: {
        h = input_proj_->Forward(h, Activation::kRelu);
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
  /// Step l runs only on the rows it computes exactly (Operators: V_l), so
  /// the result has one row per node of ops.exact.
  template <typename B>
  typename B::Mat Eval(const B& b, typename B::Mat h,
                       const Operators& ops) const {
    using Mat = typename B::Mat;
    const InstanceGraphGnnOptions& o = options_;
    switch (o.backbone) {
      case GnnBackbone::kGcn: {
        std::vector<Mat> layer_outputs;
        for (size_t l = 0; l < gcn_.size(); ++l) {
          const Operators::Step& step = ops.step(l);
          const bool interior = l + 1 < gcn_.size();
          const bool fuse_relu =
              interior ? !o.use_pair_norm : !o.use_jumping_knowledge;
          h = b.Spmm(b.Op(step),
                     b.Linear(h, gcn_[l]->linear(), Activation::kNone),
                     fuse_relu ? Activation::kRelu : Activation::kNone);
          if (interior && o.use_pair_norm) {
            h = b.Act(b.PairNorm(h), Activation::kRelu);
          }
          if (o.use_jumping_knowledge) {
            for (Mat& out : layer_outputs) KeepRows(b, step.keep, &out);
            layer_outputs.push_back(h);
          }
        }
        if (!o.use_jumping_knowledge) return h;
        h = layer_outputs[0];
        for (size_t l = 1; l < layer_outputs.size(); ++l)
          h = b.ConcatCols(h, layer_outputs[l]);
        return b.Act(std::move(h), Activation::kRelu);
      }
      case GnnBackbone::kSage:
        for (size_t l = 0; l < sage_.size(); ++l) {
          const SageLayer& layer = *sage_[l];
          const Operators::Step& step = ops.step(l);
          Mat kept;
          h = b.AddAct(
              b.Linear(KeptRows(b, h, step.keep, &kept), layer.self(),
                       Activation::kNone),
              b.Linear(b.Spmm(b.Op(step), h), layer.neighbor(),
                       Activation::kNone),
              Activation::kRelu);
        }
        return h;
      case GnnBackbone::kGat:
        for (size_t l = 0; l < gat_.size(); ++l) {
          h = GatEval(b, *gat_[l], h, ops.step(l));
          if (l + 1 < gat_.size()) h = b.Act(std::move(h), Activation::kRelu);
        }
        return b.Act(std::move(h), Activation::kRelu);
      case GnnBackbone::kGin:
        for (size_t l = 0; l < gin_.size(); ++l) {
          // mlp((1 + eps) h + sum_nbr(h)), the scaled term as h + eps h.
          const Operators::Step& step = ops.step(l);
          const Mat agg = b.Spmm(b.Op(step), h);
          Mat kept;
          const Mat& self = KeptRows(b, h, step.keep, &kept);
          h = MlpEval(b, gin_[l]->mlp(),
                      b.AddAct(b.ScaleAdd(self, gin_[l]->epsilon(), self, 1.0),
                               agg, Activation::kNone),
                      l + 1 < gin_.size() ? Activation::kNone
                                          : Activation::kRelu);
        }
        return h;
      case GnnBackbone::kGgnn:
        h = b.Linear(h, *input_proj_, Activation::kRelu);
        for (size_t step = 0; step < o.num_layers; ++step)
          h = GgnnEval(b, *ggnn_, h, ops.step(step));
        return h;
      case GnnBackbone::kAppnp: {
        // AppnpPropagate: H <- (1 - alpha) A H + alpha H0.
        Mat h0 = MlpEval(b, *appnp_mlp_, std::move(h), Activation::kRelu);
        h = h0;
        for (size_t l = 0; l < o.appnp_steps; ++l) {
          const Operators::Step& step = ops.step(l);
          KeepRows(b, step.keep, &h0);
          h = b.ScaleAdd(b.Spmm(b.Op(step), h), 1.0 - o.appnp_alpha, h0,
                         o.appnp_alpha);
        }
        return h;
      }
      case GnnBackbone::kTransformer:
        h = b.Linear(h, *input_proj_, Activation::kRelu);
        for (const auto& layer : transformer_)
          h = TransformerEval(b, *layer, h, b.Dense(ops));
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
      Operators::Build(options_, graph_));
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
    // The eval forward with no tape (ScoreOnGraph's path, which the served
    // bit-exactness contract holds equal to the taped forward).
    val_fn = [&, this]() -> double {
      const F64Eval b;
      const Matrix out = b.Linear(encoder_->Eval(b, x_cache_, *operators_),
                                  *head_, Activation::kNone);
      if (regression) {
        return -Rmse(out, data.regression_labels(), split.val);
      }
      return Accuracy(out, labels_cls, split.val);
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
  const std::vector<std::vector<KnnHit>> anchors =
      KnnReference(x_cache_, options_.knn.metric, options_.knn.gamma)
          .TopK(x_new, std::max<size_t>(options_.knn.k, 1));
  for (size_t i = 0; i < n_new; ++i) {
    for (const KnnHit& hit : anchors[i]) {
      edges.push_back({n_train + i, hit.index, 1.0});
      edges.push_back({hit.index, n_train + i, 1.0});
    }
  }
  Graph extended = Graph::FromEdges(n_train + n_new, edges,
                                    /*symmetrize=*/false);
  Operators extended_ops = Operators::Build(options_, extended);

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
      std::make_unique<Operators>(Operators::Build(options_, graph_));
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
  GNN4TDL_RETURN_IF_ERROR(CheckScoreInputs(fitted_, options_, x.rows(), graph,
                                           degree_override));
  const F64Eval b;
  const Operators ops = Operators::Build(options_, graph, degree_override);
  return ExactRowsOnly(
      b.Linear(encoder_->Eval(b, x, ops), *head_, Activation::kNone),
      ops.exact, graph.num_nodes());
}

StatusOr<FMatrix> InstanceGraphGnn::ScoreOnGraphF32(
    const FMatrix& x, const Graph& graph, const std::vector<double>& degrees,
    const F32Weights& weights) const {
  GNN4TDL_RETURN_IF_ERROR(
      CheckScoreInputs(fitted_, options_, x.rows(), graph, &degrees));
  // Normalized in double with the same degrees as the f64 path, then cast.
  Operators ops = Operators::Build(options_, graph, &degrees);
  ops.CastToF32();
  const F32Eval b{weights, F64Eval{}};
  return ExactRowsOnly(
      b.Linear(encoder_->Eval(b, x, ops), *head_, Activation::kNone),
      ops.exact, graph.num_nodes());
}

}  // namespace gnn4tdl
