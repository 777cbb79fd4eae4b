#include "models/knn_gnn.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <numeric>
#include <type_traits>

#include "common/text_io.h"
#include "gnn/graph_transformer.h"
#include "graph/sampling.h"
#include "kernels/kernels.h"
#include "nn/fused.h"
#include "nn/ops.h"
#include "nn/serialize.h"
#include "train/objective.h"

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
/// whose adjacency row reads only nodes of V_{l-1}. Every backbone, GAT
/// included, aggregates node v over adjacency row v. The degrees are the
/// override's when one is given, else the graph's weighted degrees; without
/// an override no node is input-only, so every V_l is every node.
struct InstanceGraphGnn::Operators {
  /// One propagation step, from values on V_{l-1} to values on V_l.
  struct Step {
    /// The normalized operator: rows V_l, columns V_{l-1}, both ascending.
    SparseMatrix sparse;
    /// sparse.Transpose(), only while Fit trains (BuildTransposes); the
    /// taped SpMM nodes of every epoch share it for their backward.
    std::shared_ptr<const SparseMatrix> sparse_t;
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
    std::vector<double> graph_degrees;
    if (degree_override == nullptr) {
      graph_degrees = graph.Degrees(/*weighted=*/true);
    }
    const std::vector<double>& deg =
        degree_override != nullptr ? *degree_override : graph_degrees;
    const SparseMatrix& adj = graph.adjacency();
    constexpr size_t kNone = std::numeric_limits<size_t>::max();
    std::vector<size_t> rows(graph.num_nodes());  // V_{l-1}
    std::iota(rows.begin(), rows.end(), size_t{0});
    std::vector<size_t> pos = rows;  // position of each node in V_{l-1}
    const auto kept = [&pos](size_t u) { return pos[u] != kNone; };
    const size_t* reads = adj.col_idx().data();
    Operators out;
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
    // Global attention reads every node; CheckScoreInputs has ruled out
    // input-only nodes, so the first step covers the whole graph.
    if (o.backbone == GnnBackbone::kTransformer && !out.steps.empty()) {
      out.dense = out.steps[0].sparse.ToDense();
    }
    out.exact = std::move(rows);
    return out;
  }

  /// One step's operator built directly in CSR: the rows `rows` of the
  /// backbone's operator under the degrees `deg`, each column u remapped to
  /// pos[u] < cols. Row v holds adjacency row v's entries in order, plus the
  /// self-loop GCN and GAT add, so a row sums in the same floating-point
  /// order on the whole graph and on any subgraph that keeps the row.
  static Step BuildStep(GnnBackbone backbone, const SparseMatrix& adj,
                        const std::vector<double>& deg,
                        const std::vector<size_t>& rows,
                        const std::vector<size_t>& pos, size_t cols) {
    const auto norm = [&deg](size_t v) {
      const double d = deg[v] + 1.0;
      return d > 0 ? std::sqrt(d) : 1.0;
    };
    // Sized up front: the operator of a whole training graph lives as long
    // as the model, so growth slack would stay allocated with it.
    const bool self_loops = backbone != GnnBackbone::kSage &&
                            backbone != GnnBackbone::kGgnn &&
                            backbone != GnnBackbone::kGin;
    size_t max_entries = self_loops ? rows.size() : 0;
    for (size_t v : rows) max_entries += adj.RowNnz(v);
    std::vector<size_t> row_ptr(1, 0);
    std::vector<size_t> col_idx;
    std::vector<double> values;
    row_ptr.reserve(rows.size() + 1);
    col_idx.reserve(max_entries);
    values.reserve(max_entries);
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
          // The sources v reads, then its self-loop when the graph has none.
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
    edges.dst.reserve(col_idx.size());
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

  /// Gives every step its transpose, for the taped backward. GAT and the
  /// graph transformer record no SpMM over the steps, so they get none.
  void BuildTransposes(GnnBackbone backbone) {
    if (backbone == GnnBackbone::kGat ||
        backbone == GnnBackbone::kTransformer) {
      return;
    }
    for (Step& step : steps) {
      step.sparse_t = std::make_shared<const SparseMatrix>(
          step.sparse.Transpose());
    }
  }

  /// Frees what BuildTransposes built (once no tape node holds it).
  void DropTransposes() {
    for (Step& step : steps) step.sparse_t.reset();
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

/// The operators both double backends read.
struct F64Operators {
  template <typename Step>
  const SparseMatrix& Op(const Step& step) const { return step.sparse; }
  template <typename Ops>
  const Matrix& Dense(const Ops& ops) const { return ops.dense; }
};

/// The taped forward of Fit, Predict, Embeddings and PredictInductive: each
/// step records its autograd node, an aggregation or combination followed by
/// an activation as one fused node (nn/fused), and Dropout draws its masks
/// from `rng` only when `training`. A step's SpMM nodes share its transpose
/// when it has one (Fit's operators) and build their own otherwise.
struct TapeOps : F64Operators {
  using Mat = Tensor;

  TapeOps(Rng& rng, bool training) : rng(rng), training(training) {}
  const Mat& W(const Tensor& t) const { return t; }
  /// The whole step, so Spmm can hand its transpose to the node.
  template <typename Step>
  const Step& Op(const Step& step) const { return step; }
  Mat Gather(const Mat& x, const std::vector<size_t>& rows) const {
    return ops::GatherRows(x, rows);
  }
  Mat Act(const Mat& x, Activation act) const { return Activate(x, act); }
  Mat Dropout(const Mat& x, double rate) const {
    return ops::Dropout(x, rate, rng, training);
  }
  Mat Linear(const Mat& x, const gnn4tdl::Linear& layer, Activation act) const {
    return layer.Forward(x, act);
  }
  Mat MatMul(const Mat& a, const Mat& b) const { return ops::MatMul(a, b); }
  template <typename Step>
  Mat Spmm(const Step& s, const Mat& x) const {
    return ops::SpMM(s.sparse, s.sparse_t, x);
  }
  template <typename Step>
  Mat SpmmAct(const Step& s, const Mat& x, Activation act) const {
    return fused::SpmmBiasAct(s.sparse, s.sparse_t, x, Tensor(), act);
  }
  Mat Add(const Mat& a, const Mat& b) const { return ops::Add(a, b); }
  Mat AddAct(const Mat& a, const Mat& b, Activation act) const {
    return fused::AddAct(a, b, act);
  }
  Mat Scale(const Mat& x, double s) const { return ops::Scale(x, s); }
  Mat ScaleAdd(const Mat& a, double sa, const Mat& b) const {
    return ops::Add(ops::Scale(a, sa), b);
  }
  Mat OnePlusScale(const Mat& x, const Tensor& s) const {
    Tensor ones_col = Tensor::Constant(Matrix::Ones(x.rows(), 1));
    return ops::Add(x, ops::MulColBroadcast(x, ops::MatMul(ones_col, s)));
  }
  Mat AttentionScores(const Mat& q, const Mat& k, double scale,
                      const Matrix& adj, const Tensor& beta) const {
    Tensor scores = ops::Scale(ops::MatMul(q, ops::Transpose(k)), scale);
    // beta broadcast to n x n, elementwise with the adjacency.
    Tensor ones_col = Tensor::Constant(Matrix::Ones(adj.rows(), 1));
    Tensor ones_row = Tensor::Constant(Matrix::Ones(1, adj.cols()));
    Tensor beta_full = ops::MatMul(ops::MatMul(ones_col, beta), ones_row);
    return ops::Add(scores, ops::CwiseMul(beta_full, Tensor::Constant(adj)));
  }
  Mat Mul(const Mat& a, const Mat& b) const { return ops::CwiseMul(a, b); }
  Mat GateMix(const Mat& z, const Mat& h, const Mat& cand) const {
    Tensor one = Tensor::Constant(Matrix::Ones(h.rows(), h.cols()));
    return ops::Add(ops::CwiseMul(ops::Sub(one, z), h), ops::CwiseMul(z, cand));
  }
  Mat ConcatCols(const Mat& a, const Mat& b) const {
    return ops::ConcatCols(a, b);
  }
  Mat LayerNorm(const Mat& x, const Tensor& gamma, const Tensor& beta) const {
    return ops::LayerNormRows(x, gamma, beta);
  }
  Mat SoftmaxRows(const Mat& x) const { return ops::SoftmaxRows(x); }
  Mat PairNorm(const Mat& x) const { return ops::PairNormRows(x); }
  Mat EdgeAttention(const Mat& s_src, const Mat& s_dst, const Mat& hw,
                    const GatLayer::EdgeIndex& edges) const {
    Tensor logits = ops::LeakyRelu(ops::Add(ops::GatherRows(s_src, edges.src),
                                            ops::GatherRows(s_dst, edges.dst)));
    Tensor alpha = ops::EdgeSoftmax(logits, edges.dst, edges.num_nodes);
    return ops::WeightedSpMM(alpha, hw, edges.pattern, edges.slot, edges.src,
                             edges.dst);
  }

  Rng& rng;
  bool training;
};

/// Eval-mode numerics in double: the value functions the tape ops call, with
/// no tape, so ScoreOnGraph reproduces the tape forward of PredictInductive
/// bit for bit.
struct F64Eval : F64Operators {
  using Mat = Matrix;

  const Mat& W(const Tensor& t) const { return t.value(); }
  Mat Gather(const Mat& x, const std::vector<size_t>& rows) const {
    return x.GatherRows(rows);
  }
  Mat Act(Mat x, Activation act) const {
    fused::BiasAct(&x, nullptr, act);
    return x;
  }
  Mat Dropout(Mat x, double /*rate*/) const { return x; }
  Mat Linear(const Mat& x, const gnn4tdl::Linear& layer, Activation act) const {
    Mat out = x.Matmul(layer.weight().value());
    fused::BiasAct(&out,
                   layer.bias().defined() ? &layer.bias().value() : nullptr,
                   act);
    return out;
  }
  Mat MatMul(const Mat& a, const Mat& b) const { return a.Matmul(b); }
  Mat Spmm(const SparseMatrix& s, const Mat& x) const { return s.Multiply(x); }
  Mat SpmmAct(const SparseMatrix& s, const Mat& x, Activation act) const {
    return Act(s.Multiply(x), act);
  }
  Mat Add(const Mat& a, const Mat& b) const { return a + b; }
  Mat AddAct(const Mat& a, const Mat& b, Activation act) const {
    return Act(a + b, act);
  }
  Mat Scale(const Mat& x, double s) const { return x * s; }
  /// sa * a + b, the product rounded before the sum.
  Mat ScaleAdd(const Mat& a, double sa, const Mat& b) const {
    return a * sa + b;
  }
  /// (1 + s) x as s * x + x, with s a trained 1 x 1 parameter.
  Mat OnePlusScale(const Mat& x, const Tensor& s) const {
    return x * s.value()(0, 0) + x;
  }
  /// scale * q k^T + beta * adj, each product rounded before the sum.
  Mat AttentionScores(const Mat& q, const Mat& k, double scale,
                      const Mat& adj, const Tensor& beta) const {
    return q.Matmul(k.Transpose()) * scale + adj * beta.value()(0, 0);
  }
  Mat Mul(const Mat& a, const Mat& b) const { return a.CwiseMul(b); }
  /// (1 - z) ⊙ h + z ⊙ cand: the GGNN state update.
  Mat GateMix(const Mat& z, const Mat& h, const Mat& cand) const {
    return (Mat::Ones(z.rows(), z.cols()) - z).CwiseMul(h) + z.CwiseMul(cand);
  }
  Mat ConcatCols(const Mat& a, const Mat& b) const { return a.ConcatCols(b); }
  Mat LayerNorm(const Mat& x, const Tensor& gamma, const Tensor& beta) const {
    return ops::LayerNormRowsValue(x, gamma.value(), beta.value());
  }
  Mat SoftmaxRows(const Mat& x) const { return ops::SoftmaxRowsValue(x); }
  Mat PairNorm(const Mat& x) const { return ops::PairNormRowsValue(x); }
  /// One GAT head's aggregation: LeakyRelu edge logits from the projected
  /// source and destination scores, softmax over each node's in-edges, then
  /// the attention-weighted sum of `hw` rows.
  Mat EdgeAttention(const Mat& s_src, const Mat& s_dst, const Mat& hw,
                    const GatLayer::EdgeIndex& edges) const {
    Mat logits = s_src.GatherRows(edges.src) + s_dst.GatherRows(edges.dst);
    fused::BiasAct(&logits, nullptr, Activation::kLeakyRelu);
    const Mat alpha = SegmentSoftmax(logits, edges.dst, edges.num_nodes);
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
  static Mat Run(Kernel kernel, const Args&... args) {
    Mat out;
    kernel(args..., &out);
    return out;
  }

  const Mat& W(const Tensor& t) const {
    auto it = weights.find(t.id());
    GNN4TDL_CHECK_MSG(it != weights.end(), "parameter has no f32 cast");
    return it->second;
  }
  template <typename Step>
  const FCsr& Op(const Step& step) const { return step.sparse_f32; }
  template <typename Ops>
  const Mat& Dense(const Ops& ops) const { return ops.dense_f32; }
  Mat Gather(const Mat& x, const std::vector<size_t>& rows) const {
    Mat out(rows.size(), x.cols());
    for (size_t i = 0; i < rows.size(); ++i) out.SetRow(i, x, rows[i]);
    return out;
  }
  Mat Act(Mat x, Activation act) const {
    if (act != Activation::kNone) {
      kernels::BiasAct(&x, nullptr, ToKernelActivation(act));
    }
    return x;
  }
  Mat Dropout(Mat x, double /*rate*/) const { return x; }
  Mat Linear(const Mat& x, const gnn4tdl::Linear& layer, Activation act) const {
    Mat out = MatMul(x, W(layer.weight()));
    const float* bias =
        layer.bias().defined() ? W(layer.bias()).data() : nullptr;
    if (bias != nullptr || act != Activation::kNone) {
      kernels::BiasAct(&out, bias, ToKernelActivation(act));
    }
    return out;
  }
  Mat MatMul(const Mat& a, const Mat& b) const {
    return Run(kernels::Matmul, a, b);
  }
  Mat Spmm(const FCsr& s, const Mat& x) const {
    return SpmmAct(s, x, Activation::kNone);
  }
  Mat SpmmAct(const FCsr& s, const Mat& x, Activation act) const {
    Mat out;
    kernels::SpmmBiasAct(s, x, nullptr, ToKernelActivation(act), &out);
    return out;
  }
  Mat Add(const Mat& a, const Mat& b) const {
    return Run(kernels::ScaleAdd, a, 1.0f, b, 1.0f);
  }
  Mat AddAct(const Mat& a, const Mat& b, Activation act) const {
    return Act(Add(a, b), act);
  }
  /// Each product rounded once, as kernels::ScaleAdd rounds sb * b.
  Mat Scale(Mat x, double s) const {
    const float f = static_cast<float>(s);
    for (size_t i = 0; i < x.size(); ++i) x.data()[i] *= f;
    return x;
  }
  Mat ScaleAdd(const Mat& a, double sa, const Mat& b) const {
    return Run(kernels::ScaleAdd, a, static_cast<float>(sa), b, 1.0f);
  }
  Mat OnePlusScale(const Mat& x, const Tensor& s) const {
    return Run(kernels::ScaleAdd, x, W(s)(0, 0), x, 1.0f);
  }
  Mat AttentionScores(const Mat& q, const Mat& k, double scale,
                      const Mat& adj, const Tensor& beta) const {
    return Run(kernels::ScaleAdd, Run(kernels::MatmulNt, q, k),
               static_cast<float>(scale), adj, W(beta)(0, 0));
  }
  Mat Mul(const Mat& a, const Mat& b) const {
    return Mat::FromDouble(f64.Mul(a.ToDouble(), b.ToDouble()));
  }
  Mat GateMix(const Mat& z, const Mat& h, const Mat& cand) const {
    return Mat::FromDouble(
        f64.GateMix(z.ToDouble(), h.ToDouble(), cand.ToDouble()));
  }
  Mat ConcatCols(const Mat& a, const Mat& b) const {
    GNN4TDL_CHECK_EQ(a.rows(), b.rows());
    Mat out(a.rows(), a.cols() + b.cols());
    for (size_t r = 0; r < a.rows(); ++r) {
      std::copy(a.row_data(r), a.row_data(r) + a.cols(), out.row_data(r));
      std::copy(b.row_data(r), b.row_data(r) + b.cols(),
                out.row_data(r) + a.cols());
    }
    return out;
  }
  Mat LayerNorm(const Mat& x, const Tensor& gamma, const Tensor& beta) const {
    return Mat::FromDouble(f64.LayerNorm(x.ToDouble(), gamma, beta));
  }
  Mat SoftmaxRows(const Mat& x) const {
    return Mat::FromDouble(f64.SoftmaxRows(x.ToDouble()));
  }
  Mat PairNorm(const Mat& x) const {
    return Mat::FromDouble(f64.PairNorm(x.ToDouble()));
  }
  Mat EdgeAttention(const Mat& s_src, const Mat& s_dst, const Mat& hw,
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
    Mat out;
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

/// Mlp::Forward's steps, dropout at the Mlp's own rate; `last` is the output
/// activation.
template <typename B>
typename B::Mat MlpEval(const B& b, const Mlp& mlp, typename B::Mat h,
                        Activation last = Activation::kNone) {
  const size_t n = mlp.layers().size();
  for (size_t i = 0; i + 1 < n; ++i) {
    h = b.Dropout(b.Linear(h, *mlp.layers()[i], mlp.activation()),
                  mlp.dropout());
  }
  return b.Linear(h, *mlp.layers()[n - 1], last);
}

template <typename B, typename Step>
typename B::Mat GatEval(const B& b, const GatLayer& layer,
                        const typename B::Mat& h, const Step& step) {
  using Mat = typename B::Mat;
  Mat out;
  for (size_t head = 0; head < layer.num_heads(); ++head) {
    const Mat hw = b.Linear(h, layer.head_proj(head), Activation::kNone);
    const Mat s_src = b.MatMul(hw, b.W(layer.attn_src(head)));
    Mat kept;
    const Mat s_dst = b.MatMul(KeptRows(b, hw, step.keep, &kept),
                               b.W(layer.attn_dst(head)));
    Mat agg = b.EdgeAttention(s_src, s_dst, hw, step.edge_index);
    out = head == 0 ? std::move(agg) : b.ConcatCols(out, agg);
  }
  return out;
}

/// One GGNN step, a GRU cell over the aggregated message: m = A h,
/// z = sigmoid(m W_zx + h W_zh), r = sigmoid(m W_rx + h W_rh),
/// cand = tanh(m W_cx + (r * h) W_ch), h' = (1 - z) * h + z * cand. `h` feeds
/// five nodes, recorded in this order: A h, h W_zh, h W_rh, r * h and
/// (1 - z) * h; the order they are recorded in is the order their gradient
/// terms are summed.
template <typename B, typename Step>
typename B::Mat GgnnEval(const B& b, const GgnnLayer& layer,
                         const typename B::Mat& h, const Step& step) {
  using Mat = typename B::Mat;
  const Mat m = b.Spmm(b.Op(step), h);
  Mat kept;
  const Mat& state = KeptRows(b, h, step.keep, &kept);
  const auto gate = [&](const gnn4tdl::Linear& from_m,
                        const gnn4tdl::Linear& from_h, const Mat& from,
                        Activation act) {
    const Mat x = b.Linear(m, from_m, Activation::kNone);
    return b.Act(b.Add(x, b.Linear(from, from_h, Activation::kNone)), act);
  };
  const Mat z =
      gate(layer.update_x(), layer.update_h(), state, Activation::kSigmoid);
  const Mat r =
      gate(layer.reset_x(), layer.reset_h(), state, Activation::kSigmoid);
  const Mat cand = gate(layer.cand_x(), layer.cand_h(), b.Mul(r, state),
                        Activation::kTanh);
  return b.GateMix(z, state, cand);
}

template <typename B, typename Ops>
typename B::Mat TransformerEval(const B& b, const GraphTransformerLayer& layer,
                                const typename B::Mat& h, const Ops& ops) {
  using Mat = typename B::Mat;
  const Mat normed = b.LayerNorm(h, layer.ln1_gamma(), layer.ln1_beta());
  const Mat q = b.Linear(normed, layer.query(), Activation::kNone);
  const Mat k = b.Linear(normed, layer.key(), Activation::kNone);
  const Mat v = b.Linear(normed, layer.value(), Activation::kNone);
  // softmax(Q K^T / sqrt(dk) + beta * A_hat)
  const Mat attn = b.SoftmaxRows(b.AttentionScores(
      q, k, 1.0 / std::sqrt(static_cast<double>(layer.attn_dim())),
      b.Dense(ops), layer.structure_bias()));
  const Mat residual =
      b.Add(h, b.Linear(b.MatMul(attn, v), layer.out(), Activation::kNone));
  return b.Add(residual, MlpEval(b, layer.ffn(),
                                 b.LayerNorm(residual, layer.ln2_gamma(),
                                             layer.ln2_beta())));
}

}  // namespace

/// Backbone stack: owns the layers (parameters only; operators are passed to
/// Eval so the weights are graph-independent).
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

  /// The backbone's forward, written once over the backend `B`: TapeOps
  /// records the autograd tape (Fit, Predict, Embeddings, PredictInductive),
  /// F64Eval and F32Eval compute values with no tape (validation,
  /// ScoreOnGraph, ScoreOnGraphF32). Step l runs only on the rows it
  /// computes exactly (Operators: V_l), so the result has one row per node
  /// of ops.exact.
  template <typename B>
  typename B::Mat Eval(const B& b, typename B::Mat h,
                       const Operators& ops) const {
    using Mat = typename B::Mat;
    const InstanceGraphGnnOptions& o = options_;
    switch (o.backbone) {
      case GnnBackbone::kGcn: {
        std::vector<Mat> layer_outputs;
        for (size_t l = 0; l < gcn_.size(); ++l) {
          // The ReLU after each layer fuses into its aggregation node
          // except where PairNorm sits between them and, under jumping
          // knowledge, after the last layer, whose ReLU follows the concat.
          const Operators::Step& step = ops.step(l);
          const bool interior = l + 1 < gcn_.size();
          const bool fuse_relu =
              interior ? !o.use_pair_norm : !o.use_jumping_knowledge;
          h = b.SpmmAct(b.Op(step),
                        b.Linear(h, gcn_[l]->linear(), Activation::kNone),
                        fuse_relu ? Activation::kRelu : Activation::kNone);
          if (interior) {
            if (o.use_pair_norm) {
              h = b.Act(b.PairNorm(h), Activation::kRelu);
            }
            h = b.Dropout(std::move(h), o.dropout);
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
          const Mat nbr = b.Spmm(b.Op(step), h);
          Mat kept;
          const Mat self = b.Linear(KeptRows(b, h, step.keep, &kept),
                                    layer.self(), Activation::kNone);
          h = b.AddAct(self,
                       b.Linear(nbr, layer.neighbor(), Activation::kNone),
                       Activation::kRelu);
          if (l + 1 < sage_.size()) h = b.Dropout(std::move(h), o.dropout);
        }
        return h;
      case GnnBackbone::kGat:
        for (size_t l = 0; l < gat_.size(); ++l) {
          h = GatEval(b, *gat_[l], h, ops.step(l));
          if (l + 1 < gat_.size()) {
            h = b.Dropout(b.Act(std::move(h), Activation::kRelu), o.dropout);
          }
        }
        return b.Act(std::move(h), Activation::kRelu);
      case GnnBackbone::kGin:
        for (size_t l = 0; l < gin_.size(); ++l) {
          // mlp((1 + eps) h + sum_nbr(h)). `h` feeds three nodes, recorded
          // in this order: eps * h, h + eps * h, then the neighbor sum A h.
          const Operators::Step& step = ops.step(l);
          const bool interior = l + 1 < gin_.size();
          Mat kept;
          const Mat scaled = b.OnePlusScale(KeptRows(b, h, step.keep, &kept),
                                            gin_[l]->eps());
          const Mat agg = b.Spmm(b.Op(step), h);
          h = MlpEval(b, gin_[l]->mlp(), b.Add(scaled, agg),
                      interior ? Activation::kNone : Activation::kRelu);
          if (interior) h = b.Dropout(std::move(h), o.dropout);
        }
        return h;
      case GnnBackbone::kGgnn:
        h = b.Linear(h, *input_proj_, Activation::kRelu);
        for (size_t step = 0; step < o.num_layers; ++step)
          h = GgnnEval(b, *ggnn_, h, ops.step(step));
        return h;
      case GnnBackbone::kAppnp: {
        // H <- (1 - alpha) A H + alpha H0, the teleport alpha H0 computed
        // once.
        Mat h0 = MlpEval(b, *appnp_mlp_, std::move(h), Activation::kRelu);
        Mat teleport = b.Scale(h0, o.appnp_alpha);
        h = std::move(h0);
        for (size_t l = 0; l < o.appnp_steps; ++l) {
          const Operators::Step& step = ops.step(l);
          KeepRows(b, step.keep, &teleport);
          h = b.ScaleAdd(b.Spmm(b.Op(step), h), 1.0 - o.appnp_alpha,
                         teleport);
        }
        return h;
      }
      case GnnBackbone::kTransformer:
        h = b.Linear(h, *input_proj_, Activation::kRelu);
        for (const auto& layer : transformer_)
          h = TransformerEval(b, *layer, h, ops);
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
  return encoder_->Eval(TapeOps{rng_, training}, x, *operators_);
}

namespace {

// Fixed settings of the auxiliary tasks (Table 7) and of the flattened
// multiplex graph.
constexpr double kDaeCorruptRate = 0.2;
constexpr double kContrastiveCorruptRate = 0.2;
constexpr double kContrastiveTemperature = 0.5;
constexpr size_t kEdgeCompletionNegatives = 500;
/// Same-value groups larger than this are subsampled to a random clique.
constexpr size_t kMultiplexMaxGroup = 30;

}  // namespace

Tensor InstanceGraphGnn::SelfSupervisedLoss(const Matrix& x_features) const {
  // Default self-supervised objective for the two-phase strategies: a
  // denoising feature reconstruction (SLAPS-style), plus contrastive if
  // configured.
  Matrix mask;
  Matrix corrupted = MaskCorrupt(
      x_features,
      options_.dae_weight > 0 ? kDaeCorruptRate : 0.15, rng_, &mask);
  Tensor emb = Encode(Tensor::Constant(corrupted), /*training=*/true);
  Tensor loss = recon_->Loss(emb, x_features, &mask);
  if (options_.contrastive_weight > 0.0) {
    loss = ops::Add(loss, ops::Scale(ContrastiveLoss(x_features),
                                     options_.contrastive_weight));
  }
  return loss;
}

Tensor InstanceGraphGnn::ContrastiveLoss(const Matrix& x_features) const {
  Matrix view1 = MaskCorrupt(x_features, kContrastiveCorruptRate, rng_);
  Matrix view2 = MaskCorrupt(x_features, kContrastiveCorruptRate, rng_);
  Tensor z1 = Encode(Tensor::Constant(view1), /*training=*/true);
  Tensor z2 = Encode(Tensor::Constant(view2), /*training=*/true);
  return NtXentLoss(z1, z2, kContrastiveTemperature);
}

size_t InstanceGraphGnn::BuildModel(size_t out_dim) {
  encoder_ = std::make_unique<Encoder>(options_, x_cache_.cols(), rng_);
  operators_ =
      std::make_unique<Operators>(Operators::Build(options_, graph_));
  const bool jk = options_.use_jumping_knowledge &&
                  options_.backbone == GnnBackbone::kGcn;
  const size_t emb_dim =
      jk ? options_.hidden_dim * options_.num_layers : options_.hidden_dim;
  head_ = std::make_unique<Linear>(emb_dim, out_dim, rng_);
  return emb_dim;
}

Status InstanceGraphGnn::Fit(const TabularDataset& data, const Split& split) {
  fitted_ = false;  // a failed (re)fit leaves no model behind
  task_ = data.task();
  StatusOr<SupervisedObjective> objective =
      SupervisedObjective::Make(data, split);
  if (!objective.ok()) return objective.status();
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
          data, {}, kMultiplexMaxGroup, options_.seed);
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
  const size_t emb_dim = BuildModel(objective->output_dim());
  const bool needs_recon =
      options_.reconstruction_weight > 0.0 || options_.dae_weight > 0.0 ||
      options_.strategy != TrainStrategy::kEndToEnd;
  if (needs_recon) {
    recon_ = std::make_unique<FeatureReconstructionTask>(
        emb_dim, x_cache_.cols(), options_.hidden_dim, rng_);
  }

  Tensor x_t = Tensor::Constant(x_cache_);
  auto main_loss = [&]() -> Tensor {
    Tensor emb = Encode(x_t, /*training=*/true);
    Tensor loss = objective->Loss(head_->Forward(emb));
    // End-to-end auxiliary terms (Table 7), each weighted into the loss.
    const auto add = [&loss](const Tensor& term, double weight) {
      loss = ops::Add(loss, ops::Scale(term, weight));
    };
    const InstanceGraphGnnOptions& o = options_;
    if (o.reconstruction_weight > 0.0) {
      add(recon_->Loss(emb, x_cache_), o.reconstruction_weight);
    }
    if (o.dae_weight > 0.0) {
      Matrix mask;
      Matrix corrupted = MaskCorrupt(x_cache_, kDaeCorruptRate, rng_, &mask);
      Tensor emb_cor = Encode(Tensor::Constant(corrupted), true);
      add(recon_->Loss(emb_cor, x_cache_, &mask), o.dae_weight);
    }
    if (o.contrastive_weight > 0.0) {
      add(ContrastiveLoss(x_cache_), o.contrastive_weight);
    }
    if (o.smoothness_weight > 0.0) {
      add(SmoothnessPenalty(emb, graph_), o.smoothness_weight);
    }
    if (o.edge_completion_weight > 0.0) {
      add(EdgeCompletionLoss(emb, graph_, kEdgeCompletionNegatives, rng_),
          o.edge_completion_weight);
    }
    return loss;
  };

  // Validates on the eval forward with no tape (ScoreOnGraph's path, which
  // the served bit-exactness contract holds equal to the taped forward).
  const auto val_fn = objective->Validation([this] {
    const F64Eval b;
    return b.Linear(encoder_->Eval(b, x_cache_, *operators_), *head_,
                    Activation::kNone);
  });

  // --- Training strategy (Table 8) ------------------------------------------
  // The operators' transposes live while Fit trains: every epoch's sparse
  // backward reads them, and they are freed on the way out.
  operators_->BuildTransposes(options_.backbone);
  struct TransposesDrop {
    Operators* ops;
    ~TransposesDrop() { ops->DropTransposes(); }
  } drop_transposes{operators_.get()};
  if (options_.strategy == TrainStrategy::kEndToEnd) {
    std::vector<Tensor> params = TrainedParameters();
    if (recon_ != nullptr)
      for (const Tensor& p : recon_->Parameters()) params.push_back(p);
    Trainer trainer(params, options_.train);
    GNN4TDL_RETURN_IF_ERROR(trainer.Fit(main_loss, val_fn).tape_status);
  } else {
    // Phase 1: self-supervised encoder training.
    std::vector<Tensor> pre_params = encoder_->Parameters();
    for (const Tensor& p : recon_->Parameters()) pre_params.push_back(p);
    TrainOptions pre_opts = options_.train;
    pre_opts.max_epochs = options_.pretrain_epochs;
    pre_opts.patience = 0;
    Trainer pre_trainer(pre_params, pre_opts);
    GNN4TDL_RETURN_IF_ERROR(
        pre_trainer.Fit([&]() { return SelfSupervisedLoss(x_cache_); })
            .tape_status);

    // Phase 2.
    std::vector<Tensor> params;
    if (options_.strategy == TrainStrategy::kTwoStage) {
      params = head_->Parameters();  // encoder frozen
    } else {
      params = TrainedParameters();
    }
    auto head_loss = [&]() -> Tensor {
      Tensor emb = Encode(x_t, options_.strategy ==
                                   TrainStrategy::kPretrainFinetune);
      return objective->Loss(head_->Forward(emb));
    };
    Trainer trainer(params, options_.train);
    GNN4TDL_RETURN_IF_ERROR(trainer.Fit(head_loss, val_fn).tape_status);
  }

  fitted_ = true;
  return Status::OK();
}

StatusOr<Matrix> InstanceGraphGnn::Predict(const TabularDataset& data) {
  GNN4TDL_RETURN_IF_ERROR(
      CheckTransductivePredict(fitted_, graph_.num_nodes(), data));
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
  Tensor emb = encoder_->Eval(TapeOps{rng_, /*training=*/false},
                              Tensor::Constant(x_all), extended_ops);
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

std::vector<Tensor> InstanceGraphGnn::TrainedParameters() const {
  TrainedBundle bundle(encoder_.get(), head_.get());
  return bundle.Parameters();
}

size_t InstanceGraphGnn::output_dim() const {
  return head_ != nullptr ? head_->out_dim() : 0;
}

Status InstanceGraphGnn::SaveTrainedParameters(TextWriter& out) const {
  if (!fitted_) {
    return Status::FailedPrecondition("SaveTrainedParameters before Fit");
  }
  TrainedBundle bundle(encoder_.get(), head_.get());
  return SaveParameters(bundle, out);
}

Status InstanceGraphGnn::SaveTrainedParameters(std::ostream& out) const {
  TextWriter text;
  GNN4TDL_RETURN_IF_ERROR(SaveTrainedParameters(text));
  return text.WriteTo(out, "parameter stream");
}

Status InstanceGraphGnn::LoadTrainedParameters(BoundedReader& in) {
  if (encoder_ == nullptr || head_ == nullptr) {
    return Status::FailedPrecondition(
        "LoadTrainedParameters before Fit or RestoreForInference");
  }
  TrainedBundle bundle(encoder_.get(), head_.get());
  return LoadParameters(bundle, in);
}

Status InstanceGraphGnn::LoadTrainedParameters(std::istream& in) {
  const std::string text = ReadAll(in);
  BoundedReader reader(text, "parameter block");
  return LoadTrainedParameters(reader);
}

StatusOr<InstanceGraphGnn::F32Weights> InstanceGraphGnn::CastWeightsToF32()
    const {
  if (encoder_ == nullptr || head_ == nullptr) {
    return Status::FailedPrecondition(
        "CastWeightsToF32 before Fit or RestoreForInference");
  }
  F32Weights out;
  for (const Tensor& t : TrainedParameters()) {
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

  BuildModel(num_outputs);
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
