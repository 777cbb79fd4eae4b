#include "nn/fused.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/check.h"
#include "common/parallel.h"
#include "kernels/kernels.h"
#include "nn/ops.h"
#include "obs/kernel_hooks.h"

// Bit-exactness note (the contract docs/MEMORY.md documents): every fused
// node below computes the same per-element arithmetic, in the same rounding
// order, as the nn/ops composition it stands for — forward AND backward.
// The activation backward reads the node's output instead of the vanished
// pre-activation: relu/leaky-relu preserve the sign of their input
// (alpha > 0), and the sigmoid/tanh derivatives are functions of the output.
// Allocation in this TU goes through Matrix (the arena API); the
// gnn4tdl_lint fused-raw-alloc rule bans raw buffers here.

namespace gnn4tdl::fused {

namespace {

// Same row-block grain as the nn/ops row-wise kernels.
size_t RowGrain(size_t cost_per_row) {
  constexpr size_t kFlopGrain = 65536;
  return std::max<size_t>(1, kFlopGrain / std::max<size_t>(cost_per_row, 1));
}

// The activation backward: g scaled by act' read from the forward output
// `out` (kernels::F64Kernels::act_grad). A relu gradient is 0 wherever the
// output is 0, a NaN input included. kNone routes g itself; otherwise the
// masked gradient is written to *storage in one pass and returned.
const Matrix& MaskedGrad(const Matrix& g, const Matrix& out, Activation act,
                         double alpha, Matrix* storage) {
  if (act == Activation::kNone) return g;
  obs::KernelScope kernel("act_grad", static_cast<double>(g.size()),
                          24.0 * static_cast<double>(g.size()));
  *storage = Matrix::Uninitialized(g.rows(), g.cols());
  const auto& f64 = kernels::Dispatch().f64;
  ParallelFor(0, g.rows(), RowGrain(g.cols()), [&](size_t lo, size_t hi) {
    f64.act_grad(g.data(), out.data(), storage->data(), g.cols(),
                 ToKernelActivation(act), alpha, lo, hi);
  });
  return *storage;
}

// The one node behind every projection, aggregation, combine and activation
// on the tape: out = act(pre [+ b]), `pre` being the value of the linear
// part over `parents`. The backward masks g by act' (MaskedGrad), gives the
// bias its column sums, and hands the masked gradient to `linear_backward`,
// which owes the other parents their share. `op` names the node.
template <typename LinearBackward>
Tensor EpilogueNode(const char* op, Matrix pre, std::vector<Tensor> parents,
                    const Tensor& b, Activation act, double alpha,
                    LinearBackward linear_backward) {
  if (b.defined()) {
    GNN4TDL_CHECK_EQ(b.rows(), 1u);
    GNN4TDL_CHECK_EQ(b.cols(), pre.cols());
    parents.push_back(b);
  }
  if (b.defined() || act != Activation::kNone) {
    obs::KernelScope kernel("bias_act", static_cast<double>(pre.size()),
                            16.0 * static_cast<double>(pre.size()));
    BiasAct(&pre, b.defined() ? &b.value() : nullptr, act, alpha);
  }
  TapeOpScope op_scope(op);
  return Tensor::FromOpWithOutput(
      std::move(pre), std::move(parents),
      [b, act, alpha, linear_backward = std::move(linear_backward)](
          const Matrix& g, const Matrix& out) {
        Matrix storage;
        const Matrix& ga = MaskedGrad(g, out, act, alpha, &storage);
        if (b.defined() && b.requires_grad()) b.AccumulateGrad(ga.ColSum());
        linear_backward(ga);
      });
}

Tensor LinearNode(const char* op, const Tensor& x, const Tensor& w,
                  const Tensor& b, Activation act, double alpha) {
  GNN4TDL_CHECK_EQ(x.cols(), w.rows());
  return EpilogueNode(op, x.value().Matmul(w.value()), {x, w}, b, act, alpha,
                      [x, w](const Matrix& ga) {
                        if (x.requires_grad())
                          x.AccumulateGrad(ga.MatmulTranspose(w.value()));
                        if (w.requires_grad())
                          w.AccumulateGrad(x.value().TransposeMatmul(ga));
                      });
}

Tensor SpmmNode(const char* op, const SparseMatrix& sp,
                std::shared_ptr<const SparseMatrix> sp_t, const Tensor& x,
                const Tensor& b, Activation act, double alpha) {
  GNN4TDL_CHECK_EQ(sp.cols(), x.rows());
  // The backward S^T * G is a row gather over S^T, write-disjoint and
  // bit-exact at every thread count. S^T is the caller's when it passes one,
  // else this node's own.
  if (sp_t == nullptr) {
    sp_t = std::make_shared<const SparseMatrix>(sp.Transpose());
  }
  GNN4TDL_CHECK_EQ(sp_t->rows(), sp.cols());
  GNN4TDL_CHECK_EQ(sp_t->cols(), sp.rows());
  return EpilogueNode(op, sp.Multiply(x.value()), {x}, b, act, alpha,
                      [sp_t = std::move(sp_t), x](const Matrix& ga) {
                        if (x.requires_grad())
                          x.AccumulateGrad(sp_t->Multiply(ga));
                      });
}

Tensor AddNode(const char* op, const Tensor& a, const Tensor& b,
               Activation act, double alpha) {
  GNN4TDL_CHECK_EQ(a.rows(), b.rows());
  GNN4TDL_CHECK_EQ(a.cols(), b.cols());
  return EpilogueNode(op, a.value() + b.value(), {a, b}, Tensor(), act, alpha,
                      [a, b](const Matrix& ga) {
                        if (a.requires_grad()) a.AccumulateGrad(ga);
                        if (b.requires_grad()) b.AccumulateGrad(ga);
                      });
}

// act(a), named after the activation; `a` itself for kNone.
Tensor ActNode(const Tensor& a, Activation act, double alpha) {
  const char* op = nullptr;
  switch (act) {
    case Activation::kNone:
      return a;
    case Activation::kRelu:
      op = "Relu";
      break;
    case Activation::kLeakyRelu:
      op = "LeakyRelu";
      break;
    case Activation::kSigmoid:
      op = "Sigmoid";
      break;
    case Activation::kTanh:
      op = "Tanh";
      break;
  }
  GNN4TDL_CHECK_MSG(op != nullptr, "unknown activation");
  return EpilogueNode(op, a.value(), {a}, Tensor(), act, alpha,
                      [a](const Matrix& ga) {
                        if (a.requires_grad()) a.AccumulateGrad(ga);
                      });
}

}  // namespace

void BiasAct(Matrix* m, const Matrix* bias, Activation act, double alpha) {
  if (bias == nullptr && act == Activation::kNone) return;
  if (bias != nullptr) {
    GNN4TDL_CHECK_EQ(bias->rows(), 1u);
    GNN4TDL_CHECK_EQ(bias->cols(), m->cols());
  }
  const auto& f64 = kernels::Dispatch().f64;
  ParallelFor(0, m->rows(), RowGrain(m->cols()), [&](size_t lo, size_t hi) {
    f64.bias_act(m->data(), m->cols(),
                 bias != nullptr ? bias->data() : nullptr,
                 ToKernelActivation(act), alpha, lo, hi);
  });
}

Tensor LinearBiasAct(const Tensor& x, const Tensor& w, const Tensor& b,
                     Activation act, double leaky_alpha) {
  return LinearNode("LinearBiasAct", x, w, b, act, leaky_alpha);
}

Tensor SpmmBiasAct(const SparseMatrix& sp, const Tensor& x, const Tensor& b,
                   Activation act, double leaky_alpha) {
  return SpmmNode("SpmmBiasAct", sp, nullptr, x, b, act, leaky_alpha);
}

Tensor SpmmBiasAct(const SparseMatrix& sp,
                   std::shared_ptr<const SparseMatrix> sp_t, const Tensor& x,
                   const Tensor& b, Activation act, double leaky_alpha) {
  return SpmmNode("SpmmBiasAct", sp, std::move(sp_t), x, b, act, leaky_alpha);
}

Tensor AddAct(const Tensor& a, const Tensor& b, Activation act,
              double leaky_alpha) {
  return AddNode("AddAct", a, b, act, leaky_alpha);
}

Tensor GatherConcat(const Tensor& a, const std::vector<size_t>& idx_a,
                    const Tensor& b, const std::vector<size_t>& idx_b) {
  GNN4TDL_CHECK_EQ(idx_a.size(), idx_b.size());
  const size_t rows = idx_a.size();
  const size_t da = a.cols();
  const size_t db = b.cols();
  TapeOpScope op_scope("GatherConcat");
  Matrix out(rows, da + db);
  for (size_t i = 0; i < rows; ++i) {
    GNN4TDL_CHECK_LT(idx_a[i], a.rows());
    GNN4TDL_CHECK_LT(idx_b[i], b.rows());
    double* row = out.row_data(i);
    const double* ra = a.value().row_data(idx_a[i]);
    const double* rb = b.value().row_data(idx_b[i]);
    std::copy(ra, ra + da, row);
    std::copy(rb, rb + db, row + da);
  }
  std::vector<size_t> ia = idx_a;
  std::vector<size_t> ib = idx_b;
  const size_t na = a.rows();
  const size_t nb = b.rows();
  return Tensor::FromOp(
      std::move(out), {a, b},
      [a, b, ia, ib, na, nb, da, db](const Matrix& g) {
        // Scatter-add each half of g, in gather order — the same additions
        // the unfused GatherRows backward performs after ConcatCols slices.
        if (a.requires_grad()) {
          Matrix gx(na, da);
          for (size_t i = 0; i < ia.size(); ++i) {
            double* dst = gx.row_data(ia[i]);
            const double* src = g.row_data(i);
            for (size_t c = 0; c < da; ++c) dst[c] += src[c];
          }
          a.AccumulateGrad(gx);
        }
        if (b.requires_grad()) {
          Matrix gx(nb, db);
          for (size_t i = 0; i < ib.size(); ++i) {
            double* dst = gx.row_data(ib[i]);
            const double* src = g.row_data(i) + da;
            for (size_t c = 0; c < db; ++c) dst[c] += src[c];
          }
          b.AccumulateGrad(gx);
        }
      });
}

Tensor NormalizeAggregate(const Tensor& h, const Tensor& edge_weights,
                          const std::vector<size_t>& src,
                          const std::vector<size_t>& dst, size_t num_nodes,
                          double eps) {
  const size_t num_edges = src.size();
  GNN4TDL_CHECK_EQ(dst.size(), num_edges);
  GNN4TDL_CHECK_EQ(edge_weights.rows(), num_edges);
  GNN4TDL_CHECK_EQ(edge_weights.cols(), 1u);
  TapeOpScope op_scope("NormalizeAggregate");
  const size_t cols = h.cols();
  obs::KernelScope kernel(
      "normalize_aggregate",
      5.0 * static_cast<double>(num_edges) +
          2.0 * static_cast<double>(num_edges) * static_cast<double>(cols),
      8.0 * (2.0 * static_cast<double>(num_edges) * (cols + 1.0) +
             static_cast<double>(num_nodes) * cols));
  const Matrix& wv = edge_weights.value();
  Matrix wp = wv.Map([eps](double v) { return v + eps; });
  Matrix logw = wp.Map([](double v) { return std::log(v); });
  Matrix alpha = SegmentSoftmax(logw, dst, num_nodes);
  Matrix out(num_nodes, cols);
  const Matrix& hv = h.value();
  for (size_t e = 0; e < num_edges; ++e) {
    GNN4TDL_CHECK_LT(src[e], hv.rows());
    GNN4TDL_CHECK_LT(dst[e], num_nodes);
    const double s = alpha(e, 0);
    const double* hr = hv.row_data(src[e]);
    double* o = out.row_data(dst[e]);
    // Rounds the product before the add, exactly like the unfused
    // MulColBroadcast-then-ScatterAdd pair; edge order is preserved so each
    // destination row accumulates in the same sequence.
    for (size_t c = 0; c < cols; ++c) o[c] += s * hr[c];
  }
  std::vector<size_t> src_copy = src;
  std::vector<size_t> dst_copy = dst;
  return Tensor::FromOp(
      std::move(out), {h, edge_weights},
      [h, edge_weights, alpha, wp, src_copy, dst_copy,
       num_nodes](const Matrix& g) {
        const size_t cols = g.cols();
        const size_t num_edges = src_copy.size();
        if (h.requires_grad()) {
          Matrix gh(h.rows(), cols);
          for (size_t e = 0; e < num_edges; ++e) {
            const double s = alpha(e, 0);
            const double* gr = g.row_data(dst_copy[e]);
            double* d = gh.row_data(src_copy[e]);
            for (size_t c = 0; c < cols; ++c) d[c] += gr[c] * s;
          }
          h.AccumulateGrad(gh);
        }
        if (edge_weights.requires_grad()) {
          const Matrix& hv = h.value();
          Matrix galpha(num_edges, 1);
          // Edges are independent: disjoint writes, deterministic chunks.
          ParallelFor(0, num_edges, 256, [&](size_t begin, size_t end) {
            for (size_t e = begin; e < end; ++e) {
              const double* gr = g.row_data(dst_copy[e]);
              const double* hr = hv.row_data(src_copy[e]);
              double dot = 0.0;
              for (size_t c = 0; c < cols; ++c) dot += gr[c] * hr[c];
              galpha(e, 0) = dot;
            }
          });
          Matrix glogw =
              SegmentSoftmaxBackward(alpha, galpha, dst_copy, num_nodes);
          edge_weights.AccumulateGrad(glogw.CwiseDiv(wp));
        }
      });
}

}  // namespace gnn4tdl::fused

// The plain ops are the epilogue node's no-bias, no-activation cases, and
// the activations are the node over their input: declared in nn/ops.h and
// nn/module.h, defined here beside the one body each runs.
namespace gnn4tdl {

namespace ops {

Tensor Add(const Tensor& a, const Tensor& b) {
  return fused::AddNode("Add", a, b, Activation::kNone, 0.0);
}

Tensor MatMul(const Tensor& a, const Tensor& b) {
  return fused::LinearNode("MatMul", a, b, Tensor(), Activation::kNone, 0.0);
}

Tensor SpMM(const SparseMatrix& sp, const Tensor& x) {
  return fused::SpmmNode("SpMM", sp, nullptr, x, Tensor(), Activation::kNone,
                         0.0);
}

Tensor SpMM(const SparseMatrix& sp, std::shared_ptr<const SparseMatrix> sp_t,
            const Tensor& x) {
  return fused::SpmmNode("SpMM", sp, std::move(sp_t), x, Tensor(),
                         Activation::kNone, 0.0);
}

Tensor Relu(const Tensor& a) {
  return fused::ActNode(a, Activation::kRelu, 0.0);
}

Tensor LeakyRelu(const Tensor& a, double alpha) {
  return fused::ActNode(a, Activation::kLeakyRelu, alpha);
}

Tensor Sigmoid(const Tensor& a) {
  return fused::ActNode(a, Activation::kSigmoid, 0.0);
}

Tensor Tanh(const Tensor& a) {
  return fused::ActNode(a, Activation::kTanh, 0.0);
}

}  // namespace ops

Tensor Activate(const Tensor& x, Activation act) {
  return fused::ActNode(x, act, 0.2);
}

}  // namespace gnn4tdl
