#include "nn/fused.h"

#include <atomic>
#include <cmath>
#include <string>
#include <utility>

#include "common/check.h"
#include "common/parallel.h"
#include "kernels/kernels.h"
#include "nn/ops.h"
#include "obs/kernel_hooks.h"
#include "obs/metrics.h"

// Bit-exactness note (the contract docs/MEMORY.md documents): every fused
// node below computes the same per-element arithmetic, in the same rounding
// order, as the nn/ops composition it replaces — forward AND backward. The
// activation backward reads the fused node's output instead of the vanished
// pre-activation: legal because relu/leaky-relu preserve the sign of their
// input (alpha > 0), and sigmoid/tanh backward are defined on the output in
// ops.cc already. Allocation in this TU goes through Matrix (the arena API);
// the gnn4tdl_lint fused-raw-alloc rule bans raw buffers here.

namespace gnn4tdl::fused {

namespace {

std::atomic<bool> g_fusion_enabled{true};

void CountFusion(const char* pattern, bool hit) {
  if (!obs::MetricsEnabled()) return;
  obs::MetricsRegistry::Global()
      .GetCounter(std::string(hit ? "fusion.hits." : "fusion.bails.") +
                  pattern)
      .Increment();
}

// Same row-block grain as the nn/ops activation kernels.
size_t RowGrain(size_t cost_per_row) {
  constexpr size_t kFlopGrain = 65536;
  return std::max<size_t>(1, kFlopGrain / std::max<size_t>(cost_per_row, 1));
}

// The activation backward: g scaled by act'(pre-activation), read from the
// forward output `out`. Bit-identical to the unfused activation backward:
// relu/leaky preserve the pre-activation's sign (out <= 0 iff pre <= 0,
// since alpha > 0), and sigmoid/tanh derivatives are functions of the output
// in ops.cc too. kNone routes g itself; otherwise the masked gradient is
// written to *storage in one pass and returned.
const Matrix& MaskedGrad(const Matrix& g, const Matrix& out, Activation act,
                         double alpha, Matrix* storage) {
  if (act == Activation::kNone) return g;
  *storage = Matrix::Uninitialized(g.rows(), g.cols());
  const auto& f64 = kernels::Dispatch().f64;
  ParallelFor(0, g.rows(), RowGrain(g.cols()), [&](size_t lo, size_t hi) {
    f64.act_grad(g.data(), out.data(), storage->data(), g.cols(),
                 ToKernelActivation(act), alpha, lo, hi);
  });
  return *storage;
}

// The unfused activation with an explicit leaky slope (Activate() always
// uses the ops.h default, which fused callers may override).
Tensor ActivateUnfused(const Tensor& t, Activation act, double alpha) {
  if (act == Activation::kLeakyRelu) return ops::LeakyRelu(t, alpha);
  return Activate(t, act);
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

void SetFusionEnabled(bool enabled) {
  g_fusion_enabled.store(enabled, std::memory_order_relaxed);
}

bool FusionEnabled() {
  return g_fusion_enabled.load(std::memory_order_relaxed);
}

Tensor LinearBiasAct(const Tensor& x, const Tensor& w, const Tensor& b,
                     Activation act, double leaky_alpha) {
  GNN4TDL_CHECK_EQ(x.cols(), w.rows());
  if (b.defined()) {
    GNN4TDL_CHECK_EQ(b.rows(), 1u);
    GNN4TDL_CHECK_EQ(b.cols(), w.cols());
  }
  if (!FusionEnabled()) {
    CountFusion("linear_bias_act", /*hit=*/false);
    Tensor out = ops::MatMul(x, w);
    if (b.defined()) out = ops::AddRowBroadcast(out, b);
    return ActivateUnfused(out, act, leaky_alpha);
  }
  CountFusion("linear_bias_act", /*hit=*/true);
  TapeOpScope op_scope("LinearBiasAct");
  Matrix out = x.value().Matmul(w.value());
  BiasAct(&out, b.defined() ? &b.value() : nullptr, act, leaky_alpha);
  std::vector<Tensor> parents{x, w};
  if (b.defined()) parents.push_back(b);
  // The activation backward reads the node's own output.
  return Tensor::FromOpWithOutput(
      std::move(out), std::move(parents),
      [x, w, b, act, leaky_alpha](const Matrix& g, const Matrix& out) {
        Matrix storage;
        const Matrix& ga = MaskedGrad(g, out, act, leaky_alpha, &storage);
        if (b.defined() && b.requires_grad()) b.AccumulateGrad(ga.ColSum());
        if (x.requires_grad()) x.AccumulateGrad(ga.MatmulTranspose(w.value()));
        if (w.requires_grad())
          w.AccumulateGrad(x.value().TransposeMatmul(ga));
      });
}

Tensor SpmmBiasAct(const SparseMatrix& sp, const Tensor& x, const Tensor& b,
                   Activation act, double leaky_alpha) {
  GNN4TDL_CHECK_EQ(sp.cols(), x.rows());
  if (b.defined()) {
    GNN4TDL_CHECK_EQ(b.rows(), 1u);
    GNN4TDL_CHECK_EQ(b.cols(), x.cols());
  }
  if (!FusionEnabled()) {
    CountFusion("spmm_bias_act", /*hit=*/false);
    Tensor out = ops::SpMM(sp, x);
    if (b.defined()) out = ops::AddRowBroadcast(out, b);
    return ActivateUnfused(out, act, leaky_alpha);
  }
  CountFusion("spmm_bias_act", /*hit=*/true);
  TapeOpScope op_scope("SpmmBiasAct");
  Matrix out = sp.Multiply(x.value());
  BiasAct(&out, b.defined() ? &b.value() : nullptr, act, leaky_alpha);
  std::vector<Tensor> parents{x};
  if (b.defined()) parents.push_back(b);
  // The tape owns the transposed operator, as in ops::SpMM.
  return Tensor::FromOpWithOutput(
      std::move(out), std::move(parents),
      [sp_t = sp.Transpose(), x, b, act, leaky_alpha](const Matrix& g,
                                                      const Matrix& out) {
        Matrix storage;
        const Matrix& ga = MaskedGrad(g, out, act, leaky_alpha, &storage);
        if (b.defined() && b.requires_grad()) b.AccumulateGrad(ga.ColSum());
        if (x.requires_grad()) x.AccumulateGrad(sp_t.Multiply(ga));
      });
}

Tensor AddAct(const Tensor& a, const Tensor& b, Activation act,
              double leaky_alpha) {
  GNN4TDL_CHECK_EQ(a.rows(), b.rows());
  GNN4TDL_CHECK_EQ(a.cols(), b.cols());
  if (!FusionEnabled()) {
    CountFusion("add_act", /*hit=*/false);
    return ActivateUnfused(ops::Add(a, b), act, leaky_alpha);
  }
  CountFusion("add_act", /*hit=*/true);
  TapeOpScope op_scope("AddAct");
  Matrix out = a.value() + b.value();
  BiasAct(&out, nullptr, act, leaky_alpha);
  return Tensor::FromOpWithOutput(
      std::move(out), {a, b},
      [a, b, act, leaky_alpha](const Matrix& g, const Matrix& out) {
        Matrix storage;
        const Matrix& ga = MaskedGrad(g, out, act, leaky_alpha, &storage);
        if (a.requires_grad()) a.AccumulateGrad(ga);
        if (b.requires_grad()) b.AccumulateGrad(ga);
      });
}

Tensor GatherConcat(const Tensor& a, const std::vector<size_t>& idx_a,
                    const Tensor& b, const std::vector<size_t>& idx_b) {
  GNN4TDL_CHECK_EQ(idx_a.size(), idx_b.size());
  const size_t rows = idx_a.size();
  const size_t da = a.cols();
  const size_t db = b.cols();
  if (!FusionEnabled()) {
    CountFusion("gather_concat", /*hit=*/false);
    return ops::ConcatCols(ops::GatherRows(a, idx_a),
                           ops::GatherRows(b, idx_b));
  }
  CountFusion("gather_concat", /*hit=*/true);
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
  if (!FusionEnabled()) {
    CountFusion("normalize_aggregate", /*hit=*/false);
    Tensor logw = ops::Log(ops::AddScalar(edge_weights, eps));
    Tensor alpha = ops::EdgeSoftmax(logw, dst, num_nodes);
    Tensor msg = ops::MulColBroadcast(ops::GatherRows(h, src), alpha);
    return ops::ScatterAddRows(msg, dst, num_nodes);
  }
  CountFusion("normalize_aggregate", /*hit=*/true);
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
