#include "nn/ops.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <random>

#include "common/check.h"
#include "common/parallel.h"
#include "kernels/kernels.h"
#include "obs/kernel_hooks.h"

namespace gnn4tdl::ops {

namespace {

void CheckSameShape(const Tensor& a, const Tensor& b) {
  GNN4TDL_CHECK_EQ(a.rows(), b.rows());
  GNN4TDL_CHECK_EQ(a.cols(), b.cols());
}

// Row-block grain for the row-wise activation/normalization/loss kernels:
// each chunk holds roughly this many scalar ops. Forward and backward share
// the same primitives and grains, so training and serving scale alike.
size_t RowGrain(size_t cost_per_row) {
  constexpr size_t kFlopGrain = 65536;
  return std::max<size_t>(1, kFlopGrain / std::max<size_t>(cost_per_row, 1));
}

double Softplus(double z) {
  // Numerically stable log(1 + exp(z)).
  return z > 0 ? z + std::log1p(std::exp(-z)) : std::log1p(std::exp(z));
}

// Doubles per chunk of the elementwise passes (tensor/matrix.cc's grain).
constexpr size_t kElemGrain = 16384;

// A URBG that returns one fixed engine draw: runs a std:: distribution on a
// chosen draw.
struct FixedDraw {
  using result_type = Rng::Engine::result_type;
  static constexpr result_type min() { return Rng::Engine::min(); }
  static constexpr result_type max() { return Rng::Engine::max(); }
  result_type operator()() const { return draw; }
  result_type draw;
};

// RowL2Normalize's value: each row over max(its L2 norm, eps), the divisors
// left in *norms for the backward.
Matrix RowL2NormalizeValue(const Matrix& a, double eps,
                           std::vector<double>* norms) {
  const size_t n = a.rows();
  const size_t d = a.cols();
  norms->assign(n, 0.0);
  Matrix out(n, d);
  // Rows are independent: parallel row blocks, serial per-row loops.
  ParallelFor(0, n, RowGrain(2 * d), [&](size_t lo, size_t hi) {
    for (size_t r = lo; r < hi; ++r) {
      double s = 0.0;
      for (size_t c = 0; c < d; ++c) s += a(r, c) * a(r, c);
      (*norms)[r] = std::max(std::sqrt(s), eps);
      for (size_t c = 0; c < d; ++c) out(r, c) = a(r, c) / (*norms)[r];
    }
  });
  return out;
}

}  // namespace

Tensor Sub(const Tensor& a, const Tensor& b) {
  TapeOpScope op_scope("Sub");
  CheckSameShape(a, b);
  return Tensor::FromOp(a.value() - b.value(), {a, b}, [a, b](const Matrix& g) {
    if (a.requires_grad()) a.AccumulateGrad(g);
    if (b.requires_grad()) b.AccumulateGrad(-g);
  });
}

Tensor CwiseMul(const Tensor& a, const Tensor& b) {
  TapeOpScope op_scope("CwiseMul");
  CheckSameShape(a, b);
  return Tensor::FromOp(a.value().CwiseMul(b.value()), {a, b},
                        [a, b](const Matrix& g) {
                          if (a.requires_grad())
                            a.AccumulateGrad(g.CwiseMul(b.value()));
                          if (b.requires_grad())
                            b.AccumulateGrad(g.CwiseMul(a.value()));
                        });
}

Tensor Scale(const Tensor& a, double s) {
  TapeOpScope op_scope("Scale");
  return Tensor::FromOp(a.value() * s, {a}, [a, s](const Matrix& g) {
    if (a.requires_grad()) a.AccumulateGrad(g * s);
  });
}

Tensor AddScalar(const Tensor& a, double c) {
  TapeOpScope op_scope("AddScalar");
  return Tensor::FromOp(a.value().Map([c](double v) { return v + c; }), {a},
                        [a](const Matrix& g) {
                          if (a.requires_grad()) a.AccumulateGrad(g);
                        });
}

Tensor AddRowBroadcast(const Tensor& a, const Tensor& b) {
  TapeOpScope op_scope("AddRowBroadcast");
  GNN4TDL_CHECK_EQ(b.rows(), 1u);
  GNN4TDL_CHECK_EQ(a.cols(), b.cols());
  Matrix out = a.value();
  for (size_t r = 0; r < out.rows(); ++r)
    for (size_t c = 0; c < out.cols(); ++c) out(r, c) += b.value()(0, c);
  return Tensor::FromOp(std::move(out), {a, b}, [a, b](const Matrix& g) {
    if (a.requires_grad()) a.AccumulateGrad(g);
    if (b.requires_grad()) b.AccumulateGrad(g.ColSum());
  });
}

Tensor MulColBroadcast(const Tensor& a, const Tensor& w) {
  TapeOpScope op_scope("MulColBroadcast");
  GNN4TDL_CHECK_EQ(w.cols(), 1u);
  GNN4TDL_CHECK_EQ(a.rows(), w.rows());
  Matrix out = a.value();
  for (size_t r = 0; r < out.rows(); ++r) {
    double s = w.value()(r, 0);
    for (size_t c = 0; c < out.cols(); ++c) out(r, c) *= s;
  }
  return Tensor::FromOp(std::move(out), {a, w}, [a, w](const Matrix& g) {
    if (a.requires_grad()) {
      Matrix ga = g;
      for (size_t r = 0; r < ga.rows(); ++r) {
        double s = w.value()(r, 0);
        for (size_t c = 0; c < ga.cols(); ++c) ga(r, c) *= s;
      }
      a.AccumulateGrad(ga);
    }
    if (w.requires_grad()) {
      Matrix gw(w.rows(), 1);
      for (size_t r = 0; r < g.rows(); ++r) {
        double s = 0.0;
        for (size_t c = 0; c < g.cols(); ++c) s += g(r, c) * a.value()(r, c);
        gw(r, 0) = s;
      }
      w.AccumulateGrad(gw);
    }
  });
}

Tensor Abs(const Tensor& a) {
  TapeOpScope op_scope("Abs");
  return Tensor::FromOp(a.value().Map([](double v) { return std::fabs(v); }),
                        {a}, [a](const Matrix& g) {
                          if (!a.requires_grad()) return;
                          Matrix ga = g;
                          for (size_t i = 0; i < ga.rows(); ++i)
                            for (size_t j = 0; j < ga.cols(); ++j) {
                              double v = a.value()(i, j);
                              ga(i, j) *= v > 0 ? 1.0 : (v < 0 ? -1.0 : 0.0);
                            }
                          a.AccumulateGrad(ga);
                        });
}

Tensor Exp(const Tensor& a) {
  TapeOpScope op_scope("Exp");
  return Tensor::FromOpWithOutput(
      a.value().Map([](double v) { return std::exp(v); }), {a},
      [a](const Matrix& g, const Matrix& out) {
        if (a.requires_grad()) a.AccumulateGrad(g.CwiseMul(out));
      });
}

Tensor Log(const Tensor& a) {
  TapeOpScope op_scope("Log");
  return Tensor::FromOp(a.value().Map([](double v) { return std::log(v); }),
                        {a}, [a](const Matrix& g) {
                          if (!a.requires_grad()) return;
                          a.AccumulateGrad(g.CwiseDiv(a.value()));
                        });
}

uint64_t DropoutKeepThreshold(double p) {
  GNN4TDL_CHECK(p > 0.0 && p < 1.0);
  // The distribution maps the draw to a canonical double that does not
  // decrease with it and drops iff that is below p, so it drops exactly on
  // the draws below some threshold; binary search finds it. p < 1, so the
  // largest draw keeps.
  std::bernoulli_distribution drop(p);
  const auto drops = [&drop](uint64_t draw) {
    FixedDraw engine{draw};
    return drop(engine);
  };
  GNN4TDL_CHECK(!drops(FixedDraw::max()));
  uint64_t lo = FixedDraw::min();
  uint64_t hi = FixedDraw::max();
  while (lo < hi) {
    const uint64_t mid = lo + (hi - lo) / 2;
    if (drops(mid)) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

Tensor Dropout(const Tensor& a, double p, Rng& rng, bool training) {
  TapeOpScope op_scope("Dropout");
  if (!training || p <= 0.0) return a;
  GNN4TDL_CHECK_LT(p, 1.0);
  // One engine draw per element, as std::bernoulli_distribution(p) takes:
  // drawn in bulk straight into the mask's storage, then turned into 0.0 or
  // keep_scale by one compare against the first draw that keeps.
  static_assert(sizeof(uint64_t) == sizeof(double));
  Matrix mask = Matrix::Uninitialized(a.rows(), a.cols());
  const size_t n = mask.size();
  double* m = mask.data();
  rng.engine().Generate(reinterpret_cast<uint64_t*>(m), n,
                        kernels::Dispatch().mt64_block);
  const uint64_t keep_from = DropoutKeepThreshold(p);
  const double keep_scale = 1.0 / (1.0 - p);
  Matrix out = Matrix::Uninitialized(a.rows(), a.cols());
  const double* av = a.value().data();
  double* o = out.data();
  ParallelFor(0, n, kElemGrain, [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) {
      uint64_t draw;
      std::memcpy(&draw, m + i, sizeof(draw));
      m[i] = draw < keep_from ? 0.0 : keep_scale;
      o[i] = av[i] * m[i];
    }
  });
  return Tensor::FromOp(std::move(out), {a},
                        [a, mask = std::move(mask)](const Matrix& g) {
                          if (a.requires_grad())
                            a.AccumulateGrad(g.CwiseMul(mask));
                        });
}

Tensor ConcatCols(const Tensor& a, const Tensor& b) {
  TapeOpScope op_scope("ConcatCols");
  GNN4TDL_CHECK_EQ(a.rows(), b.rows());
  const size_t ac = a.cols();
  const size_t bc = b.cols();
  return Tensor::FromOp(
      a.value().ConcatCols(b.value()), {a, b}, [a, b, ac, bc](const Matrix& g) {
        if (a.requires_grad()) {
          Matrix ga(g.rows(), ac);
          for (size_t r = 0; r < g.rows(); ++r)
            std::copy(g.row_data(r), g.row_data(r) + ac, ga.row_data(r));
          a.AccumulateGrad(ga);
        }
        if (b.requires_grad()) {
          Matrix gb(g.rows(), bc);
          for (size_t r = 0; r < g.rows(); ++r)
            std::copy(g.row_data(r) + ac, g.row_data(r) + ac + bc,
                      gb.row_data(r));
          b.AccumulateGrad(gb);
        }
      });
}

Tensor ConcatRows(const std::vector<Tensor>& parts) {
  TapeOpScope op_scope("ConcatRows");
  GNN4TDL_CHECK(!parts.empty());
  const size_t cols = parts[0].cols();
  size_t total_rows = 0;
  for (const Tensor& p : parts) {
    GNN4TDL_CHECK_EQ(p.cols(), cols);
    total_rows += p.rows();
  }
  Matrix out(total_rows, cols);
  size_t row = 0;
  std::vector<size_t> offsets;
  for (const Tensor& p : parts) {
    offsets.push_back(row);
    std::copy(p.value().data(), p.value().data() + p.rows() * cols,
              out.row_data(row));
    row += p.rows();
  }
  std::vector<Tensor> parents = parts;
  return Tensor::FromOp(std::move(out), parts,
                        [parents, offsets, cols](const Matrix& g) {
                          for (size_t i = 0; i < parents.size(); ++i) {
                            const Tensor& p = parents[i];
                            if (!p.requires_grad()) continue;
                            Matrix gp(p.rows(), cols);
                            std::copy(g.row_data(offsets[i]),
                                      g.row_data(offsets[i]) + p.rows() * cols,
                                      gp.data());
                            p.AccumulateGrad(gp);
                          }
                        });
}

Tensor Reshape(const Tensor& a, size_t new_rows, size_t new_cols) {
  TapeOpScope op_scope("Reshape");
  const size_t old_rows = a.rows();
  const size_t old_cols = a.cols();
  return Tensor::FromOp(a.value().Reshape(new_rows, new_cols), {a},
                        [a, old_rows, old_cols](const Matrix& g) {
                          if (a.requires_grad())
                            a.AccumulateGrad(g.Reshape(old_rows, old_cols));
                        });
}

Tensor Transpose(const Tensor& a) {
  TapeOpScope op_scope("Transpose");
  return Tensor::FromOp(a.value().Transpose(), {a}, [a](const Matrix& g) {
    if (a.requires_grad()) a.AccumulateGrad(g.Transpose());
  });
}

Tensor WeightedSpMM(const Tensor& weights, const Tensor& x,
                    const SparseMatrix& pattern,
                    const std::vector<size_t>& slot,
                    const std::vector<size_t>& src,
                    const std::vector<size_t>& dst) {
  TapeOpScope op_scope("WeightedSpMM");
  const size_t num_edges = slot.size();
  GNN4TDL_CHECK_EQ(weights.rows(), num_edges);
  GNN4TDL_CHECK_EQ(weights.cols(), 1u);
  GNN4TDL_CHECK_EQ(pattern.nnz(), num_edges);
  GNN4TDL_CHECK_EQ(src.size(), num_edges);
  GNN4TDL_CHECK_EQ(dst.size(), num_edges);
  GNN4TDL_CHECK_EQ(x.rows(), pattern.cols());

  // Stamp the current edge weights into the fixed sparsity pattern; the tape
  // closure owns its transpose (the backward pass needs A^T).
  SparseMatrix a = pattern;
  std::vector<double>& values = a.mutable_values();
  const Matrix& w = weights.value();
  for (size_t e = 0; e < num_edges; ++e) values[slot[e]] = w.row_data(e)[0];

  std::vector<size_t> src_copy = src;
  std::vector<size_t> dst_copy = dst;
  return Tensor::FromOp(
      a.Multiply(x.value()), {weights, x},
      [a_t = a.Transpose(), weights, x, src_copy, dst_copy](const Matrix& g) {
        if (x.requires_grad()) x.AccumulateGrad(a_t.Multiply(g));
        if (!weights.requires_grad()) return;
        const Matrix& xv = x.value();
        const size_t cols = xv.cols();
        Matrix gw(src_copy.size(), 1);
        // Edges are independent: disjoint writes, deterministic chunking.
        ParallelFor(0, src_copy.size(), 256, [&](size_t begin, size_t end) {
          for (size_t e = begin; e < end; ++e) {
            const double* gr = g.row_data(dst_copy[e]);
            const double* xr = xv.row_data(src_copy[e]);
            double dot = 0.0;
            for (size_t c = 0; c < cols; ++c) dot += gr[c] * xr[c];
            gw.row_data(e)[0] = dot;
          }
        });
        weights.AccumulateGrad(gw);
      });
}

Tensor GatherRows(const Tensor& x, const std::vector<size_t>& idx) {
  TapeOpScope op_scope("GatherRows");
  Matrix out(idx.size(), x.cols());
  for (size_t i = 0; i < idx.size(); ++i) {
    GNN4TDL_CHECK_LT(idx[i], x.rows());
    std::copy(x.value().row_data(idx[i]), x.value().row_data(idx[i]) + x.cols(),
              out.row_data(i));
  }
  std::vector<size_t> idx_copy = idx;
  const size_t n = x.rows();
  return Tensor::FromOp(std::move(out), {x},
                        [x, idx_copy, n](const Matrix& g) {
                          if (!x.requires_grad()) return;
                          Matrix gx(n, g.cols());
                          for (size_t i = 0; i < idx_copy.size(); ++i) {
                            double* dst = gx.row_data(idx_copy[i]);
                            const double* src = g.row_data(i);
                            for (size_t c = 0; c < g.cols(); ++c) dst[c] += src[c];
                          }
                          x.AccumulateGrad(gx);
                        });
}

Tensor ScatterAddRows(const Tensor& x, const std::vector<size_t>& idx,
                      size_t num_out) {
  TapeOpScope op_scope("ScatterAddRows");
  GNN4TDL_CHECK_EQ(idx.size(), x.rows());
  Matrix out(num_out, x.cols());
  for (size_t i = 0; i < idx.size(); ++i) {
    GNN4TDL_CHECK_LT(idx[i], num_out);
    double* dst = out.row_data(idx[i]);
    const double* src = x.value().row_data(i);
    for (size_t c = 0; c < x.cols(); ++c) dst[c] += src[c];
  }
  std::vector<size_t> idx_copy = idx;
  return Tensor::FromOp(std::move(out), {x}, [x, idx_copy](const Matrix& g) {
    if (!x.requires_grad()) return;
    Matrix gx(idx_copy.size(), g.cols());
    for (size_t i = 0; i < idx_copy.size(); ++i)
      std::copy(g.row_data(idx_copy[i]), g.row_data(idx_copy[i]) + g.cols(),
                gx.row_data(i));
    x.AccumulateGrad(gx);
  });
}

Tensor EdgeSoftmax(const Tensor& logits, const std::vector<size_t>& dst,
                   size_t num_groups) {
  TapeOpScope op_scope("EdgeSoftmax");
  // Forward and backward both delegate to the parallel segment-softmax
  // kernels in tensor/sparse.h, so the autograd path scales exactly like the
  // inference path. The op-level scope wraps the kernel-level
  // "segment_softmax" span so traces show the attention op as its parent.
  obs::KernelScope kernel("edge_softmax",
                          5.0 * static_cast<double>(dst.size()),
                          8.0 * (3.0 * dst.size() + 2.0 * num_groups));
  Matrix out = SegmentSoftmax(logits.value(), dst, num_groups);
  std::vector<size_t> dst_copy = dst;
  Matrix softmax = out;
  return Tensor::FromOp(
      std::move(out), {logits},
      [logits, dst_copy, softmax, num_groups](const Matrix& g) {
        if (!logits.requires_grad()) return;
        logits.AccumulateGrad(
            SegmentSoftmaxBackward(softmax, g, dst_copy, num_groups));
      });
}

Tensor RowL2Normalize(const Tensor& a, double eps) {
  TapeOpScope op_scope("RowL2Normalize");
  std::vector<double> norms;
  Matrix out = RowL2NormalizeValue(a.value(), eps, &norms);
  Matrix normalized = out;
  return Tensor::FromOp(std::move(out), {a},
                        [a, normalized, norms](const Matrix& g) {
                          if (!a.requires_grad()) return;
                          Matrix ga(g.rows(), g.cols());
                          ParallelFor(0, g.rows(), RowGrain(2 * g.cols()),
                                      [&](size_t lo, size_t hi) {
                            for (size_t r = lo; r < hi; ++r) {
                              double dot = 0.0;
                              for (size_t c = 0; c < g.cols(); ++c)
                                dot += g(r, c) * normalized(r, c);
                              for (size_t c = 0; c < g.cols(); ++c)
                                ga(r, c) = (g(r, c) -
                                            dot * normalized(r, c)) /
                                           norms[r];
                            }
                          });
                          a.AccumulateGrad(ga);
                        });
}

Matrix LayerNormRowsValue(const Matrix& x, const Matrix& gamma,
                          const Matrix& beta, double eps, Matrix* x_hat_out,
                          std::vector<double>* inv_std_out) {
  const size_t n = x.rows();
  const size_t d = x.cols();
  GNN4TDL_CHECK_EQ(gamma.rows(), 1u);
  GNN4TDL_CHECK_EQ(gamma.cols(), d);
  GNN4TDL_CHECK_EQ(beta.rows(), 1u);
  GNN4TDL_CHECK_EQ(beta.cols(), d);
  GNN4TDL_CHECK_GT(d, 0u);

  // Row-parallel; per-row statistics keep their serial accumulation order.
  Matrix x_hat(n, d);
  std::vector<double> inv_std(n);
  Matrix out(n, d);
  ParallelFor(0, n, RowGrain(4 * d), [&](size_t lo, size_t hi) {
    for (size_t r = lo; r < hi; ++r) {
      double mean = 0.0;
      for (size_t c = 0; c < d; ++c) mean += x(r, c);
      mean /= static_cast<double>(d);
      double var = 0.0;
      for (size_t c = 0; c < d; ++c) {
        double centered = x(r, c) - mean;
        var += centered * centered;
      }
      var /= static_cast<double>(d);
      inv_std[r] = 1.0 / std::sqrt(var + eps);
      for (size_t c = 0; c < d; ++c)
        x_hat(r, c) = (x(r, c) - mean) * inv_std[r];
      for (size_t c = 0; c < d; ++c)
        out(r, c) = x_hat(r, c) * gamma(0, c) + beta(0, c);
    }
  });
  if (x_hat_out != nullptr) *x_hat_out = std::move(x_hat);
  if (inv_std_out != nullptr) *inv_std_out = std::move(inv_std);
  return out;
}

Tensor LayerNormRows(const Tensor& x, const Tensor& gamma, const Tensor& beta,
                     double eps) {
  TapeOpScope op_scope("LayerNormRows");
  // The backward reads the normalized values x_hat and the inverse stddevs.
  Matrix x_hat;
  std::vector<double> inv_std;
  Matrix out = LayerNormRowsValue(x.value(), gamma.value(), beta.value(), eps,
                                  &x_hat, &inv_std);
  return Tensor::FromOp(
      std::move(out), {x, gamma, beta},
      [x, gamma, beta, x_hat, inv_std](const Matrix& g) {
        const size_t n = g.rows();
        const size_t d = g.cols();
        if (gamma.requires_grad()) {
          Matrix gg(1, d);
          for (size_t r = 0; r < n; ++r)
            for (size_t c = 0; c < d; ++c) gg(0, c) += g(r, c) * x_hat(r, c);
          gamma.AccumulateGrad(gg);
        }
        if (beta.requires_grad()) {
          beta.AccumulateGrad(g.ColSum());
        }
        if (x.requires_grad()) {
          // dx = inv_std * (gy - mean(gy) - x_hat * mean(gy * x_hat)),
          // where gy = g * gamma (per column). Row-parallel like the forward;
          // the gamma/beta reductions above stay serial (they fold over rows
          // into a single 1 x d accumulator).
          Matrix gx(n, d);
          ParallelFor(0, n, RowGrain(6 * d), [&](size_t lo, size_t hi) {
            for (size_t r = lo; r < hi; ++r) {
              double mean_gy = 0.0, mean_gy_xhat = 0.0;
              for (size_t c = 0; c < d; ++c) {
                double gy = g(r, c) * gamma.value()(0, c);
                mean_gy += gy;
                mean_gy_xhat += gy * x_hat(r, c);
              }
              mean_gy /= static_cast<double>(d);
              mean_gy_xhat /= static_cast<double>(d);
              for (size_t c = 0; c < d; ++c) {
                double gy = g(r, c) * gamma.value()(0, c);
                gx(r, c) =
                    inv_std[r] * (gy - mean_gy - x_hat(r, c) * mean_gy_xhat);
              }
            }
          });
          x.AccumulateGrad(gx);
        }
      });
}

Matrix PairNormRowsValue(const Matrix& x, double scale, double eps) {
  const size_t n = x.rows();
  GNN4TDL_CHECK_GT(n, 0u);
  // PairNormRows' composition below, step for step on values.
  const Matrix ones_col = Matrix::Ones(n, 1);
  const Matrix col_mean =
      ones_col.Transpose().Matmul(x) * (1.0 / static_cast<double>(n));
  const Matrix centered = x - ones_col.Matmul(col_mean);
  std::vector<double> norms;
  return RowL2NormalizeValue(centered, eps, &norms) * scale;
}

Tensor PairNormRows(const Tensor& x, double scale, double eps) {
  TapeOpScope op_scope("PairNormRows");
  const size_t n = x.rows();
  GNN4TDL_CHECK_GT(n, 0u);
  // Column centering: xc = x - 1 * col_mean. Composable from existing ops so
  // the backward comes for free.
  Tensor ones_col = Tensor::Constant(Matrix::Ones(n, 1));
  Tensor col_mean =
      ops::Scale(ops::MatMul(ops::Transpose(ones_col), x),
                 1.0 / static_cast<double>(n));       // 1 x d
  Tensor centered = ops::Sub(x, ops::MatMul(ones_col, col_mean));
  return ops::Scale(ops::RowL2Normalize(centered, eps), scale);
}

Tensor SegmentMeanRows(const Tensor& x, const std::vector<size_t>& seg,
                       size_t num_segments) {
  TapeOpScope op_scope("SegmentMeanRows");
  GNN4TDL_CHECK_EQ(seg.size(), x.rows());
  std::vector<double> counts(num_segments, 0.0);
  for (size_t s : seg) {
    GNN4TDL_CHECK_LT(s, num_segments);
    counts[s] += 1.0;
  }
  Matrix out(num_segments, x.cols());
  for (size_t i = 0; i < seg.size(); ++i) {
    double* dst = out.row_data(seg[i]);
    const double* src = x.value().row_data(i);
    for (size_t c = 0; c < x.cols(); ++c) dst[c] += src[c];
  }
  for (size_t s = 0; s < num_segments; ++s) {
    if (counts[s] == 0.0) continue;
    double* row = out.row_data(s);
    for (size_t c = 0; c < x.cols(); ++c) row[c] /= counts[s];
  }
  std::vector<size_t> seg_copy = seg;
  return Tensor::FromOp(std::move(out), {x},
                        [x, seg_copy, counts](const Matrix& g) {
                          if (!x.requires_grad()) return;
                          Matrix gx(seg_copy.size(), g.cols());
                          for (size_t i = 0; i < seg_copy.size(); ++i) {
                            const size_t s = seg_copy[i];
                            const double inv = 1.0 / counts[s];
                            const double* src = g.row_data(s);
                            double* dst = gx.row_data(i);
                            for (size_t c = 0; c < g.cols(); ++c)
                              dst[c] = src[c] * inv;
                          }
                          x.AccumulateGrad(gx);
                        });
}

Tensor SegmentMaxRows(const Tensor& x, const std::vector<size_t>& seg,
                      size_t num_segments) {
  TapeOpScope op_scope("SegmentMaxRows");
  GNN4TDL_CHECK_EQ(seg.size(), x.rows());
  const size_t d = x.cols();
  Matrix out(num_segments, d);
  // argmax[s * d + c] = input row index achieving the max, SIZE_MAX if empty.
  std::vector<size_t> argmax(num_segments * d, SIZE_MAX);
  for (size_t i = 0; i < seg.size(); ++i) {
    const size_t s = seg[i];
    GNN4TDL_CHECK_LT(s, num_segments);
    for (size_t c = 0; c < d; ++c) {
      double v = x.value()(i, c);
      size_t slot = s * d + c;
      if (argmax[slot] == SIZE_MAX || v > out(s, c)) {
        out(s, c) = v;
        argmax[slot] = i;
      }
    }
  }
  std::vector<size_t> argmax_copy = argmax;
  const size_t in_rows = x.rows();
  return Tensor::FromOp(std::move(out), {x},
                        [x, argmax_copy, in_rows, d](const Matrix& g) {
                          if (!x.requires_grad()) return;
                          Matrix gx(in_rows, d);
                          for (size_t s = 0; s < g.rows(); ++s)
                            for (size_t c = 0; c < d; ++c) {
                              size_t i = argmax_copy[s * d + c];
                              if (i != SIZE_MAX) gx(i, c) += g(s, c);
                            }
                          x.AccumulateGrad(gx);
                        });
}

Tensor SumAll(const Tensor& a) {
  TapeOpScope op_scope("SumAll");
  Matrix out(1, 1);
  out(0, 0) = a.value().Sum();
  const size_t r = a.rows();
  const size_t c = a.cols();
  return Tensor::FromOp(std::move(out), {a}, [a, r, c](const Matrix& g) {
    if (a.requires_grad()) a.AccumulateGrad(Matrix::Full(r, c, g(0, 0)));
  });
}

Tensor MeanAll(const Tensor& a) {
  TapeOpScope op_scope("MeanAll");
  GNN4TDL_CHECK_GT(a.rows() * a.cols(), 0u);
  return Scale(SumAll(a), 1.0 / static_cast<double>(a.rows() * a.cols()));
}

Tensor SumSquares(const Tensor& a) {
  TapeOpScope op_scope("SumSquares");
  Matrix out(1, 1);
  double s = 0.0;
  for (size_t i = 0; i < a.rows(); ++i)
    for (size_t j = 0; j < a.cols(); ++j) s += a.value()(i, j) * a.value()(i, j);
  out(0, 0) = s;
  return Tensor::FromOp(std::move(out), {a}, [a](const Matrix& g) {
    if (a.requires_grad()) a.AccumulateGrad(a.value() * (2.0 * g(0, 0)));
  });
}

Tensor SumAbs(const Tensor& a) {
  TapeOpScope op_scope("SumAbs");
  Matrix out(1, 1);
  double s = 0.0;
  for (size_t i = 0; i < a.rows(); ++i)
    for (size_t j = 0; j < a.cols(); ++j) s += std::fabs(a.value()(i, j));
  out(0, 0) = s;
  return Tensor::FromOp(std::move(out), {a}, [a](const Matrix& g) {
    if (!a.requires_grad()) return;
    Matrix ga = a.value().Map([](double v) {
      return v > 0 ? 1.0 : (v < 0 ? -1.0 : 0.0);
    });
    a.AccumulateGrad(ga * g(0, 0));
  });
}

Matrix SoftmaxRowsValue(const Matrix& logits) {
  const size_t n = logits.rows();
  const size_t c_dim = logits.cols();
  Matrix out(n, c_dim);
  // Row softmax is embarrassingly row-parallel; per-row max/sum stay serial.
  ParallelFor(0, n, RowGrain(4 * c_dim), [&](size_t lo, size_t hi) {
    for (size_t r = lo; r < hi; ++r) {
      double mx = -std::numeric_limits<double>::infinity();
      for (size_t c = 0; c < c_dim; ++c) mx = std::max(mx, logits(r, c));
      double sum = 0.0;
      for (size_t c = 0; c < c_dim; ++c) {
        out(r, c) = std::exp(logits(r, c) - mx);
        sum += out(r, c);
      }
      for (size_t c = 0; c < c_dim; ++c) out(r, c) /= sum;
    }
  });
  return out;
}

Tensor SoftmaxRows(const Tensor& logits) {
  TapeOpScope op_scope("SoftmaxRows");
  Matrix out = SoftmaxRowsValue(logits.value());
  Matrix softmax = out;
  return Tensor::FromOp(std::move(out), {logits},
                        [logits, softmax](const Matrix& g) {
                          if (!logits.requires_grad()) return;
                          Matrix gl(g.rows(), g.cols());
                          ParallelFor(0, g.rows(), RowGrain(3 * g.cols()),
                                      [&](size_t lo, size_t hi) {
                            for (size_t r = lo; r < hi; ++r) {
                              double dot = 0.0;
                              for (size_t c = 0; c < g.cols(); ++c)
                                dot += g(r, c) * softmax(r, c);
                              for (size_t c = 0; c < g.cols(); ++c)
                                gl(r, c) = softmax(r, c) * (g(r, c) - dot);
                            }
                          });
                          logits.AccumulateGrad(gl);
                        });
}

Tensor SoftmaxCrossEntropy(const Tensor& logits, const std::vector<int>& labels,
                           const std::vector<double>& weights) {
  TapeOpScope op_scope("SoftmaxCrossEntropy");
  const size_t n = logits.rows();
  const size_t c_dim = logits.cols();
  GNN4TDL_CHECK_EQ(labels.size(), n);
  std::vector<double> w = weights.empty() ? std::vector<double>(n, 1.0) : weights;
  GNN4TDL_CHECK_EQ(w.size(), n);

  double w_sum = 0.0;
  for (double v : w) w_sum += v;
  GNN4TDL_CHECK_MSG(w_sum > 0.0, "SoftmaxCrossEntropy: all rows masked");

  // Per-row probabilities in parallel (write-disjoint rows); the scalar loss
  // is a tree reduction over row blocks — deterministic for a fixed thread
  // count, equal to the serial sum at threads=1.
  Matrix probs(n, c_dim);
  double loss = ParallelReduceSum(0, n, RowGrain(5 * c_dim),
                                  [&](size_t lo, size_t hi) {
    double chunk_loss = 0.0;
    for (size_t r = lo; r < hi; ++r) {
      double mx = -std::numeric_limits<double>::infinity();
      for (size_t c = 0; c < c_dim; ++c)
        mx = std::max(mx, logits.value()(r, c));
      double sum = 0.0;
      for (size_t c = 0; c < c_dim; ++c) {
        probs(r, c) = std::exp(logits.value()(r, c) - mx);
        sum += probs(r, c);
      }
      for (size_t c = 0; c < c_dim; ++c) probs(r, c) /= sum;
      if (w[r] != 0.0) {
        const int y = labels[r];
        GNN4TDL_CHECK_GE(y, 0);
        GNN4TDL_CHECK_LT(static_cast<size_t>(y), c_dim);
        chunk_loss += w[r] * -std::log(std::max(
                                 probs(r, static_cast<size_t>(y)), 1e-300));
      }
    }
    return chunk_loss;
  });
  Matrix out(1, 1);
  out(0, 0) = loss / w_sum;

  std::vector<int> labels_copy = labels;
  return Tensor::FromOp(
      std::move(out), {logits},
      [logits, probs, labels_copy, w, w_sum](const Matrix& g) {
        if (!logits.requires_grad()) return;
        Matrix gl = probs;
        ParallelFor(0, gl.rows(), RowGrain(2 * gl.cols()),
                    [&](size_t lo, size_t hi) {
          for (size_t r = lo; r < hi; ++r) {
            if (w[r] == 0.0) {
              for (size_t c = 0; c < gl.cols(); ++c) gl(r, c) = 0.0;
              continue;
            }
            gl(r, static_cast<size_t>(labels_copy[r])) -= 1.0;
            const double scale = g(0, 0) * w[r] / w_sum;
            for (size_t c = 0; c < gl.cols(); ++c) gl(r, c) *= scale;
          }
        });
        logits.AccumulateGrad(gl);
      });
}

Tensor MseLoss(const Tensor& pred, const Matrix& target,
               const std::vector<double>& weights) {
  TapeOpScope op_scope("MseLoss");
  const size_t n = pred.rows();
  const size_t c_dim = pred.cols();
  GNN4TDL_CHECK_EQ(target.rows(), n);
  GNN4TDL_CHECK_EQ(target.cols(), c_dim);
  std::vector<double> w = weights.empty() ? std::vector<double>(n, 1.0) : weights;
  GNN4TDL_CHECK_EQ(w.size(), n);

  double w_sum = 0.0;
  for (double v : w) w_sum += v;
  GNN4TDL_CHECK_MSG(w_sum > 0.0, "MseLoss: all rows masked");
  const double denom = w_sum * static_cast<double>(c_dim);

  double loss = ParallelReduceSum(0, n, RowGrain(3 * c_dim),
                                  [&](size_t lo, size_t hi) {
    double chunk_loss = 0.0;
    for (size_t r = lo; r < hi; ++r) {
      if (w[r] == 0.0) continue;
      for (size_t c = 0; c < c_dim; ++c) {
        double d = pred.value()(r, c) - target(r, c);
        chunk_loss += w[r] * d * d;
      }
    }
    return chunk_loss;
  });
  Matrix out(1, 1);
  out(0, 0) = loss / denom;

  Matrix target_copy = target;
  return Tensor::FromOp(std::move(out), {pred},
                        [pred, target_copy, w, denom](const Matrix& g) {
                          if (!pred.requires_grad()) return;
                          Matrix gp(pred.rows(), pred.cols());
                          ParallelFor(0, gp.rows(), RowGrain(2 * gp.cols()),
                                      [&](size_t lo, size_t hi) {
                            for (size_t r = lo; r < hi; ++r) {
                              if (w[r] == 0.0) continue;
                              const double scale =
                                  2.0 * g(0, 0) * w[r] / denom;
                              for (size_t c = 0; c < gp.cols(); ++c)
                                gp(r, c) = scale * (pred.value()(r, c) -
                                                    target_copy(r, c));
                            }
                          });
                          pred.AccumulateGrad(gp);
                        });
}

Tensor BceWithLogits(const Tensor& pred, const std::vector<double>& targets,
                     const std::vector<double>& weights) {
  TapeOpScope op_scope("BceWithLogits");
  const size_t n = pred.rows();
  GNN4TDL_CHECK_EQ(pred.cols(), 1u);
  GNN4TDL_CHECK_EQ(targets.size(), n);
  std::vector<double> w = weights.empty() ? std::vector<double>(n, 1.0) : weights;
  GNN4TDL_CHECK_EQ(w.size(), n);

  double w_sum = 0.0;
  for (double v : w) w_sum += v;
  GNN4TDL_CHECK_MSG(w_sum > 0.0, "BceWithLogits: all rows masked");

  double loss = ParallelReduceSum(0, n, RowGrain(8), [&](size_t lo, size_t hi) {
    double chunk_loss = 0.0;
    for (size_t r = lo; r < hi; ++r) {
      if (w[r] == 0.0) continue;
      double z = pred.value()(r, 0);
      chunk_loss += w[r] * (Softplus(z) - targets[r] * z);
    }
    return chunk_loss;
  });
  Matrix out(1, 1);
  out(0, 0) = loss / w_sum;

  std::vector<double> t_copy = targets;
  return Tensor::FromOp(std::move(out), {pred},
                        [pred, t_copy, w, w_sum](const Matrix& g) {
                          if (!pred.requires_grad()) return;
                          Matrix gp(pred.rows(), 1);
                          ParallelFor(0, gp.rows(), RowGrain(8),
                                      [&](size_t lo, size_t hi) {
                            for (size_t r = lo; r < hi; ++r) {
                              if (w[r] == 0.0) continue;
                              double z = pred.value()(r, 0);
                              gp(r, 0) = g(0, 0) * w[r] *
                                         (kernels::detail::StableSigmoid(z) -
                                          t_copy[r]) /
                                         w_sum;
                            }
                          });
                          pred.AccumulateGrad(gp);
                        });
}

}  // namespace gnn4tdl::ops
