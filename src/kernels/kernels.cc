// Scalar kernel tier + runtime dispatch. This translation unit is compiled
// with -ffp-contract=off so the compiler cannot fuse the explicit mul/add
// structure behind our backs: every f32 accumulation that must match the
// AVX2 tier bit for bit goes through std::fmaf (single rounding, the scalar
// twin of _mm256_fmadd_ps) in the same summation order, and every f64
// product and sum keeps its own rounding, as the AVX2 tier's mul/add do.
// The scalar tier is a portability fallback and a correctness reference, not
// a fast path — on machines without hardware FMA, std::fmaf falls back to
// libm's correctly rounded soft implementation.

#include "kernels/kernels.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <string>

#include "common/parallel.h"
#include "common/rng.h"
#include "obs/kernel_hooks.h"

namespace gnn4tdl::kernels {

const char* PrecisionName(Precision p) {
  switch (p) {
    case Precision::kF64:
      return "f64";
    case Precision::kF32:
      return "f32";
  }
  return "unknown";
}

StatusOr<Precision> PrecisionFromName(const std::string& name) {
  if (name == "f64") return Precision::kF64;
  if (name == "f32") return Precision::kF32;
  return Status::InvalidArgument("unknown precision: '" + name +
                                 "' (expected f32 or f64)");
}

const char* SimdLevelName(SimdLevel level) {
  switch (level) {
    case SimdLevel::kScalar:
      return "scalar";
    case SimdLevel::kAvx2:
      return "avx2";
  }
  return "unknown";
}

namespace {

// Row-block grain heuristics, mirroring the double kernels: aim for chunks of
// roughly this many flops so small serving batches stay on the calling thread.
constexpr size_t kGrainFlops = 1 << 14;

size_t RowGrain(size_t flops_per_row) {
  return std::max<size_t>(1, kGrainFlops / std::max<size_t>(1, flops_per_row));
}

// --- Scalar kernels --------------------------------------------------------
// Accumulation-order spec shared with kernels_avx2.cc (see docs/KERNELS.md):
//   matmul / spmm : out rows accumulate in k-order, each update is one fused
//                   multiply-add per output element (lanes across j are
//                   independent, so vectorizing j preserves the bits).
//   matmul_nt     : dot products accumulate into 8 accumulators striped by
//                   k % 8, reduced by detail::Combine8.

void MatmulScalar(const FMatrix& a, const FMatrix& b, FMatrix* out) {
  const size_t m = a.rows(), kd = a.cols(), n = b.cols();
  ParallelFor(0, m, RowGrain(2 * kd * n), [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) {
      float* out_row = out->row_data(i);
      for (size_t j = 0; j < n; ++j) out_row[j] = 0.0f;
      const float* a_row = a.row_data(i);
      for (size_t k = 0; k < kd; ++k) {
        const float av = a_row[k];
        const float* b_row = b.row_data(k);
        for (size_t j = 0; j < n; ++j)
          out_row[j] = std::fmaf(av, b_row[j], out_row[j]);
      }
    }
  });
}

void MatmulNtScalar(const FMatrix& a, const FMatrix& b, FMatrix* out) {
  const size_t m = a.rows(), kd = a.cols(), n = b.rows();
  ParallelFor(0, m, RowGrain(2 * kd * n), [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) {
      const float* a_row = a.row_data(i);
      float* out_row = out->row_data(i);
      for (size_t j = 0; j < n; ++j) {
        const float* b_row = b.row_data(j);
        float acc[8] = {0.0f, 0.0f, 0.0f, 0.0f, 0.0f, 0.0f, 0.0f, 0.0f};
        size_t k = 0;
        for (; k + 8 <= kd; k += 8) {
          for (size_t l = 0; l < 8; ++l)
            acc[l] = std::fmaf(a_row[k + l], b_row[k + l], acc[l]);
        }
        for (size_t l = 0; k < kd; ++k, ++l)
          acc[l] = std::fmaf(a_row[k], b_row[k], acc[l]);
        out_row[j] = detail::Combine8(acc);
      }
    }
  });
}

void SpmmScalar(const FCsr& s, const FMatrix& x, FMatrix* out) {
  const size_t n = x.cols();
  const size_t flops_per_row =
      s.rows > 0 ? 2 * n * std::max<size_t>(1, s.nnz() / s.rows) : 1;
  ParallelFor(0, s.rows, RowGrain(flops_per_row), [&](size_t lo, size_t hi) {
    for (size_t r = lo; r < hi; ++r) {
      float* out_row = out->row_data(r);
      for (size_t j = 0; j < n; ++j) out_row[j] = 0.0f;
      for (uint32_t k = s.row_ptr[r]; k < s.row_ptr[r + 1]; ++k) {
        const float v = s.values[k];
        const float* x_row = x.row_data(s.col_idx[k]);
        for (size_t j = 0; j < n; ++j)
          out_row[j] = std::fmaf(v, x_row[j], out_row[j]);
      }
    }
  });
}

void SpmmBiasActScalar(const FCsr& s, const FMatrix& x, const float* bias,
                       FAct act, float alpha, FMatrix* out) {
  const size_t n = x.cols();
  const size_t flops_per_row =
      s.rows > 0 ? 2 * n * std::max<size_t>(1, s.nnz() / s.rows) : 1;
  ParallelFor(0, s.rows, RowGrain(flops_per_row), [&](size_t lo, size_t hi) {
    for (size_t r = lo; r < hi; ++r) {
      float* out_row = out->row_data(r);
      for (size_t j = 0; j < n; ++j) out_row[j] = 0.0f;
      for (uint32_t k = s.row_ptr[r]; k < s.row_ptr[r + 1]; ++k) {
        const float v = s.values[k];
        const float* x_row = x.row_data(s.col_idx[k]);
        for (size_t j = 0; j < n; ++j)
          out_row[j] = std::fmaf(v, x_row[j], out_row[j]);
      }
      // The row is complete and hot: apply bias+activation before moving on.
      for (size_t j = 0; j < n; ++j) {
        out_row[j] = detail::ApplyBiasAct(
            out_row[j], bias != nullptr ? bias[j] : 0.0f, act, alpha);
      }
    }
  });
}

void BiasActScalar(FMatrix* x, const float* bias, FAct act, float alpha) {
  const size_t cols = x->cols();
  for (size_t r = 0; r < x->rows(); ++r) {
    float* row = x->row_data(r);
    for (size_t j = 0; j < cols; ++j) {
      row[j] = detail::ApplyBiasAct(row[j], bias != nullptr ? bias[j] : 0.0f,
                                    act, alpha);
    }
  }
}

void ScaleAddScalar(const FMatrix& a, float sa, const FMatrix& b, float sb,
                    FMatrix* out) {
  const float* pa = a.data();
  const float* pb = b.data();
  float* po = out->data();
  // Spec: round sb*b first, then one fused multiply-add — matches the AVX2
  // mul + fmadd sequence exactly.
  for (size_t i = 0; i < a.size(); ++i)
    po[i] = std::fmaf(sa, pa[i], sb * pb[i]);
}

// The kNN scan's per-pair step: one similarity metric's loop body, query
// first (see KnnScanOp). Lane order never enters the arithmetic.
template <KnnScanOp Op>
void KnnScanOpScalar(const double* queries, size_t num_queries,
                     const double* packed, const double* row_mean,
                     size_t blocks, size_t dim, double* out) {
  const size_t stride = blocks * kKnnLanes;
  for (size_t q = 0; q < num_queries; ++q) {
    const double* query = queries + q * dim;
    for (size_t b = 0; b < blocks; ++b) {
      const double* block = packed + b * dim * kKnnLanes;
      for (size_t l = 0; l < kKnnLanes; ++l) {
        double s = 0.0;
        for (size_t j = 0; j < dim; ++j) {
          const double r = block[j * kKnnLanes + l];
          if constexpr (Op == KnnScanOp::kSquaredDiff) {
            const double diff = query[j] - r;
            s += diff * diff;
          } else if constexpr (Op == KnnScanOp::kAbsDiff) {
            s += std::fabs(query[j] - r);
          } else if constexpr (Op == KnnScanOp::kDot) {
            s += query[j] * r;
          } else {
            s += query[j] * (r - row_mean[b * kKnnLanes + l]);
          }
        }
        out[q * stride + b * kKnnLanes + l] = s;
      }
    }
  }
}

void KnnScanScalar(KnnScanOp op, const double* queries, size_t num_queries,
                   const double* packed, const double* row_mean, size_t blocks,
                   size_t dim, double* out) {
  detail::WithKnnScanOp(op, [&](auto scan_op) {
    KnnScanOpScalar<scan_op.value>(queries, num_queries, packed, row_mean,
                                   blocks, dim, out);
  });
}

// --- f64 training kernels ---------------------------------------------------
// The reference loops of Matrix::Matmul / TransposeMatmul / MatmulTranspose,
// SparseMatrix::Multiply and the fused activation epilogue, over the row
// range their caller's chunk owns.

void MatmulF64Scalar(const double* a, const double* b, size_t k_dim, size_t n,
                     size_t lo, size_t hi, double* out) {
  for (size_t i = lo; i < hi; ++i) {
    double* out_row = out + i * n;
    const double* a_row = a + i * k_dim;
    for (size_t k = 0; k < k_dim; ++k) {
      double av = a_row[k];
      if (av == 0.0) continue;
      const double* b_row = b + k * n;
      for (size_t j = 0; j < n; ++j) out_row[j] += av * b_row[j];
    }
  }
}

void MatmulTnF64Scalar(const double* a, const double* b, size_t rows,
                       size_t cols, size_t n, size_t lo, size_t hi,
                       double* out) {
  for (size_t r = 0; r < rows; ++r) {
    const double* a_row = a + r * cols;
    const double* b_row = b + r * n;
    for (size_t i = lo; i < hi; ++i) {
      double av = a_row[i];
      if (av == 0.0) continue;
      double* out_row = out + i * n;
      for (size_t j = 0; j < n; ++j) out_row[j] += av * b_row[j];
    }
  }
}

void MatmulNtF64Scalar(const double* a, const double* b, size_t k_dim,
                       size_t n, size_t lo, size_t hi, double* out) {
  for (size_t i = lo; i < hi; ++i) {
    const double* a_row = a + i * k_dim;
    double* out_row = out + i * n;
    for (size_t j = 0; j < n; ++j) {
      const double* b_row = b + j * k_dim;
      double acc = 0.0;
      for (size_t k = 0; k < k_dim; ++k) acc += a_row[k] * b_row[k];
      out_row[j] = acc;
    }
  }
}

void SpmmF64Scalar(const size_t* row_ptr, const size_t* col_idx,
                   const double* values, const double* x, size_t n, size_t lo,
                   size_t hi, double* out) {
  for (size_t r = lo; r < hi; ++r) {
    double* out_row = out + r * n;
    for (size_t k = row_ptr[r]; k < row_ptr[r + 1]; ++k) {
      const double v = values[k];
      const double* d_row = x + col_idx[k] * n;
      for (size_t j = 0; j < n; ++j) out_row[j] += v * d_row[j];
    }
  }
}

void BiasActF64Scalar(double* x, size_t cols, const double* bias, FAct act,
                      double alpha, size_t lo, size_t hi) {
  for (size_t i = lo; i < hi; ++i) {
    double* row = x + i * cols;
    if (bias != nullptr) {
      for (size_t c = 0; c < cols; ++c) row[c] += bias[c];
    }
    if (act == FAct::kNone) continue;
    for (size_t j = 0; j < cols; ++j)
      row[j] = detail::ActF64(row[j], act, alpha);
  }
}

void ActGradF64Scalar(const double* g, const double* out, double* dst,
                      size_t cols, FAct act, double alpha, size_t lo,
                      size_t hi) {
  for (size_t i = lo; i < hi; ++i) {
    const double* row = g + i * cols;
    const double* o = out + i * cols;
    double* d = dst + i * cols;
    for (size_t j = 0; j < cols; ++j)
      d[j] = detail::ActGradF64(row[j], o[j], act, alpha);
  }
}

const KernelTable kScalarTable = {
    SimdLevel::kScalar,
    MatmulScalar,
    MatmulNtScalar,
    SpmmScalar,
    BiasActScalar,
    ScaleAddScalar,
    SpmmBiasActScalar,
    KnnScanScalar,
    Mt19937_64::TwistAndTemper,
    {MatmulF64Scalar, MatmulTnF64Scalar, MatmulNtF64Scalar, SpmmF64Scalar,
     BiasActF64Scalar, ActGradF64Scalar},
};

SimdLevel ProbeSimdLevel() {
  const KernelTable* avx2 = detail::Avx2TableOrNull();
  bool cpu_ok = false;
#if defined(__x86_64__) || defined(__i386__)
  cpu_ok = __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#endif
  const bool avx2_available = avx2 != nullptr && cpu_ok;
  const char* env = std::getenv("GNN4TDL_SIMD");
  if (env != nullptr) {
    const std::string want(env);
    if (want == "scalar") return SimdLevel::kScalar;
    if (want == "avx2" && avx2_available) return SimdLevel::kAvx2;
    // Unknown or unavailable request: fall back to scalar, the tier that is
    // always correct, rather than guessing upward.
    return SimdLevel::kScalar;
  }
  return avx2_available ? SimdLevel::kAvx2 : SimdLevel::kScalar;
}

}  // namespace

const KernelTable* GetKernelTable(SimdLevel level) {
  switch (level) {
    case SimdLevel::kScalar:
      return &kScalarTable;
    case SimdLevel::kAvx2:
      return detail::Avx2TableOrNull();
  }
  return nullptr;
}

const KernelTable& Dispatch() {
  // Probed once; the env override is read at first use and sticky thereafter
  // (tests that need both tiers in one process use GetKernelTable directly).
  static const KernelTable* table = [] {
    const KernelTable* t = GetKernelTable(ProbeSimdLevel());
    return t != nullptr ? t : &kScalarTable;
  }();
  return *table;
}

// ---------------------------------------------------------------------------
// Public wrappers: shape checks + obs accounting + dispatch
// ---------------------------------------------------------------------------

void Matmul(const FMatrix& a, const FMatrix& b, FMatrix* out) {
  GNN4TDL_CHECK_EQ(a.cols(), b.rows());
  if (out->rows() != a.rows() || out->cols() != b.cols())
    *out = FMatrix(a.rows(), b.cols());
  const double m = static_cast<double>(a.rows());
  const double k = static_cast<double>(a.cols());
  const double n = static_cast<double>(b.cols());
  obs::KernelScope kernel("matmul_f32", 2.0 * m * k * n,
                          4.0 * (m * k + k * n + m * n));
  Dispatch().matmul(a, b, out);
}

void MatmulNt(const FMatrix& a, const FMatrix& b, FMatrix* out) {
  GNN4TDL_CHECK_EQ(a.cols(), b.cols());
  if (out->rows() != a.rows() || out->cols() != b.rows())
    *out = FMatrix(a.rows(), b.rows());
  const double m = static_cast<double>(a.rows());
  const double k = static_cast<double>(a.cols());
  const double n = static_cast<double>(b.rows());
  obs::KernelScope kernel("matmul_nt_f32", 2.0 * m * k * n,
                          4.0 * (m * k + n * k + m * n));
  Dispatch().matmul_nt(a, b, out);
}

void Spmm(const FCsr& s, const FMatrix& x, FMatrix* out) {
  GNN4TDL_CHECK_EQ(s.cols, x.rows());
  if (out->rows() != s.rows || out->cols() != x.cols())
    *out = FMatrix(s.rows, x.cols());
  const double nnz = static_cast<double>(s.nnz());
  const double n = static_cast<double>(x.cols());
  obs::KernelScope kernel(
      "spmm_f32", 2.0 * nnz * n,
      4.0 * (nnz * (n + 2) + static_cast<double>(s.rows) * n));
  Dispatch().spmm(s, x, out);
}

void WeightedSpmm(const std::vector<float>& weights,
                  const std::vector<size_t>& slot, FCsr* pattern,
                  const FMatrix& x, FMatrix* out) {
  GNN4TDL_CHECK_EQ(weights.size(), slot.size());
  GNN4TDL_CHECK_EQ(pattern->nnz(), weights.size());
  {
    obs::KernelScope scatter("weighted_spmm_f32", 0.0,
                             8.0 * static_cast<double>(weights.size()));
    for (size_t e = 0; e < weights.size(); ++e)
      pattern->values[slot[e]] = weights[e];
  }
  Spmm(*pattern, x, out);
}

void SegmentSoftmax(const std::vector<float>& logits,
                    const std::vector<size_t>& seg, size_t num_groups,
                    std::vector<float>* out) {
  GNN4TDL_CHECK_EQ(logits.size(), seg.size());
  const size_t e_count = logits.size();
  obs::KernelScope kernel(
      "segment_softmax_f32", 5.0 * static_cast<double>(e_count),
      4.0 * (3.0 * static_cast<double>(e_count) +
             2.0 * static_cast<double>(num_groups)));
  // Max-shifted, three passes, serial accumulation in edge order — identical
  // on every tier (SegmentSoftmax is E x 1; expf dominates, not bandwidth).
  std::vector<float> group_max(num_groups,
                               -std::numeric_limits<float>::infinity());
  for (size_t e = 0; e < e_count; ++e) {
    GNN4TDL_CHECK_LT(seg[e], num_groups);
    if (logits[e] > group_max[seg[e]]) group_max[seg[e]] = logits[e];
  }
  out->assign(e_count, 0.0f);
  std::vector<float> group_sum(num_groups, 0.0f);
  for (size_t e = 0; e < e_count; ++e) {
    const float v = std::exp(logits[e] - group_max[seg[e]]);
    (*out)[e] = v;
    group_sum[seg[e]] += v;
  }
  for (size_t e = 0; e < e_count; ++e) {
    const float denom = group_sum[seg[e]];
    if (denom > 0.0f) (*out)[e] /= denom;
  }
}

void BiasAct(FMatrix* x, const float* bias, FAct act, float alpha) {
  const double m = static_cast<double>(x->rows());
  const double n = static_cast<double>(x->cols());
  obs::KernelScope kernel("bias_act_f32", 2.0 * m * n,
                          4.0 * (2.0 * m * n + (bias != nullptr ? n : 0.0)));
  Dispatch().bias_act(x, bias, act, alpha);
}

void SpmmBiasAct(const FCsr& s, const FMatrix& x, const float* bias, FAct act,
                 FMatrix* out, float alpha) {
  GNN4TDL_CHECK_EQ(s.cols, x.rows());
  if (out->rows() != s.rows || out->cols() != x.cols())
    *out = FMatrix(s.rows, x.cols());
  const double nnz = static_cast<double>(s.nnz());
  const double m = static_cast<double>(s.rows);
  const double n = static_cast<double>(x.cols());
  // The fusion saves one full write+read of the (m x n) intermediate versus
  // Spmm + BiasAct — visible in the bytes accounting here vs the two-kernel
  // sum.
  obs::KernelScope kernel(
      "spmm_bias_act_f32", 2.0 * nnz * n + 2.0 * m * n,
      4.0 * (nnz * (n + 2) + m * n + (bias != nullptr ? n : 0.0)));
  Dispatch().spmm_bias_act(s, x, bias, act, alpha, out);
}

void ScaleAdd(const FMatrix& a, float sa, const FMatrix& b, float sb,
              FMatrix* out) {
  GNN4TDL_CHECK_EQ(a.rows(), b.rows());
  GNN4TDL_CHECK_EQ(a.cols(), b.cols());
  if (out->rows() != a.rows() || out->cols() != a.cols())
    *out = FMatrix(a.rows(), a.cols());
  const double mn = static_cast<double>(a.size());
  obs::KernelScope kernel("scale_add_f32", 3.0 * mn, 4.0 * 3.0 * mn);
  Dispatch().scale_add(a, sa, b, sb, out);
}

void KnnScan(KnnScanOp op, const double* queries, size_t num_queries,
             const double* packed, const double* row_mean, size_t blocks,
             size_t dim, double* out) {
  GNN4TDL_CHECK(op != KnnScanOp::kCenteredDot || row_mean != nullptr);
  const double m = static_cast<double>(num_queries);
  const double n = static_cast<double>(blocks * kKnnLanes);
  const double d = static_cast<double>(dim);
  // Per pair and dimension: subtract (or the centring subtract), multiply or
  // fabs, add; the dot product skips the subtract. Bytes: the queries, the
  // packed rows and the scores, each touched once.
  const double ops_per_step = op == KnnScanOp::kDot ? 2.0 : 3.0;
  obs::KernelScope kernel("knn_scan_f64", ops_per_step * m * n * d,
                          8.0 * (m * d + n * d + m * n));
  Dispatch().knn_scan(op, queries, num_queries, packed, row_mean, blocks, dim,
                      out);
}

}  // namespace gnn4tdl::kernels
