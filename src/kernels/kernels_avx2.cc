// AVX2+FMA f32 kernel tier. This translation unit is always part of the
// build; the intrinsics inside are gated on GNN4TDL_HAVE_AVX2_TU, which the
// build sets only on x86-64 (together with -mavx2 -mfma -ffp-contract=off).
// On other targets detail::Avx2TableOrNull() simply returns null and dispatch
// stays scalar.
//
// Bit-exactness contract with kernels.cc (verified by tests/kernels_test.cc
// and the check.sh `simd` stage): every accumulation is a single-rounding
// fused multiply-add (_mm256_fmadd_ps here, std::fmaf there) applied in the
// identical summation order. Vector lanes in matmul/spmm map to independent
// output columns, so 8-wide execution does not reorder any sum; matmul_nt
// stripes dot products across the 8 lanes exactly like the scalar path's
// acc[k % 8] and reduces through the shared detail::Combine8 tree.
// -ffp-contract=off matters here too: without it GCC may contract the
// separate mul/add in the scale_add tail into an fma the scalar tier did not
// perform.

#include "kernels/kernels.h"

#if defined(GNN4TDL_HAVE_AVX2_TU)
#include <immintrin.h>

#include <cmath>

#include "common/parallel.h"

namespace gnn4tdl::kernels {
namespace {

constexpr size_t kGrainFlops = 1 << 14;

size_t RowGrain(size_t flops_per_row) {
  return std::max<size_t>(1, kGrainFlops / std::max<size_t>(1, flops_per_row));
}

void MatmulAvx2(const FMatrix& a, const FMatrix& b, FMatrix* out) {
  const size_t m = a.rows(), kd = a.cols(), n = b.cols();
  const size_t n8 = n - n % 8;
  ParallelFor(0, m, RowGrain(2 * kd * n), [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) {
      float* out_row = out->row_data(i);
      for (size_t j = 0; j < n; ++j) out_row[j] = 0.0f;
      const float* a_row = a.row_data(i);
      for (size_t k = 0; k < kd; ++k) {
        const float av = a_row[k];
        const float* b_row = b.row_data(k);
        const __m256 vav = _mm256_set1_ps(av);
        size_t j = 0;
        for (; j < n8; j += 8) {
          const __m256 acc = _mm256_loadu_ps(out_row + j);
          _mm256_storeu_ps(out_row + j,
                           _mm256_fmadd_ps(vav, _mm256_loadu_ps(b_row + j),
                                           acc));
        }
        for (; j < n; ++j) out_row[j] = std::fmaf(av, b_row[j], out_row[j]);
      }
    }
  });
}

void MatmulNtAvx2(const FMatrix& a, const FMatrix& b, FMatrix* out) {
  const size_t m = a.rows(), kd = a.cols(), n = b.rows();
  const size_t k8 = kd - kd % 8;
  ParallelFor(0, m, RowGrain(2 * kd * n), [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) {
      const float* a_row = a.row_data(i);
      float* out_row = out->row_data(i);
      for (size_t j = 0; j < n; ++j) {
        const float* b_row = b.row_data(j);
        __m256 vacc = _mm256_setzero_ps();
        size_t k = 0;
        for (; k < k8; k += 8) {
          vacc = _mm256_fmadd_ps(_mm256_loadu_ps(a_row + k),
                                 _mm256_loadu_ps(b_row + k), vacc);
        }
        // Lane l of vacc is exactly the scalar path's acc[l]; fold the k-tail
        // into lanes 0..tail-1 the same way, then reduce via the shared tree.
        alignas(32) float acc[8];
        _mm256_store_ps(acc, vacc);
        for (size_t l = 0; k < kd; ++k, ++l)
          acc[l] = std::fmaf(a_row[k], b_row[k], acc[l]);
        out_row[j] = detail::Combine8(acc);
      }
    }
  });
}

void SpmmAvx2(const FCsr& s, const FMatrix& x, FMatrix* out) {
  const size_t n = x.cols();
  const size_t n8 = n - n % 8;
  const size_t flops_per_row =
      s.rows > 0 ? 2 * n * std::max<size_t>(1, s.nnz() / s.rows) : 1;
  ParallelFor(0, s.rows, RowGrain(flops_per_row), [&](size_t lo, size_t hi) {
    for (size_t r = lo; r < hi; ++r) {
      float* out_row = out->row_data(r);
      for (size_t j = 0; j < n; ++j) out_row[j] = 0.0f;
      for (uint32_t k = s.row_ptr[r]; k < s.row_ptr[r + 1]; ++k) {
        const float v = s.values[k];
        const float* x_row = x.row_data(s.col_idx[k]);
        const __m256 vv = _mm256_set1_ps(v);
        size_t j = 0;
        for (; j < n8; j += 8) {
          const __m256 acc = _mm256_loadu_ps(out_row + j);
          _mm256_storeu_ps(out_row + j,
                           _mm256_fmadd_ps(vv, _mm256_loadu_ps(x_row + j),
                                           acc));
        }
        for (; j < n; ++j) out_row[j] = std::fmaf(v, x_row[j], out_row[j]);
      }
    }
  });
}

// Bias+activation over one completed row. The piecewise-linear activations
// vectorize with add/max/blend (exact — no rounding differences vs the scalar
// helper); sigmoid/tanh call libm through detail::ApplyBiasAct so the
// transcendental bits match the scalar tier exactly.
void ApplyBiasActRowAvx2(float* row, size_t cols, const float* bias, FAct act,
                         float alpha) {
  if (act == FAct::kSigmoid || act == FAct::kTanh) {
    for (size_t j = 0; j < cols; ++j) {
      row[j] = detail::ApplyBiasAct(row[j], bias != nullptr ? bias[j] : 0.0f,
                                    act, alpha);
    }
    return;
  }
  const size_t c8 = cols - cols % 8;
  const __m256 vzero = _mm256_setzero_ps();
  const __m256 valpha = _mm256_set1_ps(alpha);
  size_t j = 0;
  for (; j < c8; j += 8) {
    __m256 v = _mm256_loadu_ps(row + j);
    if (bias != nullptr) v = _mm256_add_ps(v, _mm256_loadu_ps(bias + j));
    switch (act) {
      case FAct::kNone:
        break;
      case FAct::kRelu:
        v = _mm256_max_ps(v, vzero);
        break;
      case FAct::kLeakyRelu: {
        const __m256 neg = _mm256_mul_ps(v, valpha);
        const __m256 pos_mask = _mm256_cmp_ps(v, vzero, _CMP_GT_OQ);
        v = _mm256_blendv_ps(neg, v, pos_mask);
        break;
      }
      default:
        break;
    }
    _mm256_storeu_ps(row + j, v);
  }
  for (; j < cols; ++j) {
    row[j] = detail::ApplyBiasAct(row[j], bias != nullptr ? bias[j] : 0.0f,
                                  act, alpha);
  }
}

void SpmmBiasActAvx2(const FCsr& s, const FMatrix& x, const float* bias,
                     FAct act, float alpha, FMatrix* out) {
  const size_t n = x.cols();
  const size_t n8 = n - n % 8;
  const size_t flops_per_row =
      s.rows > 0 ? 2 * n * std::max<size_t>(1, s.nnz() / s.rows) : 1;
  ParallelFor(0, s.rows, RowGrain(flops_per_row), [&](size_t lo, size_t hi) {
    for (size_t r = lo; r < hi; ++r) {
      float* out_row = out->row_data(r);
      for (size_t j = 0; j < n; ++j) out_row[j] = 0.0f;
      for (uint32_t k = s.row_ptr[r]; k < s.row_ptr[r + 1]; ++k) {
        const float v = s.values[k];
        const float* x_row = x.row_data(s.col_idx[k]);
        const __m256 vv = _mm256_set1_ps(v);
        size_t j = 0;
        for (; j < n8; j += 8) {
          const __m256 acc = _mm256_loadu_ps(out_row + j);
          _mm256_storeu_ps(out_row + j,
                           _mm256_fmadd_ps(vv, _mm256_loadu_ps(x_row + j),
                                           acc));
        }
        for (; j < n; ++j) out_row[j] = std::fmaf(v, x_row[j], out_row[j]);
      }
      ApplyBiasActRowAvx2(out_row, n, bias, act, alpha);
    }
  });
}

void BiasActAvx2(FMatrix* x, const float* bias, FAct act, float alpha) {
  // Sigmoid/tanh call libm, which the scalar tier must match exactly — route
  // those through the shared scalar helper. The piecewise-linear activations
  // vectorize with max/blend, which are exact (no rounding differences).
  if (act == FAct::kSigmoid || act == FAct::kTanh) {
    const size_t cols = x->cols();
    for (size_t r = 0; r < x->rows(); ++r) {
      float* row = x->row_data(r);
      for (size_t j = 0; j < cols; ++j) {
        row[j] = detail::ApplyBiasAct(row[j], bias != nullptr ? bias[j] : 0.0f,
                                      act, alpha);
      }
    }
    return;
  }
  const size_t cols = x->cols();
  const size_t c8 = cols - cols % 8;
  const __m256 vzero = _mm256_setzero_ps();
  const __m256 valpha = _mm256_set1_ps(alpha);
  for (size_t r = 0; r < x->rows(); ++r) {
    float* row = x->row_data(r);
    size_t j = 0;
    for (; j < c8; j += 8) {
      __m256 v = _mm256_loadu_ps(row + j);
      if (bias != nullptr) v = _mm256_add_ps(v, _mm256_loadu_ps(bias + j));
      switch (act) {
        case FAct::kNone:
          break;
        case FAct::kRelu:
          v = _mm256_max_ps(v, vzero);
          break;
        case FAct::kLeakyRelu: {
          const __m256 neg = _mm256_mul_ps(v, valpha);
          const __m256 pos_mask = _mm256_cmp_ps(v, vzero, _CMP_GT_OQ);
          v = _mm256_blendv_ps(neg, v, pos_mask);
          break;
        }
        default:
          break;
      }
      _mm256_storeu_ps(row + j, v);
    }
    for (; j < cols; ++j) {
      row[j] = detail::ApplyBiasAct(row[j], bias != nullptr ? bias[j] : 0.0f,
                                    act, alpha);
    }
  }
}

void ScaleAddAvx2(const FMatrix& a, float sa, const FMatrix& b, float sb,
                  FMatrix* out) {
  const float* pa = a.data();
  const float* pb = b.data();
  float* po = out->data();
  const size_t total = a.size();
  const size_t t8 = total - total % 8;
  const __m256 vsa = _mm256_set1_ps(sa);
  const __m256 vsb = _mm256_set1_ps(sb);
  size_t i = 0;
  for (; i < t8; i += 8) {
    // Same rounding as the scalar spec: sb*b rounded once (mul), then one
    // fused multiply-add of sa*a into it.
    const __m256 sbb = _mm256_mul_ps(vsb, _mm256_loadu_ps(pb + i));
    _mm256_storeu_ps(po + i,
                     _mm256_fmadd_ps(vsa, _mm256_loadu_ps(pa + i), sbb));
  }
  for (; i < total; ++i) po[i] = std::fmaf(sa, pa[i], sb * pb[i]);
}

// --- f64 kNN scan ------------------------------------------------------------
// Lane l of every vector is reference row b * kKnnLanes + l, so each vector op
// below is four independent copies of the scalar tier's per-pair step, with
// the query as the first operand. Vector sub/mul/add round exactly like their
// scalar forms, andnot of the sign bit is std::fabs, and -ffp-contract=off
// keeps GCC from fusing the mul/add pairs into the FMAs this TU may emit.

template <KnnScanOp Op>
inline __m256d KnnStep(__m256d s, __m256d q, __m256d r) {
  if constexpr (Op == KnnScanOp::kSquaredDiff) {
    const __m256d diff = _mm256_sub_pd(q, r);
    return _mm256_add_pd(s, _mm256_mul_pd(diff, diff));
  } else if constexpr (Op == KnnScanOp::kAbsDiff) {
    return _mm256_add_pd(
        s, _mm256_andnot_pd(_mm256_set1_pd(-0.0), _mm256_sub_pd(q, r)));
  } else {  // kDot; kCenteredDot gets r already centred
    return _mm256_add_pd(s, _mm256_mul_pd(q, r));
  }
}

// NQ queries x NB blocks held in NQ * NB accumulators: every packed load is
// reused by NQ queries and every broadcast by NB blocks, and the independent
// add chains hide the add latency even for a single query.
template <KnnScanOp Op, size_t NQ, size_t NB>
void KnnTileAvx2(const double* queries, size_t dim, const double* packed,
                 const double* row_mean, size_t b0, size_t stride,
                 double* out) {
  __m256d acc[NQ][NB];
  __m256d mean[NB];
  for (size_t nb = 0; nb < NB; ++nb) {
    mean[nb] = Op == KnnScanOp::kCenteredDot
                   ? _mm256_loadu_pd(row_mean + (b0 + nb) * kKnnLanes)
                   : _mm256_setzero_pd();
    for (size_t nq = 0; nq < NQ; ++nq) acc[nq][nb] = _mm256_setzero_pd();
  }
  // The NQ and NB loops unroll, so the accumulators stay in registers.
  for (size_t j = 0; j < dim; ++j) {
    __m256d r[NB];
#pragma GCC unroll 4
    for (size_t nb = 0; nb < NB; ++nb) {
      r[nb] = _mm256_loadu_pd(packed + ((b0 + nb) * dim + j) * kKnnLanes);
      if constexpr (Op == KnnScanOp::kCenteredDot)
        r[nb] = _mm256_sub_pd(r[nb], mean[nb]);
    }
#pragma GCC unroll 4
    for (size_t nq = 0; nq < NQ; ++nq) {
      const __m256d q = _mm256_broadcast_sd(queries + nq * dim + j);
#pragma GCC unroll 4
      for (size_t nb = 0; nb < NB; ++nb)
        acc[nq][nb] = KnnStep<Op>(acc[nq][nb], q, r[nb]);
    }
  }
  for (size_t nq = 0; nq < NQ; ++nq) {
    for (size_t nb = 0; nb < NB; ++nb)
      _mm256_storeu_pd(out + nq * stride + (b0 + nb) * kKnnLanes, acc[nq][nb]);
  }
}

// NQ queries against every block: NB-block tiles, then single blocks.
template <KnnScanOp Op, size_t NQ>
void KnnQueriesAvx2(const double* queries, const double* packed,
                    const double* row_mean, size_t blocks, size_t dim,
                    double* out) {
  constexpr size_t kBlocksPerTile = NQ == 1 ? 4 : 2;
  const size_t stride = blocks * kKnnLanes;
  size_t b = 0;
  for (; b + kBlocksPerTile <= blocks; b += kBlocksPerTile) {
    KnnTileAvx2<Op, NQ, kBlocksPerTile>(queries, dim, packed, row_mean, b,
                                        stride, out);
  }
  for (; b < blocks; ++b)
    KnnTileAvx2<Op, NQ, 1>(queries, dim, packed, row_mean, b, stride, out);
}

template <KnnScanOp Op>
void KnnScanOpAvx2(const double* queries, size_t num_queries,
                   const double* packed, const double* row_mean, size_t blocks,
                   size_t dim, double* out) {
  const size_t stride = blocks * kKnnLanes;
  size_t q = 0;
  for (; q + 4 <= num_queries; q += 4) {
    KnnQueriesAvx2<Op, 4>(queries + q * dim, packed, row_mean, blocks, dim,
                          out + q * stride);
  }
  const double* tail = queries + q * dim;
  double* tail_out = out + q * stride;
  switch (num_queries - q) {
    case 3:
      KnnQueriesAvx2<Op, 3>(tail, packed, row_mean, blocks, dim, tail_out);
      break;
    case 2:
      KnnQueriesAvx2<Op, 2>(tail, packed, row_mean, blocks, dim, tail_out);
      break;
    case 1:
      KnnQueriesAvx2<Op, 1>(tail, packed, row_mean, blocks, dim, tail_out);
      break;
    default:
      break;
  }
}

void KnnScanAvx2(KnnScanOp op, const double* queries, size_t num_queries,
                 const double* packed, const double* row_mean, size_t blocks,
                 size_t dim, double* out) {
  detail::WithKnnScanOp(op, [&](auto scan_op) {
    KnnScanOpAvx2<scan_op.value>(queries, num_queries, packed, row_mean,
                                 blocks, dim, out);
  });
}

const KernelTable kAvx2Table = {
    SimdLevel::kAvx2, MatmulAvx2,   MatmulNtAvx2,    SpmmAvx2,
    BiasActAvx2,      ScaleAddAvx2, SpmmBiasActAvx2, KnnScanAvx2,
};

}  // namespace

namespace detail {

const KernelTable* Avx2TableOrNull() { return &kAvx2Table; }

}  // namespace detail

}  // namespace gnn4tdl::kernels

#else  // !GNN4TDL_HAVE_AVX2_TU

namespace gnn4tdl::kernels::detail {

const KernelTable* Avx2TableOrNull() { return nullptr; }

}  // namespace gnn4tdl::kernels::detail

#endif  // GNN4TDL_HAVE_AVX2_TU
