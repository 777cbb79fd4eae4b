// AVX2+FMA kernel tier. This translation unit is always part of the build;
// the intrinsics inside are gated on GNN4TDL_HAVE_AVX2_TU, which the build
// sets only on x86-64 (together with -mavx2 -mfma -ffp-contract=off). On
// other targets detail::Avx2TableOrNull() simply returns null and dispatch
// stays scalar.
//
// Bit-exactness contract with kernels.cc (verified by tests/kernels_test.cc
// and the check.sh `simd` stage): every f32 accumulation is a single-rounding
// fused multiply-add (_mm256_fmadd_ps here, std::fmaf there) applied in the
// identical summation order, and every f64 product and sum rounds on its own
// (mul_pd, add_pd) in the scalar loop's order. Vector lanes in the f32
// matmul/spmm and in every f64 kernel map to independent output columns, so
// wide execution does not reorder any sum; the f32 matmul_nt stripes dot
// products across the 8 lanes exactly like the scalar path's acc[k % 8] and
// reduces through the shared detail::Combine8 tree. -ffp-contract=off
// matters here too: without it GCC may contract a separate mul/add (the f32
// scale_add tail, every f64 kernel) into an fma the scalar tier did not
// perform.

#include "kernels/kernels.h"

#if defined(GNN4TDL_HAVE_AVX2_TU)
#include <immintrin.h>

#include <algorithm>
#include <cmath>
#include <type_traits>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"

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

// --- f64 training kernels ---------------------------------------------------
// One lane is one output column. Every output element runs the scalar tier's
// sequence: the same starting value (what out holds, 0.0 for a fresh
// Matrix; 0.0 for matmul_nt), the same order over the reduction, each
// product rounded by mul_pd and then added by add_pd, no FMA (-ffp-contract
// =off keeps GCC from fusing the pairs). Up to kF64TileVecs accumulators
// hold a tile of output columns in registers across the whole reduction;
// column tails (n % 4) run the scalar loop. The matmul zero skip tests one
// broadcast scalar, so it stays a branch and skips exactly the terms the
// scalar tier skips (0 * Inf would otherwise add a NaN).

constexpr size_t kF64Lanes = 4;
constexpr size_t kF64TileVecs = 8;  // 32 columns

template <size_t NV>
using VecCount = std::integral_constant<size_t, NV>;

// Calls fn(VecCount<NV>{}, j0) over the full vectors of the first n4
// columns: tiles of 8 vectors, then one each of 4, 2 and 1 as needed.
template <typename Fn>
inline void ForEachColumnTile(size_t n4, Fn&& fn) {
  const size_t nv = n4 / kF64Lanes;
  size_t v = 0;
  for (; v + kF64TileVecs <= nv; v += kF64TileVecs)
    fn(VecCount<kF64TileVecs>{}, v * kF64Lanes);
  if (nv - v >= 4) {
    fn(VecCount<4>{}, v * kF64Lanes);
    v += 4;
  }
  if (nv - v >= 2) {
    fn(VecCount<2>{}, v * kF64Lanes);
    v += 2;
  }
  if (nv - v >= 1) fn(VecCount<1>{}, v * kF64Lanes);
}

template <size_t NV>
inline void LoadTile(const double* p, __m256d* acc) {
#pragma GCC unroll 8
  for (size_t v = 0; v < NV; ++v) acc[v] = _mm256_loadu_pd(p + v * kF64Lanes);
}

template <size_t NV>
inline void StoreTile(const __m256d* acc, double* p) {
#pragma GCC unroll 8
  for (size_t v = 0; v < NV; ++v) _mm256_storeu_pd(p + v * kF64Lanes, acc[v]);
}

// acc[v] += s * row[v], each lane rounded as the scalar `out += s * row`.
template <size_t NV>
inline void AxpyTile(__m256d s, const double* row, __m256d* acc) {
#pragma GCC unroll 8
  for (size_t v = 0; v < NV; ++v) {
    acc[v] = _mm256_add_pd(
        acc[v], _mm256_mul_pd(s, _mm256_loadu_pd(row + v * kF64Lanes)));
  }
}

// The zero-skip tile of matmul and matmul_tn: acc += a(k) * b(k, :) over k
// in [k0, k1), with a(k) read at a[k * a_stride]. b and out_row are offset
// to the tile's first column.
template <size_t NV>
inline void ZeroSkipTileF64(const double* a, size_t a_stride, const double* b,
                            size_t n, size_t k0, size_t k1, double* out_row) {
  __m256d acc[NV];
  LoadTile<NV>(out_row, acc);
  for (size_t k = k0; k < k1; ++k) {
    const double av = a[k * a_stride];
    if (av == 0.0) continue;
    AxpyTile<NV>(_mm256_set1_pd(av), b + k * n, acc);
  }
  StoreTile<NV>(acc, out_row);
}

// One output row of matmul (a_stride 1) or of matmul_tn (a is a column read
// with the row stride, over one block of r): register tiles, then the scalar
// loop over the column tail.
void ZeroSkipRowF64(const double* a, size_t a_stride, const double* b,
                    size_t n, size_t k0, size_t k1, double* out_row) {
  const size_t n4 = n - n % kF64Lanes;
  ForEachColumnTile(n4, [&](auto nv, size_t j0) {
    ZeroSkipTileF64<nv.value>(a, a_stride, b + j0, n, k0, k1, out_row + j0);
  });
  if (n4 == n) return;
  for (size_t k = k0; k < k1; ++k) {
    double av = a[k * a_stride];
    if (av == 0.0) continue;
    const double* b_row = b + k * n;
    for (size_t j = n4; j < n; ++j) out_row[j] += av * b_row[j];
  }
}

void MatmulF64Avx2(const double* a, const double* b, size_t k_dim, size_t n,
                   size_t lo, size_t hi, double* out) {
  for (size_t i = lo; i < hi; ++i)
    ZeroSkipRowF64(a + i * k_dim, 1, b, n, 0, k_dim, out + i * n);
}

// Rows of b per matmul_tn pass: a block of about 128 KiB stays in L2 while
// every output row of the range accumulates over it.
constexpr size_t kTnBlockDoubles = 16384;

void MatmulTnF64Avx2(const double* a, const double* b, size_t rows,
                     size_t cols, size_t n, size_t lo, size_t hi,
                     double* out) {
  const size_t block =
      std::max<size_t>(16, kTnBlockDoubles / std::max<size_t>(n, 1));
  // Blocks run in ascending r and each output row carries its partial sums
  // from one block to the next through out, so every element still sums
  // over r in ascending order.
  for (size_t r0 = 0; r0 < rows; r0 += block) {
    const size_t r1 = std::min(rows, r0 + block);
    for (size_t i = lo; i < hi; ++i)
      ZeroSkipRowF64(a + i, cols, b, n, r0, r1, out + i * n);
  }
}

// bt is b^T packed (k x n4, row stride n4), offset to the tile.
template <size_t NV>
inline void MatmulNtTileF64(const double* a_row, const double* bt,
                            size_t k_dim, size_t n4, double* out_row) {
  __m256d acc[NV];
#pragma GCC unroll 8
  for (size_t v = 0; v < NV; ++v) acc[v] = _mm256_setzero_pd();
  for (size_t k = 0; k < k_dim; ++k)
    AxpyTile<NV>(_mm256_set1_pd(a_row[k]), bt + k * n4, acc);
  StoreTile<NV>(acc, out_row);
}

void MatmulNtF64Avx2(const double* a, const double* b, size_t k_dim, size_t n,
                     size_t lo, size_t hi, double* out) {
  const size_t n4 = n - n % kF64Lanes;
  // Pack b^T once per call so that lanes are output columns, as in matmul:
  // each lane then runs its dot product's own k-ordered sequence. The pack
  // buffer is per thread and only grows, so pool threads do not allocate
  // on every call.
  thread_local std::vector<double> bt;
  if (bt.size() < k_dim * n4) bt.resize(k_dim * n4);
  for (size_t j = 0; j < n4; ++j) {
    const double* b_row = b + j * k_dim;
    for (size_t k = 0; k < k_dim; ++k) bt[k * n4 + j] = b_row[k];
  }
  for (size_t i = lo; i < hi; ++i) {
    const double* a_row = a + i * k_dim;
    double* out_row = out + i * n;
    ForEachColumnTile(n4, [&](auto nv, size_t j0) {
      MatmulNtTileF64<nv.value>(a_row, bt.data() + j0, k_dim, n4,
                                out_row + j0);
    });
    for (size_t j = n4; j < n; ++j) {
      const double* b_row = b + j * k_dim;
      double acc = 0.0;
      for (size_t k = 0; k < k_dim; ++k) acc += a_row[k] * b_row[k];
      out_row[j] = acc;
    }
  }
}

// x and out_row are offset to the tile.
template <size_t NV>
inline void SpmmRowTileF64(const size_t* col_idx, const double* values,
                           size_t k0, size_t k1, const double* x, size_t n,
                           double* out_row) {
  __m256d acc[NV];
  LoadTile<NV>(out_row, acc);
  for (size_t k = k0; k < k1; ++k)
    AxpyTile<NV>(_mm256_set1_pd(values[k]), x + col_idx[k] * n, acc);
  StoreTile<NV>(acc, out_row);
}

void SpmmF64Avx2(const size_t* row_ptr, const size_t* col_idx,
                 const double* values, const double* x, size_t n, size_t lo,
                 size_t hi, double* out) {
  const size_t n4 = n - n % kF64Lanes;
  for (size_t r = lo; r < hi; ++r) {
    double* out_row = out + r * n;
    ForEachColumnTile(n4, [&](auto nv, size_t j0) {
      SpmmRowTileF64<nv.value>(col_idx, values, row_ptr[r], row_ptr[r + 1],
                               x + j0, n, out_row + j0);
    });
    if (n4 == n) continue;
    for (size_t k = row_ptr[r]; k < row_ptr[r + 1]; ++k) {
      const double v = values[k];
      const double* d_row = x + col_idx[k] * n;
      for (size_t j = n4; j < n; ++j) out_row[j] += v * d_row[j];
    }
  }
}

// Calls fn(std::integral_constant<FAct, act>{}): the epilogue's
// runtime-to-compile-time activation switch.
template <typename Fn>
void WithAct(FAct act, Fn&& fn) {
  switch (act) {
    case FAct::kNone:
      return fn(std::integral_constant<FAct, FAct::kNone>{});
    case FAct::kRelu:
      return fn(std::integral_constant<FAct, FAct::kRelu>{});
    case FAct::kLeakyRelu:
      return fn(std::integral_constant<FAct, FAct::kLeakyRelu>{});
    case FAct::kSigmoid:
      return fn(std::integral_constant<FAct, FAct::kSigmoid>{});
    case FAct::kTanh:
      return fn(std::integral_constant<FAct, FAct::kTanh>{});
  }
}

// ReLU is max(v, 0): maxpd returns its second operand unless the first is
// greater, so NaN and -0.0 give +0.0 like `v > 0 ? v : 0.0`. LeakyRelu
// blends alpha * v in wherever the ordered v > 0 is false, NaN included.
// Sigmoid and tanh have no vector part: every column takes the scalar libm
// path, as in the scalar tier.
template <FAct A>
void BiasActRowsF64Avx2(double* x, size_t cols, const double* bias,
                        double alpha, size_t lo, size_t hi) {
  constexpr bool kVector =
      A == FAct::kNone || A == FAct::kRelu || A == FAct::kLeakyRelu;
  const size_t c4 = kVector ? cols - cols % kF64Lanes : 0;
  const __m256d zero = _mm256_setzero_pd();
  const __m256d valpha = _mm256_set1_pd(alpha);
  for (size_t i = lo; i < hi; ++i) {
    double* row = x + i * cols;
    size_t j = 0;
    for (; j < c4; j += kF64Lanes) {
      __m256d v = _mm256_loadu_pd(row + j);
      if (bias != nullptr) v = _mm256_add_pd(v, _mm256_loadu_pd(bias + j));
      if constexpr (A == FAct::kRelu) {
        v = _mm256_max_pd(v, zero);
      } else if constexpr (A == FAct::kLeakyRelu) {
        v = _mm256_blendv_pd(_mm256_mul_pd(valpha, v), v,
                             _mm256_cmp_pd(v, zero, _CMP_GT_OQ));
      }
      _mm256_storeu_pd(row + j, v);
    }
    for (; j < cols; ++j) {
      double v = row[j];
      if (bias != nullptr) v += bias[j];
      row[j] = detail::ActF64(v, A, alpha);
    }
  }
}

void BiasActF64Avx2(double* x, size_t cols, const double* bias, FAct act,
                    double alpha, size_t lo, size_t hi) {
  WithAct(act, [&](auto a) {
    BiasActRowsF64Avx2<a.value>(x, cols, bias, alpha, lo, hi);
  });
}

// Relu and LeakyRelu select by the ordered compare out <= 0 (false for NaN,
// as in the scalar branch); the sigmoid and tanh derivatives are plain
// arithmetic in the scalar expression's order; kNone copies g.
template <FAct A>
void ActGradRowsF64Avx2(const double* g, const double* out, double* dst,
                        size_t cols, double alpha, size_t lo, size_t hi) {
  const size_t c4 = cols - cols % kF64Lanes;
  const __m256d zero = _mm256_setzero_pd();
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d valpha = _mm256_set1_pd(alpha);
  for (size_t i = lo; i < hi; ++i) {
    const double* row = g + i * cols;
    const double* o_row = out + i * cols;
    double* d_row = dst + i * cols;
    size_t j = 0;
    for (; j < c4; j += kF64Lanes) {
      const __m256d gv = _mm256_loadu_pd(row + j);
      const __m256d o = _mm256_loadu_pd(o_row + j);
      __m256d r = gv;
      if constexpr (A == FAct::kRelu) {
        r = _mm256_blendv_pd(gv, zero, _mm256_cmp_pd(o, zero, _CMP_LE_OQ));
      } else if constexpr (A == FAct::kLeakyRelu) {
        r = _mm256_blendv_pd(gv, _mm256_mul_pd(gv, valpha),
                             _mm256_cmp_pd(o, zero, _CMP_LE_OQ));
      } else if constexpr (A == FAct::kSigmoid) {
        r = _mm256_mul_pd(gv, _mm256_mul_pd(o, _mm256_sub_pd(one, o)));
      } else if constexpr (A == FAct::kTanh) {
        r = _mm256_mul_pd(gv, _mm256_sub_pd(one, _mm256_mul_pd(o, o)));
      }
      _mm256_storeu_pd(d_row + j, r);
    }
    for (; j < cols; ++j)
      d_row[j] = detail::ActGradF64(row[j], o_row[j], A, alpha);
  }
}

void ActGradF64Avx2(const double* g, const double* out, double* dst,
                    size_t cols, FAct act, double alpha, size_t lo,
                    size_t hi) {
  WithAct(act, [&](auto a) {
    ActGradRowsF64Avx2<a.value>(g, out, dst, cols, alpha, lo, hi);
  });
}

// --- MT19937-64 block --------------------------------------------------------
// Mt19937_64::TwistAndTemper four words at a time. Word k of the twist reads
// x[k], x[k + 1] and x[k + 156] (k < 156) or the already twisted x[k - 156]
// (k >= 156), so four consecutive words only read words outside their own
// group that the scalar order has (or has not yet) overwritten in the same
// way: lanes k..k+3 for k + 4 <= 311, i.e. words 0..307. Words 308..310 and
// the wrap (311 reads x[0]) stay scalar. Tempering is per word. Integer
// only, so the words equal the scalar block's.

constexpr size_t kMtWords = Mt19937_64::kStateWords;
constexpr size_t kMtShift = Mt19937_64::kShift;

inline __m256i Splat64(uint64_t v) {
  return _mm256_set1_epi64x(static_cast<int64_t>(v));
}

void Mt64BlockAvx2(uint64_t* x, uint64_t* out) {
  const __m256i upper = Splat64(Mt19937_64::kUpperMask);
  const __m256i matrix_a = Splat64(Mt19937_64::kMatrixA);
  const __m256i one = _mm256_set1_epi64x(1);
  const auto load = [](const uint64_t* p) {
    return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
  };
  constexpr size_t kVectorWords = kMtWords - 4;  // 308
  for (size_t k = 0; k < kVectorWords; k += 4) {
    const __m256i y =
        _mm256_or_si256(_mm256_and_si256(load(x + k), upper),
                        _mm256_andnot_si256(upper, load(x + k + 1)));
    // (y & 1) ? a : 0 as a lane mask: 0 - (y & 1) is all ones or zero.
    const __m256i mag = _mm256_and_si256(
        _mm256_sub_epi64(_mm256_setzero_si256(), _mm256_and_si256(y, one)),
        matrix_a);
    const uint64_t* far = k < kMtShift ? x + k + kMtShift : x + k - kMtShift;
    const __m256i v = _mm256_xor_si256(
        load(far), _mm256_xor_si256(_mm256_srli_epi64(y, 1), mag));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(x + k), v);
  }
  for (size_t k = kVectorWords; k + 1 < kMtWords; ++k)
    x[k] = Mt19937_64::TwistWord(x[k - kMtShift], x[k], x[k + 1]);
  x[kMtWords - 1] =
      Mt19937_64::TwistWord(x[kMtShift - 1], x[kMtWords - 1], x[0]);

  const __m256i d = Splat64(0x5555555555555555ULL);
  const __m256i b = Splat64(0x71D67FFFEDA60000ULL);
  const __m256i c = Splat64(0xFFF7EEE000000000ULL);
  for (size_t k = 0; k < kMtWords; k += 4) {
    __m256i z = load(x + k);
    z = _mm256_xor_si256(z, _mm256_and_si256(_mm256_srli_epi64(z, 29), d));
    z = _mm256_xor_si256(z, _mm256_and_si256(_mm256_slli_epi64(z, 17), b));
    z = _mm256_xor_si256(z, _mm256_and_si256(_mm256_slli_epi64(z, 37), c));
    z = _mm256_xor_si256(z, _mm256_srli_epi64(z, 43));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + k), z);
  }
}

const KernelTable kAvx2Table = {
    SimdLevel::kAvx2,
    MatmulAvx2,
    MatmulNtAvx2,
    SpmmAvx2,
    BiasActAvx2,
    ScaleAddAvx2,
    SpmmBiasActAvx2,
    KnnScanAvx2,
    Mt64BlockAvx2,
    {MatmulF64Avx2, MatmulTnF64Avx2, MatmulNtF64Avx2, SpmmF64Avx2,
     BiasActF64Avx2, ActGradF64Avx2},
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
