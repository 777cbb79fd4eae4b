#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#include "common/status.h"
#include "kernels/fmatrix.h"

namespace gnn4tdl::kernels {

// ---------------------------------------------------------------------------
// Precision tiers
// ---------------------------------------------------------------------------

/// Numeric tier a frozen artifact is served with. Training is always kF64
/// (double, deterministic, autograd-taped); kF32 is the opt-in inference tier
/// implemented by this subsystem. See docs/KERNELS.md "f32 inference tier".
enum class Precision { kF64, kF32 };

const char* PrecisionName(Precision p);

/// Parses "f32" / "f64". Unknown names are InvalidArgument.
StatusOr<Precision> PrecisionFromName(const std::string& name);

// ---------------------------------------------------------------------------
// Activations (shared table with nn/module.h — see ToKernelActivation there)
// ---------------------------------------------------------------------------

/// Activation applied by the fused bias+activation kernel. Mirrors
/// nn::Activation one-to-one so the serving tier and the training modules
/// share a single activation vocabulary.
enum class FAct { kNone, kRelu, kLeakyRelu, kSigmoid, kTanh };

// ---------------------------------------------------------------------------
// f64 exact kNN scan layout
// ---------------------------------------------------------------------------

/// Reference rows per block of the kNN scan layout: one AVX2 lane (four
/// doubles) scores one reference row.
inline constexpr size_t kKnnLanes = 4;

/// Per-pair accumulation of the kNN scan. Each is one similarity metric's
/// loop body in construct/similarity, with the query as the first operand.
enum class KnnScanOp {
  kSquaredDiff,  // s += (q - r) * (q - r)       Euclidean, RBF
  kAbsDiff,      // s += |q - r|                 Manhattan
  kDot,          // s += q * r                   cosine, inner product
  kCenteredDot,  // s += q * (r - row_mean)      Pearson (q already centred)
};

// ---------------------------------------------------------------------------
// Runtime SIMD dispatch
// ---------------------------------------------------------------------------

/// Instruction-set tier of a kernel table. kScalar is always available and
/// is the bit-exact reference for every vectorized tier. Each entry keeps
/// its scalar rounding sequence per output element at every tier: the f32
/// kernels round every accumulation once with a fused multiply-add
/// (std::fmaf vs _mm256_fmadd_ps) in the identical order; the f64 kernels
/// (the kNN scan and the training kernels in F64Kernels) never use an FMA
/// and round each product and each sum on its own, as the scalar loops do.
/// Vector lanes are independent output elements, so for the same inputs both
/// tiers produce the same bits (NaN outputs stay NaN in the same positions;
/// only their payload or sign may differ). CI runs the parity suite under
/// both tiers and memcmp-compares them (tools/check.sh stage `simd`).
enum class SimdLevel { kScalar, kAvx2 };

const char* SimdLevelName(SimdLevel level);

/// The f64 training kernels of one SIMD tier (docs/KERNELS.md "f64 training
/// kernels"). Every entry is leaf-level: it takes raw row-major pointers,
/// sizes and a range of output rows, and never dispatches to the pool.
/// Partitioning and obs accounting stay with the callers in tensor/ and
/// nn/fused, so the tier never changes a chunk boundary. Per output element
/// each entry runs the scalar loop's sequence: the same order over its
/// reduction, each product rounded and then added, no FMA.
struct F64Kernels {
  /// out(i, :) += a(i, :) * b for i in [row_begin, row_end); a is (m x k),
  /// b is (k x n), out is (m x n). Terms with a(i, k) == 0.0 are skipped.
  void (*matmul)(const double* a, const double* b, size_t k, size_t n,
                 size_t row_begin, size_t row_end, double* out) = nullptr;

  /// out(i, :) += sum over r ascending of a(r, i) * b(r, :) for i in
  /// [row_begin, row_end): out = a^T * b with a (rows x cols), b (rows x n),
  /// out (cols x n). Terms with a(r, i) == 0.0 are skipped.
  void (*matmul_tn)(const double* a, const double* b, size_t rows,
                    size_t cols, size_t n, size_t row_begin, size_t row_end,
                    double* out) = nullptr;

  /// out(i, j) = a(i, :) . b(j, :), k ascending from 0.0, for i in
  /// [row_begin, row_end): out = a * b^T with a (m x k), b (n x k), out
  /// (m x n), overwritten.
  void (*matmul_nt)(const double* a, const double* b, size_t k, size_t n,
                    size_t row_begin, size_t row_end, double* out) = nullptr;

  /// out(r, :) += sum over the CSR row's nonzeros of value * x(col, :) for r
  /// in [row_begin, row_end); x and out have n columns.
  void (*spmm)(const size_t* row_ptr, const size_t* col_idx,
               const double* values, const double* x, size_t n,
               size_t row_begin, size_t row_end, double* out) = nullptr;

  /// In place x(r, j) = act(x(r, j) + bias[j]) for r in [row_begin,
  /// row_end); with bias null there is no add. `alpha` is the LeakyRelu
  /// slope; sigmoid is the overflow-free two-branch form.
  void (*bias_act)(double* x, size_t cols, const double* bias, FAct act,
                   double alpha, size_t row_begin,
                   size_t row_end) = nullptr;

  /// dst(r, j) = g(r, j) * act'(.) read from the activation output
  /// out(r, j), for r in [row_begin, row_end): relu zeroes and leaky relu
  /// scales g where out <= 0; sigmoid and tanh scale by s(1 - s) and
  /// 1 - t^2; kNone copies g. dst may be g (in place).
  void (*act_grad)(const double* g, const double* out, double* dst,
                   size_t cols, FAct act, double alpha, size_t row_begin,
                   size_t row_end) = nullptr;
};

/// The kernel function table one SIMD tier implements: the f32 inference
/// kernels, the f64 kNN scan, the MT19937-64 block and the f64 training
/// kernels. All kernels are thread-safe; the f32 ones run on the shared
/// ThreadPool where row counts justify it, the f64 ones are leaf-level and
/// their callers partition. Every entry gives the same bits at every thread
/// count.
struct KernelTable {
  SimdLevel level = SimdLevel::kScalar;

  /// out = a * b, a is (m x k), b is (k x n). out must be pre-shaped and is
  /// overwritten.
  void (*matmul)(const FMatrix& a, const FMatrix& b, FMatrix* out) = nullptr;

  /// out = a * b^T, a is (m x k), b is (n x k) -> out (m x n).
  void (*matmul_nt)(const FMatrix& a, const FMatrix& b, FMatrix* out) = nullptr;

  /// out = s * x, s is (r x c) CSR, x is (c x n) -> out (r x n).
  void (*spmm)(const FCsr& s, const FMatrix& x, FMatrix* out) = nullptr;

  /// In place x(r, j) = act(x(r, j) + bias[j]); bias may be null (activation
  /// only). `alpha` is the LeakyRelu negative slope.
  void (*bias_act)(FMatrix* x, const float* bias, FAct act,
                   float alpha) = nullptr;

  /// out = sa * a + sb * b elementwise (same shape); the fused axpby used for
  /// SAGE self+neighbor sums, GIN (1+eps) scaling, and APPNP teleport mixing.
  void (*scale_add)(const FMatrix& a, float sa, const FMatrix& b, float sb,
                    FMatrix* out) = nullptr;

  /// out = act(s * x + bias): the SpMM accumulation (identical k-order and
  /// rounding to `spmm`) followed per completed output row by the fused
  /// bias+activation while the row is still cache-hot. Bit-identical to
  /// calling `spmm` then `bias_act`; bias may be null. The single-pass GCN
  /// layer kernel of the fused execution tier (docs/MEMORY.md).
  void (*spmm_bias_act)(const FCsr& s, const FMatrix& x, const float* bias,
                        FAct act, float alpha, FMatrix* out) = nullptr;

  /// The f64 kNN scan (see KnnScan): leaf-level, no pool dispatch.
  void (*knn_scan)(KnnScanOp op, const double* queries, size_t num_queries,
                   const double* packed, const double* row_mean, size_t blocks,
                   size_t dim, double* out) = nullptr;

  /// One MT19937-64 block (Mt19937_64::BlockFn, common/rng.h): twists the
  /// 312-word state in place and writes its 312 tempered outputs to out.
  /// Integer arithmetic only, so every tier writes the same words as
  /// Mt19937_64::TwistAndTemper; Rng's bulk draws run through it.
  void (*mt64_block)(uint64_t* state, uint64_t* out) = nullptr;

  /// The f64 training kernels: Matrix/SparseMatrix products and the fused
  /// activation epilogue.
  F64Kernels f64;
};

/// The table for an explicit tier. kScalar always works; kAvx2 returns null
/// when the binary was built without the AVX2 translation unit or the CPU
/// lacks AVX2+FMA. Tests use this to compare tiers inside one process.
const KernelTable* GetKernelTable(SimdLevel level);

/// The active dispatch table: probed once (first call) from CPUID —
/// AVX2+FMA when available, scalar otherwise. The env var GNN4TDL_SIMD
/// ("scalar" | "avx2") overrides the probe; requesting an unavailable tier
/// falls back to scalar. The choice is process-wide and sticky.
const KernelTable& Dispatch();

// ---------------------------------------------------------------------------
// Public f32 kernels (dispatch + obs accounting)
// ---------------------------------------------------------------------------
// Each wrapper opens an obs::KernelScope with exact FLOP/byte counts
// (4-byte elements and indices — the traffic halving the tier exists for is
// visible in traces and bench kernel_counters) and calls through Dispatch().

/// out = a * b. Shapes checked; out is resized.
void Matmul(const FMatrix& a, const FMatrix& b, FMatrix* out);

/// out = a * b^T.
void MatmulNt(const FMatrix& a, const FMatrix& b, FMatrix* out);

/// out = s * x.
void Spmm(const FCsr& s, const FMatrix& x, FMatrix* out);

/// Edge-weighted aggregation out[d, :] = sum_{e : dst[e]==d} w[e] * x[src[e]]
/// routed through the SpMM kernel: `pattern` is the fixed CSR sparsity (row =
/// dst, col = src) whose value slots are overwritten with weights[e] at
/// pattern.values[slot[e]] — the f32 mirror of ops::WeightedSpMM (GAT
/// attention aggregation). `pattern` is caller-owned scratch.
void WeightedSpmm(const std::vector<float>& weights,
                  const std::vector<size_t>& slot, FCsr* pattern,
                  const FMatrix& x, FMatrix* out);

/// Max-shifted per-group softmax over edge logits: groups are seg values in
/// [0, num_groups). The f32 mirror of SegmentSoftmax (GAT attention
/// normalization). Scalar on every tier (expf dominates; E x 1 data is never
/// bandwidth-bound), so dispatch paths are trivially bit-identical.
void SegmentSoftmax(const std::vector<float>& logits,
                    const std::vector<size_t>& seg, size_t num_groups,
                    std::vector<float>* out);

/// In place fused bias + activation.
void BiasAct(FMatrix* x, const float* bias, FAct act, float alpha = 0.2f);

/// out = act(s * x + bias) in one pass (SpMM + bias + activation fused).
/// Bit-identical to Spmm followed by BiasAct at every SIMD tier and thread
/// count; bias may be null.
void SpmmBiasAct(const FCsr& s, const FMatrix& x, const float* bias, FAct act,
                 FMatrix* out, float alpha = 0.2f);

/// out = sa * a + sb * b.
void ScaleAdd(const FMatrix& a, float sa, const FMatrix& b, float sb,
              FMatrix* out);

// ---------------------------------------------------------------------------
// Public f64 kNN scan (dispatch + obs accounting as above)
// ---------------------------------------------------------------------------

/// The f64 exact kNN scan: `op`'s accumulation of every query against every
/// packed reference row. `queries` is num_queries x dim, row-major. `packed`
/// holds `blocks` blocks of kKnnLanes reference rows, dimension-major inside
/// a block: row b * kKnnLanes + l, dimension j sits at
/// packed[(b * dim + j) * kKnnLanes + l]. `row_mean` (kCenteredDot only,
/// null otherwise) has one value per packed row. out is num_queries x
/// (blocks * kKnnLanes), row-major, and is overwritten.
///
/// Each lane runs its pair's sequence in dimension order with a separate
/// rounding per subtract, multiply and add, and never an FMA, so out is
/// bit-identical to the scalar loop over one row on every tier and for every
/// query grouping. Leaf-level: callers parallelize across queries.
void KnnScan(KnnScanOp op, const double* queries, size_t num_queries,
             const double* packed, const double* row_mean, size_t blocks,
             size_t dim, double* out);

// ---------------------------------------------------------------------------
// Shared accumulation-order helpers (internal; in the header so the scalar
// and AVX2 translation units compile the *same* combine code)
// ---------------------------------------------------------------------------

namespace detail {

/// Canonical horizontal reduction of 8 striped accumulators (lane l holds the
/// partial sum of elements with k % 8 == l). Fixed pairwise tree — both
/// dispatch tiers reduce in exactly this order, which is what makes the
/// vectorized dot products bit-identical to the scalar ones.
inline float Combine8(const float acc[8]) {
  const float s01 = acc[0] + acc[1];
  const float s23 = acc[2] + acc[3];
  const float s45 = acc[4] + acc[5];
  const float s67 = acc[6] + acc[7];
  return (s01 + s23) + (s45 + s67);
}

/// Scalar fused bias+activation for one value; the reference semantics both
/// tiers implement (AVX2 vectorizes kNone/kRelu/kLeakyRelu with max/blend,
/// which round identically; kSigmoid/kTanh always take this scalar path so
/// libm calls stay identical across tiers).
inline float ApplyBiasAct(float v, float bias, FAct act, float alpha) {
  const float x = v + bias;
  switch (act) {
    case FAct::kNone:
      return x;
    case FAct::kRelu:
      return x > 0.0f ? x : 0.0f;
    case FAct::kLeakyRelu:
      return x > 0.0f ? x : alpha * x;
    case FAct::kSigmoid:
      return 1.0f / (1.0f + std::exp(-x));
    case FAct::kTanh:
      return std::tanh(x);
  }
  return x;
}

/// Overflow-free logistic function: the f64 sigmoid both tiers call.
inline double StableSigmoid(double z) {
  if (z >= 0) {
    double e = std::exp(-z);
    return 1.0 / (1.0 + e);
  }
  double e = std::exp(z);
  return e / (1.0 + e);
}

/// f64 activation of one value: the bias_act reference both tiers apply
/// (the AVX2 tier in its column tails and for sigmoid/tanh).
inline double ActF64(double v, FAct act, double alpha) {
  switch (act) {
    case FAct::kRelu:
      return v > 0 ? v : 0.0;
    case FAct::kLeakyRelu:
      return v > 0 ? v : alpha * v;
    case FAct::kSigmoid:
      return StableSigmoid(v);
    case FAct::kTanh:
      return std::tanh(v);
    case FAct::kNone:
      break;
  }
  return v;
}

/// One gradient value g scaled by act' read from the activation output o:
/// the act_grad reference both tiers apply.
inline double ActGradF64(double g, double o, FAct act, double alpha) {
  switch (act) {
    case FAct::kRelu:
      return o <= 0 ? 0.0 : g;
    case FAct::kLeakyRelu:
      return o <= 0 ? g * alpha : g;
    case FAct::kSigmoid:
      return g * (o * (1.0 - o));
    case FAct::kTanh:
      return g * (1.0 - o * o);
    case FAct::kNone:
      break;
  }
  return g;
}

/// Calls fn(std::integral_constant<KnnScanOp, op>{}): the kNN scan's
/// runtime-to-compile-time op switch, shared by both tiers.
template <typename Fn>
void WithKnnScanOp(KnnScanOp op, Fn&& fn) {
  using Op = KnnScanOp;
  switch (op) {
    case Op::kSquaredDiff:
      return fn(std::integral_constant<Op, Op::kSquaredDiff>{});
    case Op::kAbsDiff:
      return fn(std::integral_constant<Op, Op::kAbsDiff>{});
    case Op::kDot:
      return fn(std::integral_constant<Op, Op::kDot>{});
    case Op::kCenteredDot:
      return fn(std::integral_constant<Op, Op::kCenteredDot>{});
  }
}

/// Defined by the AVX2 translation unit: the AVX2 table when that unit was
/// compiled with vector support, null otherwise (non-x86 builds).
const KernelTable* Avx2TableOrNull();

}  // namespace detail

}  // namespace gnn4tdl::kernels
