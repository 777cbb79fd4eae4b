#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "nn/tensor.h"
#include "tensor/sparse.h"

namespace gnn4tdl::ops {

// ---------------------------------------------------------------------------
// Elementwise & broadcast arithmetic
// ---------------------------------------------------------------------------

/// C = A + B (same shape). fused::AddAct's node with no activation.
Tensor Add(const Tensor& a, const Tensor& b);

/// C = A - B (same shape).
Tensor Sub(const Tensor& a, const Tensor& b);

/// C = A ⊙ B (Hadamard product, same shape).
Tensor CwiseMul(const Tensor& a, const Tensor& b);

/// C = s * A.
Tensor Scale(const Tensor& a, double s);

/// C = A + c (entrywise constant shift).
Tensor AddScalar(const Tensor& a, double c);

/// C(r, :) = A(r, :) + b(0, :): adds a 1 x d row vector to every row.
Tensor AddRowBroadcast(const Tensor& a, const Tensor& b);

/// C(r, c) = A(r, c) * w(r, 0): scales each row by a column-vector weight.
Tensor MulColBroadcast(const Tensor& a, const Tensor& w);

// ---------------------------------------------------------------------------
// Activations
// ---------------------------------------------------------------------------

// Relu, LeakyRelu, Sigmoid and Tanh are one node each, fused::BiasAct's
// epilogue over the input (nn/fused.h). Each backward reads the node's own
// output, so a relu gradient is 0 wherever the output is 0, NaN inputs
// included.
Tensor Relu(const Tensor& a);
/// Elementwise absolute value (subgradient 0 at 0).
Tensor Abs(const Tensor& a);
Tensor LeakyRelu(const Tensor& a, double alpha = 0.2);
Tensor Sigmoid(const Tensor& a);
Tensor Tanh(const Tensor& a);
Tensor Exp(const Tensor& a);
/// Natural log; inputs must be strictly positive.
Tensor Log(const Tensor& a);

/// Inverted dropout: zeros entries with prob `p` and rescales survivors by
/// 1/(1-p). Identity when `training` is false or p == 0. Draws one engine
/// output per element, in row-major order, and drops exactly where
/// Rng::Bernoulli(p) would return true on that draw.
Tensor Dropout(const Tensor& a, double p, Rng& rng, bool training);

/// For p in (0, 1): the smallest engine draw on which
/// std::bernoulli_distribution(p) returns false. Dropout keeps an element iff
/// its draw is at least this.
uint64_t DropoutKeepThreshold(double p);

// ---------------------------------------------------------------------------
// Shape ops
// ---------------------------------------------------------------------------

/// [A | B] along columns (same row count).
Tensor ConcatCols(const Tensor& a, const Tensor& b);

/// [A ; B ; ...] along rows (same column count). Accepts 1+ tensors.
Tensor ConcatRows(const std::vector<Tensor>& parts);

/// Row-major reinterpretation to new_rows x new_cols (same element count &
/// order). Used for the feature-graph batching trick (see models/feature_graph).
Tensor Reshape(const Tensor& a, size_t new_rows, size_t new_cols);

Tensor Transpose(const Tensor& a);

// ---------------------------------------------------------------------------
// Linear algebra & message passing
// ---------------------------------------------------------------------------

/// C = A * B. fused::LinearBiasAct's node with no bias or activation.
Tensor MatMul(const Tensor& a, const Tensor& b);

/// C = S * X for a constant sparse operator S (e.g., a normalized adjacency).
/// Gradient flows to X only. fused::SpmmBiasAct's node with no bias or
/// activation.
Tensor SpMM(const SparseMatrix& sp, const Tensor& x);

/// SpMM whose backward reads `sp_t`, the caller's sp.Transpose() (null:
/// build one, as above), for an operator recorded on every epoch of a fit
/// (see fused::SpmmBiasAct).
Tensor SpMM(const SparseMatrix& sp, std::shared_ptr<const SparseMatrix> sp_t,
            const Tensor& x);

/// out[i, :] = X[idx[i], :]. Rows may repeat (e.g., edge endpoint gather).
Tensor GatherRows(const Tensor& x, const std::vector<size_t>& idx);

/// out has `num_out` rows; out[idx[i], :] += X[i, :]. The scatter-add dual of
/// GatherRows; together they implement arbitrary edgewise message passing.
Tensor ScatterAddRows(const Tensor& x, const std::vector<size_t>& idx,
                      size_t num_out);

/// Per-destination softmax over edge logits: for each group g = {e : dst[e] ==
/// g}, out[e] = exp(l[e]) / sum_{e' in g} exp(l[e']). `logits` is E x 1.
/// Groups are defined by dst values in [0, num_groups).
Tensor EdgeSoftmax(const Tensor& logits, const std::vector<size_t>& dst,
                   size_t num_groups);

/// out = A(w) * X where A is the fixed sparsity `pattern` (row = dst, col =
/// src) with stored value at `slot[e]` taken from weights[e] — edge-weighted
/// aggregation out[d, :] = sum_{e : dst[e]==d} w[e] * X[src[e], :] routed
/// through the SpMM kernel, so it runs on the shared pool and avoids the
/// E x d message materialization of the gather/scale/scatter formulation.
/// `weights` is E x 1; gradients flow to both weights (per-edge dot
/// g[dst[e]] · X[src[e]]) and X (A^T * g).
Tensor WeightedSpMM(const Tensor& weights, const Tensor& x,
                    const SparseMatrix& pattern,
                    const std::vector<size_t>& slot,
                    const std::vector<size_t>& src,
                    const std::vector<size_t>& dst);

/// Rows rescaled to unit L2 norm (rows with norm <= eps pass through scaled
/// by 1/eps).
Tensor RowL2Normalize(const Tensor& a, double eps = 1e-12);

/// Layer normalization over each row: y = (x - mean) / sqrt(var + eps) * gamma
/// + beta, with learnable 1 x d scale `gamma` and shift `beta`.
Tensor LayerNormRows(const Tensor& x, const Tensor& gamma, const Tensor& beta,
                     double eps = 1e-5);

/// PairNorm (Zhao & Akoglu): center the feature columns across nodes, then
/// rescale every row to the same norm `scale`. Keeps pairwise distances from
/// collapsing as GNN depth grows (the oversmoothing remedy the survey cites
/// in Section 6). Parameter-free.
Tensor PairNormRows(const Tensor& x, double scale = 1.0, double eps = 1e-12);

/// Segment mean: out[s, :] = mean of rows i with seg[i] == s. Segments with no
/// members yield zero rows.
Tensor SegmentMeanRows(const Tensor& x, const std::vector<size_t>& seg,
                       size_t num_segments);

/// Segment max: out[s, :] = columnwise max over rows with seg[i] == s (zero
/// rows for empty segments). Gradient routes to the argmax row per column.
Tensor SegmentMaxRows(const Tensor& x, const std::vector<size_t>& seg,
                      size_t num_segments);

// ---------------------------------------------------------------------------
// Reductions & losses (all return 1 x 1 scalars unless stated otherwise)
// ---------------------------------------------------------------------------

Tensor SumAll(const Tensor& a);
Tensor MeanAll(const Tensor& a);
/// sum of squares of all entries (L2^2 penalty).
Tensor SumSquares(const Tensor& a);
/// sum of absolute values of all entries (L1 penalty).
Tensor SumAbs(const Tensor& a);

/// Row-wise softmax (n x C -> n x C probabilities).
Tensor SoftmaxRows(const Tensor& logits);

/// Weighted softmax cross-entropy:
///   L = sum_r w[r] * (-log softmax(logits)[r, labels[r]]) / sum_r w[r].
/// Rows with w[r] == 0 are fully masked. `weights` may be empty (all ones).
Tensor SoftmaxCrossEntropy(const Tensor& logits, const std::vector<int>& labels,
                           const std::vector<double>& weights = {});

/// Weighted mean squared error against a constant target:
///   L = sum_r w[r] * ||pred[r,:] - target[r,:]||^2 / (C * sum_r w[r]).
Tensor MseLoss(const Tensor& pred, const Matrix& target,
               const std::vector<double>& weights = {});

/// Weighted binary cross-entropy on logits (pred is n x 1, targets in {0,1}):
///   L = sum_r w[r] * [softplus(z_r) - y_r z_r] / sum_r w[r].
Tensor BceWithLogits(const Tensor& pred, const std::vector<double>& targets,
                     const std::vector<double>& weights = {});

// ---------------------------------------------------------------------------
// Forward values without a tape
// ---------------------------------------------------------------------------
// Bit-identical values of the ops above whose forward is more than one
// Matrix call, for eval-mode forwards that record no tape (ScoreOnGraph).

/// LayerNormRows' value. `x_hat` and `inv_std`, when non-null, receive the
/// normalized rows and inverse stddevs its backward reads.
Matrix LayerNormRowsValue(const Matrix& x, const Matrix& gamma,
                          const Matrix& beta, double eps = 1e-5,
                          Matrix* x_hat = nullptr,
                          std::vector<double>* inv_std = nullptr);

/// SoftmaxRows' value.
Matrix SoftmaxRowsValue(const Matrix& logits);

/// PairNormRows' value.
Matrix PairNormRowsValue(const Matrix& x, double scale = 1.0,
                         double eps = 1e-12);

}  // namespace gnn4tdl::ops
