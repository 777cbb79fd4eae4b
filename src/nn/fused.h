#pragma once

// Fused tape ops for the recurring message-passing patterns (docs/MEMORY.md,
// docs/KERNELS.md §fused). Each function here is ONE tape node for a short
// chain of nn/ops nodes; its forward and backward run the same kernel
// sequences, in the same element order, as that chain, so values and
// gradients are bit-identical to it at every thread count
// (tests/fusion_test.cc), and the chain's intermediates (pre-bias,
// pre-activation, gathered/scaled edge messages) are transient buffers that
// die with the node's closure instead of living until the tape does.
//
// The projection, aggregation and combine nodes share one body with the
// plain ops: ops::MatMul, ops::SpMM and ops::Add are LinearBiasAct,
// SpmmBiasAct and AddAct with no bias and no activation, and ops::Relu,
// LeakyRelu, Sigmoid, Tanh and Activate() are the same epilogue node over
// their input. Each keeps its own tape name.

#include <vector>

#include "nn/module.h"
#include "nn/tensor.h"
#include "tensor/sparse.h"

namespace gnn4tdl::fused {

/// In place m(r, :) = act(m(r, :) + bias(0, :)), with no add when `bias`
/// is null: per element AddRowBroadcast's add, then the activation. The
/// value step every epilogue node ends with, and what eval-mode forwards
/// without a tape call. Runs the dispatched f64 epilogue kernel
/// (kernels::F64Kernels::bias_act) over row blocks.
void BiasAct(Matrix* m, const Matrix* bias, Activation act,
             double alpha = 0.2);

/// act(x·W [+ b]) as one node. `b` may be undefined (no bias term).
/// Replaces MatMul + AddRowBroadcast + activation; eliminates the pre-bias
/// and pre-activation intermediates.
Tensor LinearBiasAct(const Tensor& x, const Tensor& w, const Tensor& b,
                     Activation act, double leaky_alpha = 0.2);

/// act(S·x [+ b]) as one node, S a fixed sparse operator. Replaces
/// SpMM + AddRowBroadcast + activation; eliminates the pre-bias and
/// pre-activation intermediates.
Tensor SpmmBiasAct(const SparseMatrix& sp, const Tensor& x, const Tensor& b,
                   Activation act, double leaky_alpha = 0.2);

/// act(a + b) as one node. Replaces Add + activation (the SAGE combine).
Tensor AddAct(const Tensor& a, const Tensor& b, Activation act,
              double leaky_alpha = 0.2);

/// [a[idx_a] | b[idx_b]] as one node. Replaces
/// ConcatCols(GatherRows(a, idx_a), GatherRows(b, idx_b)); eliminates both
/// gathered row blocks.
Tensor GatherConcat(const Tensor& a, const std::vector<size_t>& idx_a,
                    const Tensor& b, const std::vector<size_t>& idx_b);

/// Degree-normalized weighted aggregation as one node:
///   alpha = segment_softmax(log(w + eps), dst);  out[d] = Σ_e alpha_e h[src_e]
/// Replaces Log(AddScalar) + EdgeSoftmax + MulColBroadcast(GatherRows) +
/// ScatterAddRows (construct/learned.cc's normalize+aggregate); eliminates
/// the two E×d edge-message intermediates and the E×1 logit chain.
Tensor NormalizeAggregate(const Tensor& h, const Tensor& edge_weights,
                          const std::vector<size_t>& src,
                          const std::vector<size_t>& dst, size_t num_nodes,
                          double eps = 1e-9);

}  // namespace gnn4tdl::fused
