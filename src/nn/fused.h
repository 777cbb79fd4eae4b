#pragma once

// Fused tape ops for the recurring message-passing patterns (docs/MEMORY.md,
// docs/KERNELS.md §fused). Each function here collapses a short chain of
// nn/ops nodes into ONE tape node whose forward and backward run the exact
// same kernel sequences, in the same element order, as the unfused
// composition — so values and gradients are bit-identical at every thread
// count, and the intermediate tape values (pre-bias, pre-activation,
// gathered/scaled edge messages) become transient buffers that die with the
// node's closure instead of living until the tape does.
//
// Every entry point bails to the unfused composition when fusion is disabled
// (SetFusionEnabled(false)) or when the pattern's preconditions don't hold;
// hits and bails are counted per pattern as fusion.hits.<name> /
// fusion.bails.<name> in the metrics registry. Disabling fusion is therefore
// always safe and bit-neutral — it only changes which nodes the tape holds.

#include <vector>

#include "nn/module.h"
#include "nn/tensor.h"
#include "tensor/sparse.h"

namespace gnn4tdl::fused {

/// Process-wide fusion switch (default on). Thread-safe; flipping it affects
/// nodes created afterwards, never the recorded tape.
void SetFusionEnabled(bool enabled);
bool FusionEnabled();

/// In place m(r, :) = act(m(r, :) + bias(0, :)), with no add when `bias`
/// is null: per element AddRowBroadcast's add, then the same function
/// ops.cc's activations apply. The value step every fused node ends with,
/// and what eval-mode forwards without a tape call. Runs the dispatched f64
/// epilogue kernel (kernels::F64Kernels::bias_act) over row blocks.
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
