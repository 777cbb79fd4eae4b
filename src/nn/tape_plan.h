#pragma once

// Static free-at-last-use lifetime analysis of one backward execution, the
// planning half of the arena execution model (docs/MEMORY.md). Backward
// implements the schedule; BuildTapePlan predicts it: for every node in the
// requires-grad subgraph it reports the step at which the node's buffers
// die, plus the simulated peak resident bytes of the planned schedule
// against the allocate-and-hold baseline. The
// trainer exports the two peaks as the tape.naive_peak_bytes and
// tape.planned_peak_bytes gauges.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "nn/tensor.h"

namespace gnn4tdl {

/// One node of the plan, in backward execution order (descending seq — the
/// same order Backward() runs, which is why a node's own step IS its value's
/// last use: every consumer has already run by then).
struct TapePlanNode {
  uint64_t seq = 0;
  std::string op;          ///< producing op ("" for leaves/unnamed)
  size_t value_bytes = 0;  ///< payload of the forward value (grad matches)
  bool is_leaf = false;    ///< no backward_fn: parameter or graph input
  /// Interior, non-root, and referenced only from inside the tape — the
  /// planner may free its value. Leaves (optimizer reads grads), the root
  /// (callers read the loss), and externally-held intermediates are pinned.
  bool releasable = false;
  size_t step = 0;       ///< position in backward execution order
  size_t free_step = 0;  ///< step after which value+grad are gone
                         ///< (== nodes.size() when pinned for the whole run)
};

/// The plan plus its two modeled peaks. Scope: the requires-grad subgraph
/// only — constants and closure-captured forward temporaries are identical
/// under both schedules and excluded from both peaks, so the planned/naive
/// ratio understates the real saving slightly.
struct TapePlan {
  std::vector<TapePlanNode> nodes;  ///< in execution order
  size_t naive_peak_bytes = 0;    ///< all values + all grads live at once
  size_t planned_peak_bytes = 0;  ///< peak under free-at-last-use
};

/// Analyzes the tape rooted at `root` (normally the loss). Read-only: the
/// tape is not mutated and can still be run backward afterwards.
TapePlan BuildTapePlan(const Tensor& root);

}  // namespace gnn4tdl
