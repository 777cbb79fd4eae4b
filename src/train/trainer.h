#pragma once

#include <functional>
#include <vector>

#include "common/status.h"
#include "nn/optimizer.h"
#include "nn/tensor.h"

namespace gnn4tdl {

/// Learning-rate schedules applied on top of the base learning rate.
enum class LrSchedule {
  kConstant,      // lr(t) = base
  kCosine,        // cosine decay from base to ~0 over max_epochs
  kStep,          // x0.1 at 50% and 75% of max_epochs
  kWarmupCosine,  // linear warmup over the first 10%, then cosine decay
};

/// lr at `epoch` (0-based) for the given schedule.
double ScheduledLearningRate(LrSchedule schedule, double base_lr, int epoch,
                             int max_epochs);

/// Options for the full-batch trainer.
struct TrainOptions {
  int max_epochs = 200;
  double learning_rate = 1e-2;
  LrSchedule lr_schedule = LrSchedule::kConstant;
  double weight_decay = 0.0;
  /// Early stopping: stop after this many epochs without val improvement and
  /// restore the best parameters (0 = train to max_epochs).
  int patience = 30;
  /// Global gradient-norm clip (0 = off).
  double grad_clip = 0.0;
  bool verbose = false;
  /// Run TapeVerifier over the loss tape before Backward() every N epochs
  /// (0 = never). A failed verification aborts the run; see
  /// TrainResult::tape_status.
  int verify_tape_every = 0;
  /// Include the NaN/Inf poisoning scan in those verification passes, so the
  /// eventual report names the op that first produced a non-finite value.
  bool verify_finite = true;
  /// Serve every Matrix allocated while building and differentiating the tape
  /// from a slab arena owned by this Fit call (common/arena.h): epoch 0 is
  /// the dry run that sizes the pool; steady-state epochs recycle the same
  /// slabs with zero new allocations. Bit-exact either way.
  bool use_arena = true;
  /// Free each intermediate's value at its last use inside Backward()
  /// (nn/tensor.h, BackwardOptions::release_values), bounding peak tape
  /// memory to the planned peak instead of holding every intermediate until
  /// the epoch ends. See docs/MEMORY.md. Bit-exact either way.
  bool release_tape_values = true;
};

/// Outcome of a training run.
struct TrainResult {
  int epochs_run = 0;
  double best_val_metric = 0.0;
  double final_train_loss = 0.0;
  /// OK unless a TapeVerifier pass (TrainOptions::verify_tape_every) failed,
  /// in which case training stopped at that epoch and the message names the
  /// offending tape node.
  Status tape_status;
};

/// Full-batch gradient trainer (the dominant regime in GNN4TDL: the whole
/// instance graph is one batch). The model supplies a loss closure that
/// rebuilds the forward graph each epoch; an optional validation closure
/// (higher = better) drives early stopping with best-parameter restore.
///
/// All six training strategies of Table 8 reduce to sequences of Fit calls
/// over different parameter sets and closures; see train/strategies in the
/// model implementations.
///
/// Threading & determinism: Fit itself is single-threaded — the epoch loop,
/// Backward tape walk, and optimizer Step all run on the calling thread — but
/// the tensor kernels inside the loss closure and the backward functions use
/// the shared ThreadPool::Global() (sized by GNN4TDL_THREADS). Because every
/// parallel kernel is bit-identical at every thread count (see
/// common/parallel.h), two Fit runs with the same seed produce bit-identical
/// loss curves and parameters, whatever the thread counts.
class Trainer {
 public:
  Trainer(std::vector<Tensor> params, const TrainOptions& options);

  /// Runs the loop: ZeroGrad -> loss_fn() -> Backward -> Step, with early
  /// stopping on `val_metric_fn` when provided.
  TrainResult Fit(const std::function<Tensor()>& loss_fn,
                  const std::function<double()>& val_metric_fn = nullptr);

 private:
  void SnapshotParams();
  void RestoreParams();

  std::vector<Tensor> params_;
  TrainOptions options_;
  Adam optimizer_;
  std::vector<Matrix> best_values_;
};

}  // namespace gnn4tdl
