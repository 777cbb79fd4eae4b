#pragma once

#include <functional>
#include <vector>

#include "common/status.h"
#include "nn/optimizer.h"
#include "nn/tensor.h"

namespace gnn4tdl {

/// Options for the full-batch trainer, which always runs Adam at a constant
/// learning rate.
struct TrainOptions {
  int max_epochs = 200;
  double learning_rate = 1e-2;
  /// Early stopping: stop after this many epochs without val improvement and
  /// restore the best parameters (0 = train to max_epochs). Early stopping is
  /// the only reader of the validation closure, so with 0 Fit never calls it.
  int patience = 30;
  /// Run TapeVerifier, NaN/Inf poisoning scan included, over the loss tape
  /// before Backward() every N epochs (0 = never). A failed verification
  /// aborts the run, and the report names the op that first produced a
  /// non-finite value; see TrainResult::tape_status.
  int verify_tape_every = 0;
};

/// Outcome of a training run.
struct TrainResult {
  int epochs_run = 0;
  /// Best validation metric seen; 0 unless early stopping ran the validation
  /// closure (a val_metric_fn and patience > 0).
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
/// (higher = better) drives early stopping with best-parameter restore. The
/// closure runs once per epoch only when early stopping is on (patience > 0);
/// otherwise it is never called.
///
/// The three training strategies of Table 8 (TrainStrategy: end-to-end,
/// two-stage, pretrain-finetune) are sequences of Fit calls over different
/// parameter sets and closures, run by InstanceGraphGnn::Fit.
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
  /// stopping on `val_metric_fn` when provided and patience > 0. Callers must
  /// read TrainResult::tape_status: a failed tape check stops training early.
  [[nodiscard]] TrainResult Fit(
      const std::function<Tensor()>& loss_fn,
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
