#include "train/trainer.h"

#include <cmath>
#include <limits>

#include "common/arena.h"
#include "common/check.h"
#include "nn/tape_plan.h"
#include "nn/tape_verifier.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace gnn4tdl {

namespace {

// Epoch-level emission into the global registry, gated on MetricsEnabled()
// so a training run pays only one atomic load per epoch when metrics are
// off. Norm computations happen only inside the gate.
void EmitEpochMetrics(const std::vector<Tensor>& params, const Tensor& loss) {
  auto& registry = obs::MetricsRegistry::Global();
  double grad_sq = 0.0;
  double param_sq = 0.0;
  for (const Tensor& p : params) {
    const Matrix& v = p.value();
    for (size_t i = 0; i < v.size(); ++i) param_sq += v.data()[i] * v.data()[i];
    const Matrix& g = p.grad();
    for (size_t i = 0; i < g.size(); ++i) grad_sq += g.data()[i] * g.data()[i];
  }
  registry.GetGauge("train.loss").Set(loss.value()(0, 0));
  registry.GetGauge("train.grad_norm").Set(std::sqrt(grad_sq));
  registry.GetGauge("train.param_norm").Set(std::sqrt(param_sq));
  registry.GetGauge("train.tape_nodes")
      .Set(static_cast<double>(loss.TapeSize()));
  registry.GetCounter("train.epochs_total").Increment();
}

void EmitArenaMetrics(const Arena& arena) {
  auto& registry = obs::MetricsRegistry::Global();
  const ArenaStats s = arena.stats();
  registry.GetGauge("arena.live_bytes").Set(static_cast<double>(s.live_bytes));
  registry.GetGauge("arena.high_water_bytes")
      .Set(static_cast<double>(s.high_water_bytes));
  registry.GetGauge("arena.alloc_calls")
      .Set(static_cast<double>(s.alloc_calls));
  registry.GetGauge("arena.pool_hits").Set(static_cast<double>(s.pool_hits));
}

}  // namespace

Trainer::Trainer(std::vector<Tensor> params, const TrainOptions& options)
    : params_(std::move(params)),
      options_(options),
      optimizer_(params_, options.learning_rate) {}

void Trainer::SnapshotParams() {
  best_values_.clear();
  best_values_.reserve(params_.size());
  for (const Tensor& p : params_) best_values_.push_back(p.value());
}

void Trainer::RestoreParams() {
  GNN4TDL_CHECK_EQ(best_values_.size(), params_.size());
  for (size_t i = 0; i < params_.size(); ++i)
    params_[i].mutable_value() = best_values_[i];
}

TrainResult Trainer::Fit(const std::function<Tensor()>& loss_fn,
                         const std::function<double()>& val_metric_fn) {
  TrainResult result;
  // Early stopping is the validation metric's only reader: without it the
  // closure never runs, and best_val_metric stays 0.
  const bool early_stopping = val_metric_fn && options_.patience > 0;
  double best_metric = -std::numeric_limits<double>::infinity();
  int epochs_since_best = 0;

  // One arena for the whole run: epoch 0 sizes the pool, later epochs hit
  // the freelist with zero new allocations. Declared before the scope so the
  // scope unwinds first; escaped buffers (updated parameters, snapshots) keep
  // the state alive past both.
  Arena arena;
  ArenaScope arena_scope(&arena);

  for (int epoch = 0; epoch < options_.max_epochs; ++epoch) {
    obs::TraceSpan epoch_span("train/epoch");
    Tensor loss;
    {
      obs::TraceSpan span("train/forward");
      optimizer_.ZeroGrad();
      loss = loss_fn();
    }
    GNN4TDL_CHECK_MSG(loss.rows() == 1 && loss.cols() == 1,
                      "loss_fn must return a scalar tensor");
    result.final_train_loss = loss.value()(0, 0);
    {
      // The tape checks that read the recorded forward run under this span
      // too, so the four phase spans cover the epoch.
      obs::TraceSpan span("train/backward");
      if (options_.verify_tape_every > 0 &&
          epoch % options_.verify_tape_every == 0) {
        TapeVerifier verifier({.check_finite = true});
        result.tape_status = verifier.Verify(loss);
        // A malformed tape (or poisoned values) makes every further step
        // garbage; stop here and surface the diagnosis instead.
        if (!result.tape_status.ok()) break;
      }
      if (epoch == 0 && obs::MetricsEnabled()) {
        // Plan before Backward: the planner's external-handle detection
        // needs the closures still intact. One-time cost, first epoch only.
        TapePlan plan = BuildTapePlan(loss);
        auto& registry = obs::MetricsRegistry::Global();
        registry.GetGauge("tape.naive_peak_bytes")
            .Set(static_cast<double>(plan.naive_peak_bytes));
        registry.GetGauge("tape.planned_peak_bytes")
            .Set(static_cast<double>(plan.planned_peak_bytes));
      }
      // Frees each intermediate at its last use, bounding peak tape memory
      // to the planned peak (docs/MEMORY.md).
      loss.Backward();
    }
    {
      obs::TraceSpan span("train/optimizer");
      if (obs::MetricsEnabled()) {
        EmitEpochMetrics(params_, loss);
        EmitArenaMetrics(arena);
      }
      optimizer_.Step();
    }
    ++result.epochs_run;

    if (early_stopping) {
      double metric;
      {
        obs::TraceSpan span("train/validate");
        metric = val_metric_fn();
      }
      if (metric > best_metric) {
        best_metric = metric;
        epochs_since_best = 0;
        SnapshotParams();
      } else {
        ++epochs_since_best;
      }
      if (epochs_since_best >= options_.patience) break;
    }
  }

  if (early_stopping && !best_values_.empty()) RestoreParams();
  result.best_val_metric = early_stopping ? best_metric : 0.0;
  return result;
}

}  // namespace gnn4tdl
