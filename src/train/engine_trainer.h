#ifndef ANGELPTM_TRAIN_ENGINE_TRAINER_H_
#define ANGELPTM_TRAIN_ENGINE_TRAINER_H_

#include <memory>
#include <string>
#include <vector>

#include "core/checkpoint_manager.h"
#include "core/engine.h"
#include "core/lockfree_updater.h"
#include "mem/copy_engine.h"
#include "obs/metrics.h"
#include "train/dataset.h"
#include "train/layered_model.h"
#include "train/loss_scaler.h"
#include "util/random.h"
#include "util/status.h"

namespace angelptm::train {

/// Numeric precision of the compute path. The paper trains "storing the
/// model states in FP32 while computing in BF16" (§6.1); kBf16 rounds the
/// working parameters and every layer boundary through bfloat16, emulating
/// tensor-core arithmetic while the masters stay fp32.
enum class ComputePrecision { kFp32, kBf16 };

/// The training loop: every step goes through the paged Engine (Fig. 6's
/// `angelptm.initialize` façade) — parameters staged into the fast tier on
/// the unified schedule, boundary activations stashed on hierarchical
/// memory and interiors recomputed in backward (§4.2), gradients offloaded
/// to the (optionally lock-free) updater (Algorithm 2).
struct EngineTrainerOptions {
  /// Memory hierarchy, update rule, lock-free mode and master tier.
  core::EngineOptions engine;
  size_t batch_size = 32;
  /// Stash boundary activations on the hierarchical memory and recompute
  /// layer interiors in backward (§4.2). When false the caller-side stash
  /// stays in host vectors like a conventional framework.
  bool offload_activations = true;
  ComputePrecision compute_precision = ComputePrecision::kFp32;
  /// Micro-batch passes per optimizer update: each layer's gradients sum in
  /// a host fp32 window whose mean is pushed every `grad_accumulation`
  /// steps (and on the last step of a Train call). Synchronous mode only;
  /// Init rejects it together with engine.lock_free, which paces itself.
  int grad_accumulation = 1;
  /// Dynamic loss scaling (§2.1 mixed precision): gradients survive the
  /// fp16 buffer cast; overflowed steps push nothing and back the scale off.
  bool use_loss_scaling = false;
  LossScaler::Options loss_scaler;
  uint64_t seed = 1234;
  /// Upper bound on the end-of-training drain in lock-free mode; a dead or
  /// wedged updater surfaces as DeadlineExceeded/IoError instead of a hang.
  int drain_deadline_ms = 60000;

  // --- Fault tolerance (§3.1 failure recovery; DESIGN.md §9) ---
  /// Cut a checkpoint every N completed steps (0 disables). Saves go
  /// through CheckpointManager: atomic, checksummed, rotated, and taken
  /// through the per-layer quiesce so lock-free training never pauses.
  int checkpoint_every_n_steps = 0;
  /// Where the rotated checkpoints live. Required when checkpointing or
  /// auto-recovery is on.
  std::string checkpoint_dir;
  int checkpoint_keep_last = 3;
  /// When > 0, Train() absorbs updater poisonings: it rebuilds the whole
  /// Engine (memory hierarchy, copy engine, updater — the schedule
  /// re-traces on the first post-recovery step) from the latest valid
  /// checkpoint (exact resume: step counter, RNG cursor, loss-scaler
  /// schedule) and continues — up to this many times per trainer before
  /// the error propagates. 0 = propagate the first poisoning.
  int max_recoveries = 0;
};

/// Structured telemetry nested in every TrainReport: per-phase step-time
/// distributions for this run plus snapshots of every stats-bearing
/// subsystem the run touched (each taken via that class's Snapshot()).
struct TelemetrySnapshot {
  /// Wall time per training-step phase, microseconds (this run only).
  obs::HistogramData fwd_us;
  obs::HistogramData bwd_us;
  obs::HistogramData opt_us;
  /// Peak staleness observed across the run (lock-free mode).
  uint64_t max_pending_batches = 0;
  core::LockFreeUpdater::Stats updater;
  mem::MemorySnapshot memory;
  /// Meaningful only when has_ssd is set.
  mem::SsdTier::Stats ssd;
  bool has_ssd = false;
  mem::CopyEngine::Stats copy;
  /// Automatic checkpoint-restore recoveries performed during this run
  /// (updater poisonings absorbed by the recovery loop).
  uint64_t recoveries = 0;
  /// Meaningful only when has_checkpoint_manager is set.
  core::CheckpointManager::Stats checkpoint;
  bool has_checkpoint_manager = false;
};

struct TrainReport {
  std::vector<double> losses;  // Per-step training loss.
  double final_train_loss = 0.0;
  double validation_loss = 0.0;
  double wall_seconds = 0.0;
  double steps_per_second = 0.0;
  uint64_t overflow_steps_skipped = 0;
  double final_loss_scale = 0.0;
  TelemetrySnapshot telemetry;
};

class EngineTrainer {
 public:
  /// `model` must outlive the trainer.
  EngineTrainer(const LayeredModel* model,
                const EngineTrainerOptions& options);

  EngineTrainer(const EngineTrainer&) = delete;
  EngineTrainer& operator=(const EngineTrainer&) = delete;

  /// Validates the options, creates the engine and registers every layer.
  [[nodiscard]] util::Status Init();

  /// Restores the newest valid checkpoint from `checkpoint_dir` into the
  /// engine's updater — the restart-after-crash entry point. Returns false
  /// when no checkpoint exists (fresh start), true after an exact resume
  /// (master states, per-layer optimizer steps, global step, RNG cursor,
  /// loss-scaler schedule). For v1 checkpoints without progress the data
  /// cursor is replayed through `dataset` instead (pass the training
  /// dataset; may be null, which skips the replay). Call after Init(),
  /// before Train().
  [[nodiscard]] util::Result<bool> TryResume(
      const SyntheticRegression* dataset = nullptr);

  /// Runs `steps` training steps against `dataset`, returning the report.
  /// In lock-free mode the run drains the updater after the last step so
  /// the report reflects a consistent final model. With
  /// `max_recoveries > 0`, updater poisonings inside the run are absorbed
  /// by rebuilding the engine from the latest checkpoint and rewinding to
  /// its step (the batches in between are regenerated from the restored
  /// RNG cursor — no gradient is silently dropped or double-applied).
  [[nodiscard]] util::Result<TrainReport> Train(
      const SyntheticRegression& dataset, int steps);

  core::Engine* engine() { return engine_.get(); }
  core::CheckpointManager* checkpoint_manager() { return ckpt_manager_.get(); }
  /// Steps completed over this trainer's lifetime (survives recoveries and
  /// is restored by TryResume).
  int64_t global_step() const { return global_step_; }
  /// Checkpoint-restore recoveries performed by this trainer so far.
  uint64_t recoveries() const { return recoveries_; }

 private:
  /// One forward/backward through the engine; returns the loss. `flush`
  /// ends the gradient-accumulation window on this step.
  [[nodiscard]] util::Result<double> Step(const std::vector<float>& x,
                                          const std::vector<float>& y,
                                          bool flush);
  /// Hands one layer's gradients to the engine, or folds them into the
  /// layer's accumulation window and pushes the window's mean on `flush`.
  [[nodiscard]] util::Status OffloadGrads(int layer, std::vector<float> grads,
                                          bool flush);
  /// Pushes the mean of a layer's accumulation window, if it holds any.
  [[nodiscard]] util::Status FlushWindow(int layer);
  /// Mean loss over the held-out batches, on the fp32 master parameters.
  [[nodiscard]] util::Result<double> Validate(
      const SyntheticRegression& dataset);

  /// Creates the engine and registers every layer, drawing the initial
  /// parameters from `rng` (shared by Init and the recovery rebuild).
  [[nodiscard]] util::Status BuildEngine(util::Rng* rng);
  /// The step loop from global_step_ to `target_step`, checkpointing
  /// periodically and draining at the end.
  [[nodiscard]] util::Status TrainRange(const SyntheticRegression& dataset,
                                        int64_t target_step,
                                        TrainReport* report);
  /// Rebuilds the poisoned engine and restores the latest checkpoint into
  /// it. Returns `cause` unchanged when recovery is not possible (no
  /// manager, budget exhausted, not a poisoning).
  [[nodiscard]] util::Status Recover(const util::Status& cause,
                                     const SyntheticRegression& dataset);
  /// Applies a loaded TrainProgress to this trainer's step/RNG/scaler.
  void RestoreProgress(const core::TrainProgress& progress,
                       const SyntheticRegression* dataset);
  core::TrainProgress CurrentProgress() const;

  /// One layer's gradient-accumulation window (grad_accumulation > 1).
  struct GradWindow {
    std::vector<float> sum;
    int batches = 0;
  };

  const LayeredModel* model_;
  EngineTrainerOptions options_;
  std::unique_ptr<core::Engine> engine_;
  std::unique_ptr<core::CheckpointManager> ckpt_manager_;
  LossScaler scaler_;
  util::Rng rng_;
  std::vector<GradWindow> windows_;
  int64_t global_step_ = 0;
  uint64_t recoveries_ = 0;

  /// Per-run phase timers (reset at Train()); the same series also feed the
  /// process-wide "train/fwd_us" etc. registry histograms.
  obs::HistogramData fwd_us_;
  obs::HistogramData bwd_us_;
  obs::HistogramData opt_us_;
  obs::Histogram* metric_fwd_us_ = nullptr;
  obs::Histogram* metric_bwd_us_ = nullptr;
  obs::Histogram* metric_opt_us_ = nullptr;
  obs::Counter* metric_recoveries_ = nullptr;
};

}  // namespace angelptm::train

#endif  // ANGELPTM_TRAIN_ENGINE_TRAINER_H_
