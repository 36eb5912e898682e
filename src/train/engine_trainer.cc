#include "train/engine_trainer.h"

#include <algorithm>
#include <chrono>

#include "obs/trace.h"
#include "train/kernels.h"
#include "util/half.h"
#include "util/logging.h"

namespace angelptm::train {
namespace {

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

uint64_t NowUs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Rounds every element through bfloat16 (the paper's compute precision).
void RoundToBf16(std::vector<float>* values) {
  for (float& v : *values) {
    v = util::BFloat16BitsToFloat(util::FloatToBFloat16Bits(v));
  }
}

}  // namespace

EngineTrainer::EngineTrainer(const LayeredModel* model,
                             const EngineTrainerOptions& options)
    : model_(model),
      options_(options),
      scaler_(options.loss_scaler),
      rng_(options.seed) {
  obs::Registry& registry = obs::Registry::Instance();
  metric_fwd_us_ = registry.GetHistogram("train/fwd_us");
  metric_bwd_us_ = registry.GetHistogram("train/bwd_us");
  metric_opt_us_ = registry.GetHistogram("train/opt_us");
  metric_recoveries_ = registry.GetCounter("train/recoveries");
}

util::Status EngineTrainer::BuildEngine(util::Rng* rng) {
  ANGEL_ASSIGN_OR_RETURN(engine_, core::Engine::Create(options_.engine));
  for (int l = 0; l < model_->num_layers(); ++l) {
    ANGEL_RETURN_IF_ERROR(
        engine_->RegisterLayer(model_->InitLayerParams(l, rng)).status());
  }
  return util::Status::OK();
}

util::Status EngineTrainer::Init() {
  if (options_.grad_accumulation < 1) {
    return util::Status::InvalidArgument("grad_accumulation must be >= 1");
  }
  if (options_.grad_accumulation > 1 && options_.engine.lock_free) {
    return util::Status::InvalidArgument(
        "grad_accumulation > 1 needs synchronous updates (lock-free mode "
        "paces itself)");
  }
  ANGEL_RETURN_IF_ERROR(BuildEngine(&rng_));
  if (options_.grad_accumulation > 1) {
    windows_.resize(size_t(model_->num_layers()));
  }
  if (!options_.checkpoint_dir.empty()) {
    core::CheckpointManager::Options manager_options;
    manager_options.dir = options_.checkpoint_dir;
    manager_options.keep_last = options_.checkpoint_keep_last;
    ckpt_manager_ = std::make_unique<core::CheckpointManager>(manager_options);
    ANGEL_RETURN_IF_ERROR(ckpt_manager_->Init());
  }
  return util::Status::OK();
}

core::TrainProgress EngineTrainer::CurrentProgress() const {
  core::TrainProgress progress;
  progress.global_step = global_step_;
  progress.rng_state = rng_.GetState();
  const LossScaler::State scaler = scaler_.GetState();
  progress.loss_scale = scaler.scale;
  progress.scaler_good_steps = scaler.good_steps;
  progress.scaler_overflows = scaler.overflows;
  progress.scaler_growths = scaler.growths;
  progress.has_progress = true;
  return progress;
}

void EngineTrainer::RestoreProgress(const core::TrainProgress& progress,
                                    const SyntheticRegression* dataset) {
  global_step_ = progress.global_step;
  // A partial accumulation window belongs to the abandoned timeline.
  for (GradWindow& window : windows_) window = GradWindow();
  if (progress.has_progress) {
    rng_.SetState(progress.rng_state);
    LossScaler::State scaler;
    scaler.scale = progress.loss_scale;
    scaler.good_steps = progress.scaler_good_steps;
    scaler.overflows = progress.scaler_overflows;
    scaler.growths = progress.scaler_growths;
    scaler_.SetState(scaler);
    return;
  }
  // v1 checkpoint: no RNG/scaler state. Rebuild the data cursor by
  // re-consuming the seeded stream — the init draws, then every batch up to
  // the checkpointed step. The scaler restarts from its options (the only
  // approximation the upgrade path carries).
  scaler_ = LossScaler(options_.loss_scaler);
  rng_ = util::Rng(options_.seed);
  for (int l = 0; l < model_->num_layers(); ++l) {
    (void)model_->InitLayerParams(l, &rng_);
  }
  if (dataset != nullptr) {
    dataset->SkipBatches(&rng_, options_.batch_size, progress.global_step);
  }
}

util::Result<bool> EngineTrainer::TryResume(const SyntheticRegression* dataset) {
  if (engine_ == nullptr) {
    return util::Status::FailedPrecondition("Init() not called");
  }
  if (ckpt_manager_ == nullptr) return false;
  auto latest = ckpt_manager_->LoadLatest(engine_->updater());
  if (!latest.ok()) {
    if (latest.status().IsNotFound()) return false;  // Fresh start.
    return latest.status();
  }
  RestoreProgress(*latest, dataset);
  return true;
}

util::Status EngineTrainer::Recover(const util::Status& cause,
                                    const SyntheticRegression& dataset) {
  if (ckpt_manager_ == nullptr || options_.max_recoveries <= 0) return cause;
  if (engine_ == nullptr || engine_->updater()->status().ok()) return cause;
  if (recoveries_ >= uint64_t(options_.max_recoveries)) {
    return util::Status(cause.code(),
                        cause.message() + " (recovery budget of " +
                            std::to_string(options_.max_recoveries) +
                            " exhausted)");
  }
  recoveries_ += 1;
  metric_recoveries_->Increment();
  ANGEL_LOG(Warning) << "rebuilding engine after poisoned updater (attempt "
                     << recoveries_ << "/" << options_.max_recoveries
                     << "): " << cause.ToString();
  // The whole engine goes: its memory hierarchy and copy engine may hold
  // state fed by the failed device. The fresh engine re-traces its first
  // step and rebuilds the schedule.
  engine_.reset();
  util::Rng scratch_rng(options_.seed ^ 0xC0FFEEull);
  ANGEL_RETURN_IF_ERROR(BuildEngine(&scratch_rng));
  ANGEL_ASSIGN_OR_RETURN(const core::TrainProgress progress,
                         ckpt_manager_->LoadLatest(engine_->updater()));
  RestoreProgress(progress, &dataset);
  return util::Status::OK();
}

util::Result<double> EngineTrainer::Step(const std::vector<float>& x,
                                         const std::vector<float>& y,
                                         bool flush) {
  const int num_layers = model_->num_layers();
  const size_t batch = options_.batch_size;
  const bool bf16 = options_.compute_precision == ComputePrecision::kBf16;
  ANGEL_RETURN_IF_ERROR(engine_->BeginStep());

  // Forward. With activation offloading only the layer *inputs* (the
  // boundaries) survive, on the hierarchical memory; otherwise keep the
  // full per-layer stash in host vectors.
  std::vector<LayerStash> stash(num_layers);
  std::vector<float> acts = x;
  const uint64_t fwd_start = NowUs();
  {
    ANGEL_SPAN("train", "forward");
    for (int l = 0; l < num_layers; ++l) {
      if (options_.offload_activations) {
        ANGEL_RETURN_IF_ERROR(engine_->StashActivation(l, acts));
      }
      ANGEL_ASSIGN_OR_RETURN(std::vector<float> params,
                             engine_->UseLayerParams(l));
      if (bf16) RoundToBf16(&params);
      std::vector<float> next;
      model_->Forward(l, params.data(), acts, batch, &next,
                      options_.offload_activations ? nullptr : &stash[l]);
      if (bf16) RoundToBf16(&next);  // Layer boundaries in bf16.
      acts = std::move(next);
    }
  }
  {
    const uint64_t elapsed = NowUs() - fwd_start;
    fwd_us_.Record(elapsed);
    metric_fwd_us_->Record(elapsed);
  }

  std::vector<float> grad(acts.size());
  const double loss =
      MseLoss(acts.data(), y.data(), grad.data(), acts.size());
  const double scale = options_.use_loss_scaling ? scaler_.scale() : 1.0;
  if (scale != 1.0) {
    for (float& g : grad) g = float(g * scale);
  }

  // Backward: fetch boundaries and recompute interiors when offloading.
  // Loss-scaled gradients are held until the whole pass is known to be
  // finite. The pass always runs to the end, overflow or not, so every step
  // makes the same engine accesses — the traced first step's accesses are
  // what the schedule is built from.
  std::vector<std::vector<float>> held(
      options_.use_loss_scaling ? size_t(num_layers) : 0);
  bool overflowed = false;
  const uint64_t bwd_start = NowUs();
  {
    ANGEL_SPAN("train", "backward");
    for (int l = num_layers - 1; l >= 0; --l) {
      ANGEL_ASSIGN_OR_RETURN(std::vector<float> params,
                             engine_->UseLayerParams(l));
      if (bf16) RoundToBf16(&params);
      if (options_.offload_activations) {
        ANGEL_ASSIGN_OR_RETURN(const std::vector<float> boundary,
                               engine_->FetchActivation(l));
        std::vector<float> recomputed;
        model_->Forward(l, params.data(), boundary, batch, &recomputed,
                        &stash[l]);
      }
      std::vector<float> grad_in, grad_params;
      model_->Backward(l, params.data(), stash[l], grad, batch, &grad_in,
                       &grad_params);
      if (bf16) {
        RoundToBf16(&grad_in);
        RoundToBf16(&grad_params);
      }
      if (options_.use_loss_scaling) {
        overflowed = overflowed || LossScaler::HasNonFinite(grad_params);
        held[size_t(l)] = std::move(grad_params);
      } else {
        ANGEL_RETURN_IF_ERROR(OffloadGrads(l, std::move(grad_params), flush));
      }
      grad = std::move(grad_in);
    }
  }
  {
    const uint64_t elapsed = NowUs() - bwd_start;
    bwd_us_.Record(elapsed);
    metric_bwd_us_->Record(elapsed);
  }
  if (options_.use_loss_scaling) {
    // An overflowed step pushes nothing; the scale has backed off.
    const bool apply = scaler_.Update(overflowed);
    const float inv = float(1.0 / scale);
    for (int l = num_layers - 1; l >= 0; --l) {
      if (!apply) {
        if (flush) ANGEL_RETURN_IF_ERROR(FlushWindow(l));
        continue;
      }
      for (float& g : held[size_t(l)]) g *= inv;
      ANGEL_RETURN_IF_ERROR(OffloadGrads(l, std::move(held[size_t(l)]), flush));
    }
  }
  // EndStep runs the drain and (in synchronous mode) the update barrier.
  const uint64_t opt_start = NowUs();
  ANGEL_RETURN_IF_ERROR(engine_->EndStep());
  {
    const uint64_t elapsed = NowUs() - opt_start;
    opt_us_.Record(elapsed);
    metric_opt_us_->Record(elapsed);
  }
  return loss;
}

util::Status EngineTrainer::OffloadGrads(int layer, std::vector<float> grads,
                                         bool flush) {
  if (windows_.empty()) return engine_->PushGrads(layer, grads);
  GradWindow& window = windows_[size_t(layer)];
  if (window.batches == 0) {
    window.sum = std::move(grads);
  } else {
    for (size_t i = 0; i < grads.size(); ++i) window.sum[i] += grads[i];
  }
  window.batches += 1;
  return flush ? FlushWindow(layer) : util::Status::OK();
}

util::Status EngineTrainer::FlushWindow(int layer) {
  if (windows_.empty()) return util::Status::OK();
  GradWindow& window = windows_[size_t(layer)];
  if (window.batches == 0) return util::Status::OK();
  const float batches = float(window.batches);
  for (float& g : window.sum) g /= batches;
  window.batches = 0;
  return engine_->PushGrads(layer, window.sum);
}

util::Status EngineTrainer::TrainRange(const SyntheticRegression& dataset,
                                       int64_t target_step,
                                       TrainReport* report) {
  std::vector<float> x, y;
  while (global_step_ < target_step) {
    ANGEL_SPAN("train", "step");
    dataset.GenBatch(&rng_, options_.batch_size, &x, &y);
    const int64_t step = global_step_ + 1;
    const bool flush =
        step % options_.grad_accumulation == 0 || step == target_step;
    ANGEL_ASSIGN_OR_RETURN(const double loss, Step(x, y, flush));
    global_step_ = step;
    report->losses.push_back(loss);
    if (options_.engine.lock_free) {
      report->telemetry.max_pending_batches =
          std::max(report->telemetry.max_pending_batches,
                   engine_->updater()->Snapshot().pending_grad_batches);
    }
    if (ckpt_manager_ != nullptr && options_.checkpoint_every_n_steps > 0 &&
        global_step_ % options_.checkpoint_every_n_steps == 0) {
      // The cut is taken with the updater threads still running (per-layer
      // quiesce); in lock-free mode the optimizer keeps folding gradients
      // while the file is written. A failed save is a warning, not a dead
      // run — the previous rotated checkpoint still covers recovery.
      const util::Status saved =
          ckpt_manager_->Save(engine_->updater(), CurrentProgress());
      if (!saved.ok()) {
        ANGEL_LOG(Warning) << "checkpoint at step " << global_step_
                           << " failed: " << saved.ToString();
      }
    }
  }
  if (options_.engine.lock_free) {
    ANGEL_RETURN_IF_ERROR(engine_->updater()->DrainUpdates(
        std::chrono::milliseconds(options_.drain_deadline_ms)));
  }
  return util::Status::OK();
}

util::Result<TrainReport> EngineTrainer::Train(
    const SyntheticRegression& dataset, int steps) {
  if (engine_ == nullptr) {
    return util::Status::FailedPrecondition("Init() not called");
  }
  TrainReport report;
  fwd_us_ = obs::HistogramData();
  bwd_us_ = obs::HistogramData();
  opt_us_ = obs::HistogramData();
  const int64_t base_step = global_step_;
  const int64_t target_step = base_step + steps;
  const uint64_t recoveries_at_entry = recoveries_;
  const double start = NowSeconds();

  // The recovery loop (§3.1): a poisoned updater inside the range is torn
  // down with its engine and rebuilt from the latest valid checkpoint, the
  // step counter and data cursor rewind with it, and the range re-runs from
  // there — bounded by max_recoveries.
  for (;;) {
    const util::Status ran = TrainRange(dataset, target_step, &report);
    if (ran.ok()) break;
    ANGEL_RETURN_IF_ERROR(Recover(ran, dataset));
    // Steps past the restored checkpoint will re-run: drop their losses.
    const int64_t kept = std::max<int64_t>(global_step_ - base_step, 0);
    if (int64_t(report.losses.size()) > kept) report.losses.resize(kept);
  }
  report.wall_seconds = NowSeconds() - start;
  report.steps_per_second =
      report.wall_seconds > 0 ? steps / report.wall_seconds : 0.0;
  report.final_train_loss = report.losses.empty() ? 0.0 : report.losses.back();
  report.overflow_steps_skipped = scaler_.steps_skipped();
  report.final_loss_scale = options_.use_loss_scaling ? scaler_.scale() : 1.0;

  report.telemetry.fwd_us = fwd_us_;
  report.telemetry.bwd_us = bwd_us_;
  report.telemetry.opt_us = opt_us_;
  report.telemetry.updater = engine_->updater()->Snapshot();
  report.telemetry.recoveries = recoveries_ - recoveries_at_entry;
  if (ckpt_manager_ != nullptr) {
    report.telemetry.checkpoint = ckpt_manager_->Snapshot();
    report.telemetry.has_checkpoint_manager = true;
  }
  report.telemetry.memory = engine_->memory()->Snapshot();
  if (engine_->memory()->ssd_enabled()) {
    report.telemetry.ssd = engine_->memory()->ssd()->Snapshot();
    report.telemetry.has_ssd = true;
  }
  report.telemetry.copy = engine_->copy_engine()->Snapshot();
  ANGEL_ASSIGN_OR_RETURN(report.validation_loss, Validate(dataset));
  return report;
}

util::Result<double> EngineTrainer::Validate(
    const SyntheticRegression& dataset) {
  // The master parameters are read once: with SSD masters each read is a
  // round trip through the tier.
  ANGEL_SPAN("train", "validate");
  const bool bf16 = options_.compute_precision == ComputePrecision::kBf16;
  std::vector<std::vector<float>> masters(size_t(model_->num_layers()));
  for (int l = 0; l < model_->num_layers(); ++l) {
    ANGEL_RETURN_IF_ERROR(
        engine_->updater()->ReadMasterParams(l, &masters[size_t(l)]));
    if (bf16) RoundToBf16(&masters[size_t(l)]);
  }
  util::Rng validation_rng(options_.seed ^ 0x5EEDF00Dull);
  double total = 0.0;
  const int validation_batches = 8;
  std::vector<float> x, y;
  for (int i = 0; i < validation_batches; ++i) {
    dataset.GenBatch(&validation_rng, options_.batch_size, &x, &y);
    std::vector<float> acts = x;
    for (int l = 0; l < model_->num_layers(); ++l) {
      std::vector<float> next;
      model_->Forward(l, masters[size_t(l)].data(), acts,
                      options_.batch_size, &next, nullptr);
      if (bf16) RoundToBf16(&next);
      acts = std::move(next);
    }
    std::vector<float> grad(acts.size());
    total += MseLoss(acts.data(), y.data(), grad.data(), acts.size());
  }
  return total / validation_batches;
}

}  // namespace angelptm::train
