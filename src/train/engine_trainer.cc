#include "train/engine_trainer.h"

#include <algorithm>
#include <chrono>

#include "obs/trace.h"
#include "train/kernels.h"
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

}  // namespace

EngineTrainer::EngineTrainer(const LayeredModel* model,
                             const EngineTrainerOptions& options)
    : model_(model), options_(options), rng_(options.seed) {
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
  ANGEL_RETURN_IF_ERROR(BuildEngine(&rng_));
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
  progress.has_progress = true;
  return progress;
}

void EngineTrainer::RestoreProgress(const core::TrainProgress& progress,
                                    const SyntheticRegression* dataset) {
  global_step_ = progress.global_step;
  if (progress.has_progress) {
    rng_.SetState(progress.rng_state);
    return;
  }
  // v1 checkpoint: replay the seeded stream (init draws, then the batches).
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
                                         const std::vector<float>& y) {
  const int num_layers = model_->num_layers();
  const size_t batch = options_.batch_size;
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
      ANGEL_ASSIGN_OR_RETURN(const std::vector<float> params,
                             engine_->UseLayerParams(l));
      std::vector<float> next;
      model_->Forward(l, params.data(), acts, batch, &next,
                      options_.offload_activations ? nullptr : &stash[l]);
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

  // Backward: fetch boundaries and recompute interiors when offloading.
  const uint64_t bwd_start = NowUs();
  {
    ANGEL_SPAN("train", "backward");
    for (int l = num_layers - 1; l >= 0; --l) {
      ANGEL_ASSIGN_OR_RETURN(const std::vector<float> params,
                             engine_->UseLayerParams(l));
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
      ANGEL_RETURN_IF_ERROR(engine_->PushGrads(l, grad_params));
      grad = std::move(grad_in);
    }
  }
  {
    const uint64_t elapsed = NowUs() - bwd_start;
    bwd_us_.Record(elapsed);
    metric_bwd_us_->Record(elapsed);
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

util::Status EngineTrainer::TrainRange(const SyntheticRegression& dataset,
                                       int64_t target_step,
                                       TrainReport* report) {
  std::vector<float> x, y;
  while (global_step_ < target_step) {
    ANGEL_SPAN("train", "step");
    dataset.GenBatch(&rng_, options_.batch_size, &x, &y);
    ANGEL_ASSIGN_OR_RETURN(const double loss, Step(x, y));
    global_step_ += 1;
    report->losses.push_back(loss);
    if (options_.engine.lock_free) {
      report->telemetry.max_pending_batches =
          std::max(report->telemetry.max_pending_batches,
                   engine_->updater()->Snapshot().pending_grad_batches);
    }
    if (ckpt_manager_ != nullptr && options_.checkpoint_every_n_steps > 0 &&
        global_step_ % options_.checkpoint_every_n_steps == 0) {
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

  for (;;) {
    const util::Status ran = TrainRange(dataset, target_step, &report);
    if (ran.ok()) break;
    ANGEL_RETURN_IF_ERROR(Recover(ran, dataset));
    const int64_t kept = std::max<int64_t>(global_step_ - base_step, 0);
    if (int64_t(report.losses.size()) > kept) report.losses.resize(kept);
  }
  report.wall_seconds = NowSeconds() - start;
  report.steps_per_second =
      report.wall_seconds > 0 ? steps / report.wall_seconds : 0.0;
  report.final_train_loss = report.losses.empty() ? 0.0 : report.losses.back();

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
  report.telemetry.has_copy_engine = true;

  // Validation on the master parameters, read once (with SSD masters each
  // read is a round trip through the tier).
  ANGEL_SPAN("train", "validate");
  std::vector<std::vector<float>> masters(size_t(model_->num_layers()));
  for (int l = 0; l < model_->num_layers(); ++l) {
    ANGEL_RETURN_IF_ERROR(
        engine_->updater()->ReadMasterParams(l, &masters[size_t(l)]));
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
      acts = std::move(next);
    }
    std::vector<float> grad(acts.size());
    total += MseLoss(acts.data(), y.data(), grad.data(), acts.size());
  }
  report.validation_loss = total / validation_batches;
  return report;
}

}  // namespace angelptm::train
