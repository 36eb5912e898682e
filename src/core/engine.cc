#include "core/engine.h"

#include <algorithm>
#include <chrono>
#include <string>

#include "core/unified_scheduler.h"
#include "obs/trace.h"
#include "util/logging.h"

namespace angelptm::core {

Engine::Engine(const EngineOptions& options) : options_(options) {}

Engine::~Engine() {
  if (updater_ != nullptr) updater_->Stop();
  if (copy_engine_ != nullptr) copy_engine_->Drain();
  // Release working tensors before the allocator/memory go down.
  for (size_t l = 0; l < layers_.size(); ++l) {
    (void)ReleaseWorkingTensor(static_cast<int>(l));
  }
}

util::Result<std::unique_ptr<Engine>> Engine::Create(
    const EngineOptions& options) {
  std::unique_ptr<Engine> engine(new Engine(options));
  engine->memory_ =
      std::make_unique<mem::HierarchicalMemory>(options.memory);
  engine->allocator_ = std::make_unique<Allocator>(engine->memory_.get());
  engine->copy_engine_ = std::make_unique<mem::CopyEngine>(
      engine->memory_.get(), options.copy_threads);
  LockFreeUpdater::Options updater_options;
  updater_options.optimizer = options.optimizer;
  updater_options.master_device = options.master_device;
  engine->updater_ = std::make_unique<LockFreeUpdater>(
      engine->allocator_.get(), updater_options);
  obs::Registry& registry = obs::Registry::Instance();
  engine->metric_prefetch_move_failures_ =
      registry.GetCounter("engine/prefetch_move_failures");
  engine->metric_update_barrier_us_ =
      registry.GetHistogram("engine/update_barrier_us");
  return engine;
}

util::Result<int> Engine::RegisterLayer(
    const std::vector<float>& initial_params) {
  if (steps_completed_ > 0 || step_active_) {
    return util::Status::FailedPrecondition(
        "layers must be registered before training starts");
  }
  ANGEL_ASSIGN_OR_RETURN(const int index,
                         updater_->AddLayer(initial_params));
  WorkingLayer layer;
  layer.count = initial_params.size();
  layers_.push_back(std::move(layer));
  ANGEL_CHECK(index == int(layers_.size()) - 1);
  return index;
}

util::Status Engine::BeginStep() {
  ANGEL_SPAN("engine", "begin_step");
  if (step_active_) {
    return util::Status::FailedPrecondition("step already active");
  }
  if (layers_.empty()) {
    return util::Status::FailedPrecondition("no layers registered");
  }
  // Lock-free mode's step-start bound (see LockFreeUpdater): every layer
  // but the first few the forward pass reads starts with fresh parameters.
  if (options_.lock_free && updater_->running()) {
    ANGEL_RETURN_IF_ERROR(updater_->AwaitStepStart());
  }
  step_active_ = true;
  current_op_ = 0;
  for (auto& layer : layers_) {
    layer.uses_this_step = 0;
    layer.staged_this_step = false;
  }
  if (steps_completed_ == 0) {
    tracer_.Reset();
  }
  planner_.BeginStep();
  // Both modes update on the updater's threads, overlapping each layer's
  // master I/O and optimizer step with the rest of the backward pass;
  // synchronous mode then waits for them at EndStep's barrier.
  if (!updater_->running()) updater_->Start();
  return IssueReadyPrefetches();
}

util::Status Engine::StageWorkingTensor(int layer_index) {
  WorkingLayer& layer = layers_[layer_index];
  if (layer.tensor == nullptr) {
    ANGEL_ASSIGN_OR_RETURN(
        layer.tensor,
        allocator_->Allocate({layer.count}, DType::kFp16,
                             mem::DeviceKind::kCpu));
  }
  // The published fp16 bits go into the fp16 working tensor as they are:
  // decoding to fp32 and re-encoding would be an exact round trip.
  std::vector<uint16_t> bits;
  ANGEL_RETURN_IF_ERROR(updater_->FetchParamBits(layer_index, &bits));
  ANGEL_RETURN_IF_ERROR(
      layer.tensor->CopyIn(reinterpret_cast<const std::byte*>(bits.data()),
                           bits.size() * sizeof(uint16_t)));
  layer.staged_this_step = true;
  return util::Status::OK();
}

util::Status Engine::IssuePrefetch(int layer_index) {
  WorkingLayer& layer = layers_[layer_index];
  if (layer.staged_this_step) return util::Status::OK();
  ANGEL_RETURN_IF_ERROR(StageWorkingTensor(layer_index));
  layer.pending_moves.clear();
  for (mem::Page* page : layer.tensor->pages()) {
    layer.pending_moves.push_back(
        copy_engine_->MoveAsync(page, mem::DeviceKind::kGpu));
  }
  return util::Status::OK();
}

bool Engine::SettlePendingMoves(WorkingLayer& layer) {
  // Settle in-flight prefetch moves BEFORE inspecting residence: the
  // copy-engine worker writes the page's device, and the future is the only
  // synchronization edge between that write and this read. get() — not
  // wait() — so a failed move's Status is observed: the layer stays
  // CPU-resident and recovers through the on-demand path, so the failure is
  // counted rather than propagated. Every prefetch future is settled here
  // and nowhere else, so each failed move is counted exactly once.
  bool any_failed = false;
  for (auto& future : layer.pending_moves) {
    const util::Status status = future.get();
    if (!status.ok()) {
      any_failed = true;
      ++prefetch_move_failures_;
      metric_prefetch_move_failures_->Increment();
      ANGEL_LOG(Warning) << "prefetch move failed: " << status.ToString();
    }
  }
  layer.pending_moves.clear();
  return any_failed;
}

util::Status Engine::MoveWithEviction(int layer_index) {
  for (;;) {
    const util::Status moved =
        allocator_->Move(layers_[layer_index].tensor, mem::DeviceKind::kGpu);
    if (!moved.IsResourceExhausted()) return moved;
    // The tier is full: push another staged layer's working tensor back to
    // the CPU tier (it will be re-fetched at its next use — the on-demand
    // behaviour Algorithm 1's wait-stack creates under memory pressure).
    // Victim order is Belady-style once the planner is trained: farthest
    // predicted next use first, the immediately-next layer last;
    // registration order during the warmup step.
    std::vector<uint64_t> candidates;
    for (size_t l = 0; l < layers_.size(); ++l) {
      if (int(l) == layer_index) continue;
      const WorkingLayer& other = layers_[l];
      if (other.tensor == nullptr || !other.staged_this_step) continue;
      candidates.push_back(l);
    }
    if (planner_.trained()) {
      candidates = planner_.RankEvictionCandidates(candidates);
    }
    bool evicted = false;
    for (const uint64_t l : candidates) {
      WorkingLayer& other = layers_[l];
      SettlePendingMoves(other);
      if (other.tensor->device_index() !=
          static_cast<int>(mem::DeviceKind::kGpu)) {
        continue;
      }
      ANGEL_RETURN_IF_ERROR(
          allocator_->Move(other.tensor, mem::DeviceKind::kCpu));
      evicted = true;
      break;
    }
    if (!evicted) return moved;  // Nothing left to evict: genuine OOM.
  }
}

util::Status Engine::IssueReadyPrefetches() {
  if (schedule_ == nullptr) return util::Status::OK();
  for (size_t l = 0; l < layers_.size(); ++l) {
    WorkingLayer& layer = layers_[l];
    // A layer past its last use this step was released on purpose;
    // re-staging it would only fill fast-tier frames until EndStep.
    if (layer.staged_this_step || layer.issue_trigger < 0 ||
        layer.uses_this_step >= layer.total_uses) {
      continue;
    }
    if (layer.issue_trigger <= current_op_) {
      ANGEL_RETURN_IF_ERROR(IssuePrefetch(static_cast<int>(l)));
    }
  }
  return util::Status::OK();
}

util::Result<std::vector<float>> Engine::UseLayerParams(int layer_index) {
  ANGEL_SPAN("engine", "use_layer_params");
  if (!step_active_) {
    return util::Status::FailedPrecondition("no active step");
  }
  if (layer_index < 0 || layer_index >= int(layers_.size())) {
    return util::Status::InvalidArgument("bad layer index");
  }
  WorkingLayer& layer = layers_[layer_index];
  const bool tracing = schedule_ == nullptr;

  if (tracing) {
    tracer_.BeginOp("use_layer_" + std::to_string(layer_index));
    ANGEL_RETURN_IF_ERROR(tracer_.RecordAccess(layer_index, 2 * layer.count));
    planner_.RecordAccess(static_cast<uint64_t>(layer_index));
    // Measure production costs for the trace (§5: cpu_time = staging the
    // fp16 copy, gpu_time = the tier movement).
    const auto stage_start = std::chrono::steady_clock::now();
    if (!layer.staged_this_step) {
      ANGEL_RETURN_IF_ERROR(StageWorkingTensor(layer_index));
    }
    const auto move_start = std::chrono::steady_clock::now();
    ANGEL_RETURN_IF_ERROR(MoveWithEviction(layer_index));
    const auto move_end = std::chrono::steady_clock::now();
    tracer_.RecordProduceTime(
        layer_index,
        std::chrono::duration<double>(move_start - stage_start).count(),
        std::chrono::duration<double>(move_end - move_start).count());
    layer.total_uses += 1;
  } else {
    // Advance the access-order model past this use first, so eviction
    // ranking inside MoveWithEviction sees distances relative to the
    // *upcoming* accesses.
    planner_.OnUse(static_cast<uint64_t>(layer_index));
    // Whether this use had to block anywhere; decided once, after the final
    // residence check, so a single use is never counted as both a hit and a
    // wait (an eviction pushing the layer back to CPU after its futures
    // resolved used to double-count).
    bool waited = false;
    if (!layer.staged_this_step) {
      // The schedule left this layer CPU-resident (memory pressure):
      // fetch on demand, the wait-stack behaviour of Algorithm 1.
      waited = true;
      ANGEL_RETURN_IF_ERROR(StageWorkingTensor(layer_index));
      ANGEL_RETURN_IF_ERROR(MoveWithEviction(layer_index));
    } else if (!layer.pending_moves.empty()) {
      bool all_ready = true;
      for (auto& future : layer.pending_moves) {
        if (future.wait_for(std::chrono::seconds(0)) !=
            std::future_status::ready) {
          all_ready = false;
        }
      }
      if (SettlePendingMoves(layer)) {
        // A prefetch lost the race for frames; finish synchronously.
        ANGEL_RETURN_IF_ERROR(MoveWithEviction(layer_index));
        all_ready = false;
      }
      if (!all_ready) waited = true;
    }
    // An earlier eviction may have pushed this layer back to the CPU tier.
    if (layer.tensor->device_index() !=
        static_cast<int>(mem::DeviceKind::kGpu)) {
      ANGEL_RETURN_IF_ERROR(MoveWithEviction(layer_index));
      waited = true;
    }
    // Exactly-once accounting: prefetch_hits_ + prefetch_waits_ ==
    // scheduled_uses_ (asserted by the engine test). A use that was staged,
    // settled and still GPU-resident counts as a hit.
    ++scheduled_uses_;
    (waited ? prefetch_waits_ : prefetch_hits_) += 1;
  }

  std::vector<float> params;
  ANGEL_RETURN_IF_ERROR(layer.tensor->ReadFloats(&params));
  layer.uses_this_step += 1;
  current_op_ += 1;

  // Release after the last traced access: the caller holds a copy.
  if (!tracing && layer.uses_this_step >= layer.total_uses) {
    ANGEL_RETURN_IF_ERROR(ReleaseWorkingTensor(layer_index));
  }
  ANGEL_RETURN_IF_ERROR(IssueReadyPrefetches());
  return params;
}

util::Status Engine::StashActivation(
    int layer_index, const std::vector<float>& activations) {
  if (!step_active_) {
    return util::Status::FailedPrecondition("no active step");
  }
  if (layer_index < 0 || layer_index >= int(layers_.size())) {
    return util::Status::InvalidArgument("bad layer index");
  }
  WorkingLayer& layer = layers_[layer_index];
  if (layer.activation_stash != nullptr) {
    return util::Status::AlreadyExists("activation already stashed for layer " +
                                       std::to_string(layer_index));
  }
  // Prefer the fast tier; spill to CPU under pressure (the hierarchical-
  // memory behaviour that frees GPU memory for the working set).
  auto on_gpu = allocator_->Allocate({activations.size()}, DType::kFp16,
                                     mem::DeviceKind::kGpu);
  if (on_gpu.ok()) {
    layer.activation_stash = *on_gpu;
  } else {
    ANGEL_ASSIGN_OR_RETURN(
        layer.activation_stash,
        allocator_->Allocate({activations.size()}, DType::kFp16,
                             mem::DeviceKind::kCpu));
  }
  return layer.activation_stash->WriteFloats(activations);
}

util::Result<std::vector<float>> Engine::FetchActivation(int layer_index) {
  if (layer_index < 0 || layer_index >= int(layers_.size())) {
    return util::Status::InvalidArgument("bad layer index");
  }
  WorkingLayer& layer = layers_[layer_index];
  if (layer.activation_stash == nullptr) {
    return util::Status::NotFound("no stashed activation for layer " +
                                  std::to_string(layer_index));
  }
  std::vector<float> activations;
  ANGEL_RETURN_IF_ERROR(layer.activation_stash->ReadFloats(&activations));
  ANGEL_RETURN_IF_ERROR(allocator_->Release(layer.activation_stash));
  layer.activation_stash = nullptr;
  return activations;
}

util::Status Engine::PushGrads(int layer_index,
                               const std::vector<float>& grads) {
  if (!step_active_) {
    return util::Status::FailedPrecondition("no active step");
  }
  return updater_->OffloadGrads(layer_index, grads);
}

util::Status Engine::ReleaseWorkingTensor(int layer_index) {
  WorkingLayer& layer = layers_[layer_index];
  if (layer.tensor == nullptr) return util::Status::OK();
  SettlePendingMoves(layer);
  ANGEL_RETURN_IF_ERROR(allocator_->Release(layer.tensor));
  layer.tensor = nullptr;
  layer.staged_this_step = false;
  return util::Status::OK();
}

util::Status Engine::BuildScheduleFromTrace() {
  ScheduleInput input;
  input.world_size = 1;
  input.gpu_memory_budget = memory_->capacity_bytes(mem::DeviceKind::kGpu);
  const size_t page_bytes = memory_->page_bytes();

  // One schedule step per traced access, in trace (op) order.
  const auto traces = tracer_.Traces();
  std::vector<std::vector<PageRef>> layer_pages(layers_.size());
  for (size_t l = 0; l < layers_.size(); ++l) {
    uint64_t remaining = 2 * layers_[l].count;  // fp16 bytes.
    size_t k = 0;
    while (remaining > 0) {
      const uint64_t bytes = std::min<uint64_t>(remaining, page_bytes);
      layer_pages[l].push_back({l * 10000 + k, bytes});
      remaining -= bytes;
      ++k;
    }
  }
  // Recover the op -> layer mapping from the op names recorded in trace
  // mode ("use_layer_<index>").
  for (const std::string& name : tracer_.op_names()) {
    const int layer = std::stoi(name.substr(std::string("use_layer_").size()));
    SchedStep step;
    step.param_pages = layer_pages[layer];
    input.steps.push_back(step);
  }

  ANGEL_ASSIGN_OR_RETURN(Schedule schedule, BuildSchedule(input));
  schedule_ = std::make_unique<Schedule>(std::move(schedule));

  // Earliest movement trigger per layer; layers with no movement task stay
  // on demand.
  for (auto& layer : layers_) layer.issue_trigger = -1;
  for (const Task& task : schedule_->tasks) {
    if (task.op != TaskOp::kMoveToGpu) continue;
    const int layer = static_cast<int>(task.page_id / 10000);
    if (layers_[layer].issue_trigger < 0 ||
        task.trigger_id < layers_[layer].issue_trigger) {
      layers_[layer].issue_trigger = task.trigger_id;
    }
  }
  // The warmup trace is now the planner's learned periodic order; from the
  // next step on, MoveWithEviction ranks victims by predicted next use.
  planner_.FinishWarmup();
  return util::Status::OK();
}

util::Status Engine::EndStep() {
  ANGEL_SPAN("engine", "end_step");
  if (!step_active_) {
    return util::Status::FailedPrecondition("no active step");
  }
  copy_engine_->Drain();
  for (size_t l = 0; l < layers_.size(); ++l) {
    ANGEL_RETURN_IF_ERROR(ReleaseWorkingTensor(static_cast<int>(l)));
    if (layers_[l].activation_stash != nullptr) {
      // A stash the caller never fetched (e.g. an aborted backward).
      ANGEL_RETURN_IF_ERROR(
          allocator_->Release(layers_[l].activation_stash));
      layers_[l].activation_stash = nullptr;
    }
  }
  if (schedule_ == nullptr) {
    ANGEL_RETURN_IF_ERROR(BuildScheduleFromTrace());
  }
  if (!options_.lock_free) {
    // Step barrier (DESIGN.md §12.6): every gradient pushed this step is
    // applied and its parameters published before the next step's first
    // FetchParams, exactly as after a serial update pass.
    ANGEL_SPAN("engine", "update_barrier");
    const auto barrier_start = std::chrono::steady_clock::now();
    const util::Status drained = updater_->DrainUpdates();
    metric_update_barrier_us_->Record(static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - barrier_start)
            .count()));
    ANGEL_RETURN_IF_ERROR(drained);
  }
  step_active_ = false;
  steps_completed_ += 1;
  return util::Status::OK();
}

}  // namespace angelptm::core
