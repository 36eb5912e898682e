#include "core/engine.h"

#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "train/dataset.h"
#include "train/kernels.h"
#include "train/mlp.h"
#include "train/transformer.h"
#include "obs/metrics.h"
#include "util/fault_injector.h"
#include "util/random.h"

namespace angelptm::core {
namespace {

EngineOptions SmallEngineOptions(uint64_t gpu_pages = 6) {
  EngineOptions options;
  options.memory.page_bytes = 16 * 1024;
  options.memory.gpu_capacity_bytes = gpu_pages * 16 * 1024;
  options.memory.cpu_capacity_bytes = 16ull << 20;
  options.adam.learning_rate = 3e-3;
  return options;
}

/// Runs `steps` full training steps of a small MLP through the engine;
/// `after_begin`, when set, runs right after each BeginStep.
double TrainThroughEngine(Engine* engine, const train::MlpModel& model,
                          int steps, util::Rng* rng,
                          const std::function<void()>& after_begin = {}) {
  train::SyntheticRegression dataset(16, 32, 4, 99);
  const size_t batch = 16;
  std::vector<float> x, y;
  double loss = 0;
  for (int step = 0; step < steps; ++step) {
    dataset.GenBatch(rng, batch, &x, &y);
    EXPECT_TRUE(engine->BeginStep().ok());
    if (after_begin) after_begin();
    std::vector<train::LayerStash> stash(model.num_layers());
    std::vector<float> acts = x;
    for (int l = 0; l < model.num_layers(); ++l) {
      auto params = engine->UseLayerParams(l);
      EXPECT_TRUE(params.ok()) << params.status();
      std::vector<float> next;
      model.Forward(l, params->data(), acts, batch, &next, &stash[l]);
      acts = std::move(next);
    }
    std::vector<float> grad(acts.size());
    loss = train::MseLoss(acts.data(), y.data(), grad.data(), acts.size());
    for (int l = model.num_layers() - 1; l >= 0; --l) {
      auto params = engine->UseLayerParams(l);
      EXPECT_TRUE(params.ok()) << params.status();
      std::vector<float> grad_in, grad_params;
      model.Backward(l, params->data(), stash[l], grad, batch, &grad_in,
                     &grad_params);
      EXPECT_TRUE(engine->PushGrads(l, grad_params).ok());
      grad = std::move(grad_in);
    }
    EXPECT_TRUE(engine->EndStep().ok());
  }
  return loss;
}

TEST(EngineTest, TrainsEndToEndWithTinyGpuTier) {
  auto engine = Engine::Create(SmallEngineOptions());
  ASSERT_TRUE(engine.ok());
  train::MlpModel model({{16, 64, 64, 4}});
  util::Rng rng(3);
  for (int l = 0; l < model.num_layers(); ++l) {
    ASSERT_TRUE(
        (*engine)->RegisterLayer(model.InitLayerParams(l, &rng)).ok());
  }
  const double final_loss = TrainThroughEngine(engine->get(), model, 120, &rng);
  EXPECT_LT(final_loss, 0.3);
  EXPECT_EQ((*engine)->steps_completed(), 120);
}

TEST(EngineTest, ScheduleBuiltAfterTracedFirstStep) {
  auto engine = Engine::Create(SmallEngineOptions());
  ASSERT_TRUE(engine.ok());
  train::MlpModel model({{16, 32, 4}});
  util::Rng rng(5);
  for (int l = 0; l < model.num_layers(); ++l) {
    ASSERT_TRUE(
        (*engine)->RegisterLayer(model.InitLayerParams(l, &rng)).ok());
  }
  EXPECT_EQ((*engine)->schedule(), nullptr);
  TrainThroughEngine(engine->get(), model, 1, &rng);
  ASSERT_NE((*engine)->schedule(), nullptr);
  // Trace saw 2 accesses per layer (forward + backward) = 4 ops.
  EXPECT_EQ((*engine)->tracer().num_ops(), 4);
  const auto traces = (*engine)->tracer().Traces();
  ASSERT_EQ(traces.size(), 2u);
  EXPECT_EQ(traces[0].first_id, 0);
  EXPECT_EQ(traces[0].end_id, 3);  // Layer 0: first fwd op, last bwd op.
  EXPECT_EQ(traces[1].first_id, 1);
  EXPECT_EQ(traces[1].end_id, 2);
}

TEST(EngineTest, PrefetchesHitAfterWarmup) {
  auto engine = Engine::Create(SmallEngineOptions(/*gpu_pages=*/32));
  ASSERT_TRUE(engine.ok());
  train::MlpModel model({{16, 64, 64, 4}});
  util::Rng rng(7);
  for (int l = 0; l < model.num_layers(); ++l) {
    ASSERT_TRUE(
        (*engine)->RegisterLayer(model.InitLayerParams(l, &rng)).ok());
  }
  TrainThroughEngine(engine->get(), model, 30, &rng);
  // With an ample GPU tier every post-trace access should be a hit.
  EXPECT_GT((*engine)->prefetch_hits() + (*engine)->prefetch_waits(), 0u);
  EXPECT_GT((*engine)->prefetch_hits(), (*engine)->prefetch_waits());
}

TEST(EngineTest, SteadyStateStepStagesEachLayerOnce) {
  // A layer released at its last use is done for the step: staging it again
  // (a fresh fp16 tensor, FetchParams, CPU->GPU moves that EndStep frees
  // unused) only takes fast-tier frames. With room for every layer, each
  // steady-state step moves each layer's pages up exactly once.
  auto engine = Engine::Create(SmallEngineOptions(/*gpu_pages=*/32));
  ASSERT_TRUE(engine.ok());
  train::MlpModel model({{16, 64, 64, 4}});
  util::Rng rng(17);
  const uint64_t page_bytes = (*engine)->memory()->page_bytes();
  uint64_t pages_per_step = 0;
  for (int l = 0; l < model.num_layers(); ++l) {
    const std::vector<float> params = model.InitLayerParams(l, &rng);
    pages_per_step += (2 * params.size() + page_bytes - 1) / page_bytes;
    ASSERT_TRUE((*engine)->RegisterLayer(params).ok());
  }
  TrainThroughEngine(engine->get(), model, 2, &rng);  // Warmup + one step.
  const auto moves_up = [&] {
    return (*engine)
        ->memory()
        ->move_stats(mem::DeviceKind::kCpu, mem::DeviceKind::kGpu)
        .moves;
  };
  const uint64_t before = moves_up();
  const int steps = 4;
  TrainThroughEngine(engine->get(), model, steps, &rng);
  EXPECT_EQ(moves_up() - before, steps * pages_per_step);
}

TEST(EngineTest, GpuTierReturnsToEmptyBetweenSteps) {
  auto engine = Engine::Create(SmallEngineOptions());
  ASSERT_TRUE(engine.ok());
  train::MlpModel model({{16, 32, 4}});
  util::Rng rng(9);
  for (int l = 0; l < model.num_layers(); ++l) {
    ASSERT_TRUE(
        (*engine)->RegisterLayer(model.InitLayerParams(l, &rng)).ok());
  }
  TrainThroughEngine(engine->get(), model, 3, &rng);
  EXPECT_EQ((*engine)->memory()->used_bytes(mem::DeviceKind::kGpu), 0u);
}

TEST(EngineTest, LockFreeModeTrains) {
  EngineOptions options = SmallEngineOptions();
  options.lock_free = true;
  auto engine = Engine::Create(options);
  ASSERT_TRUE(engine.ok());
  train::MlpModel model({{16, 64, 4}});
  util::Rng rng(11);
  for (int l = 0; l < model.num_layers(); ++l) {
    ASSERT_TRUE(
        (*engine)->RegisterLayer(model.InitLayerParams(l, &rng)).ok());
  }
  const double final_loss = TrainThroughEngine(engine->get(), model, 80, &rng);
  ASSERT_TRUE((*engine)->updater()->DrainUpdates().ok());
  EXPECT_LT(final_loss, 1.0);
  EXPECT_GT((*engine)->updater()->Snapshot().updates_applied, 0u);
}

TEST(EngineTest, LockFreeStepStartsWithBoundedBacklog) {
  // Masters on a slow SSD make the updating thread the bottleneck, so each
  // backward pass leaves more batches pending than the step-start bound;
  // BeginStep must wait until only that many remain.
  EngineOptions options = SmallEngineOptions();
  options.lock_free = true;
  options.memory.ssd_capacity_bytes = 16ull << 20;
  options.memory.ssd_bandwidth_bytes_per_sec = 8e6;
  options.memory.ssd_path =
      "/tmp/angelptm_engine_lf_ssd_" + std::to_string(::getpid()) + ".bin";
  options.master_device = mem::DeviceKind::kSsd;
  auto engine = Engine::Create(options);
  ASSERT_TRUE(engine.ok());
  train::MlpModel model({{16, 64, 64, 64, 64, 4}});
  util::Rng rng(31);
  for (int l = 0; l < model.num_layers(); ++l) {
    ASSERT_TRUE(
        (*engine)->RegisterLayer(model.InitLayerParams(l, &rng)).ok());
  }
  LockFreeUpdater* updater = (*engine)->updater();
  uint64_t max_pending_at_end = 0;
  int steps_checked = 0;
  for (int step = 0; step < 4; ++step) {
    TrainThroughEngine(engine->get(), model, 1, &rng, [&] {
      EXPECT_LE(updater->Snapshot().pending_grad_batches,
                LockFreeUpdater::kStepStartPendingBatches)
          << "step " << step;
      ++steps_checked;
    });
    max_pending_at_end =
        std::max(max_pending_at_end, updater->Snapshot().pending_grad_batches);
  }
  EXPECT_EQ(steps_checked, 4);
  EXPECT_GT(max_pending_at_end, LockFreeUpdater::kStepStartPendingBatches);
  ASSERT_TRUE(updater->DrainUpdates().ok());
}

TEST(EngineTest, TransformerTrainsThroughEngine) {
  // The paper's actual model class — causal attention blocks — through the
  // full paged engine path.
  auto engine = Engine::Create(SmallEngineOptions(/*gpu_pages=*/16));
  ASSERT_TRUE(engine.ok());
  train::TransformerConfig config;
  config.seq_len = 4;
  config.d_model = 8;
  config.num_heads = 2;
  config.d_ffn = 16;
  config.num_blocks = 2;
  config.out_dim = 2;
  train::TinyTransformer model(config);
  util::Rng rng(23);
  for (int l = 0; l < model.num_layers(); ++l) {
    ASSERT_TRUE(
        (*engine)->RegisterLayer(model.InitLayerParams(l, &rng)).ok());
  }
  train::SyntheticRegression dataset(model.InputSize(), 16,
                                     model.OutputSize(), 99);
  const size_t batch = 8;
  std::vector<float> x, y;
  double first_loss = 0, loss = 0;
  for (int step = 0; step < 80; ++step) {
    dataset.GenBatch(&rng, batch, &x, &y);
    ASSERT_TRUE((*engine)->BeginStep().ok());
    std::vector<train::LayerStash> stash(model.num_layers());
    std::vector<float> acts = x;
    for (int l = 0; l < model.num_layers(); ++l) {
      auto params = (*engine)->UseLayerParams(l);
      ASSERT_TRUE(params.ok());
      std::vector<float> next;
      model.Forward(l, params->data(), acts, batch, &next, &stash[l]);
      acts = std::move(next);
    }
    std::vector<float> grad(acts.size());
    loss = train::MseLoss(acts.data(), y.data(), grad.data(), acts.size());
    if (step == 0) first_loss = loss;
    for (int l = model.num_layers() - 1; l >= 0; --l) {
      auto params = (*engine)->UseLayerParams(l);
      ASSERT_TRUE(params.ok());
      std::vector<float> grad_in, grad_params;
      model.Backward(l, params->data(), stash[l], grad, batch, &grad_in,
                     &grad_params);
      ASSERT_TRUE((*engine)->PushGrads(l, grad_params).ok());
      grad = std::move(grad_in);
    }
    ASSERT_TRUE((*engine)->EndStep().ok());
  }
  EXPECT_LT(loss, first_loss);
}

TEST(EngineTest, TraceRecordsProduceTimes) {
  auto engine = Engine::Create(SmallEngineOptions());
  ASSERT_TRUE(engine.ok());
  train::MlpModel model({{16, 32, 4}});
  util::Rng rng(31);
  for (int l = 0; l < model.num_layers(); ++l) {
    ASSERT_TRUE(
        (*engine)->RegisterLayer(model.InitLayerParams(l, &rng)).ok());
  }
  TrainThroughEngine(engine->get(), model, 1, &rng);
  for (const auto& trace : (*engine)->tracer().Traces()) {
    EXPECT_GE(trace.cpu_time, 0.0);
    EXPECT_GT(trace.gpu_time, 0.0);  // The tier move took real time.
    EXPECT_GT(trace.bytes, 0u);
  }
}

TEST(EngineTest, GpuCachedMasterStates) {
  // §4.2's dynamic cache in the real engine: master states can live in the
  // fast tier directly, so updates never touch PCIe or the CPU tier.
  EngineOptions options = SmallEngineOptions(/*gpu_pages=*/64);
  options.master_device = mem::DeviceKind::kGpu;
  auto engine = Engine::Create(options);
  ASSERT_TRUE(engine.ok());
  train::MlpModel model({{16, 32, 4}});
  util::Rng rng(33);
  for (int l = 0; l < model.num_layers(); ++l) {
    ASSERT_TRUE(
        (*engine)->RegisterLayer(model.InitLayerParams(l, &rng)).ok());
  }
  const double final_loss = TrainThroughEngine(engine->get(), model, 40, &rng);
  EXPECT_LT(final_loss, 2.0);
  EXPECT_GT((*engine)->updater()->Snapshot().updates_applied, 0u);
}

TEST(EngineTest, SsdMasterStatesThroughEngine) {
  EngineOptions options = SmallEngineOptions();
  options.memory.ssd_capacity_bytes = 16ull << 20;
  options.memory.ssd_path =
      "/tmp/angelptm_engine_ssd_" + std::to_string(::getpid()) + ".bin";
  options.master_device = mem::DeviceKind::kSsd;
  auto engine = Engine::Create(options);
  ASSERT_TRUE(engine.ok());
  train::MlpModel model({{16, 32, 4}});
  util::Rng rng(29);
  for (int l = 0; l < model.num_layers(); ++l) {
    ASSERT_TRUE(
        (*engine)->RegisterLayer(model.InitLayerParams(l, &rng)).ok());
  }
  TrainThroughEngine(engine->get(), model, 10, &rng);
  EXPECT_GT((*engine)->memory()->ssd()->Snapshot().bytes_written, 0u);
  EXPECT_GT((*engine)->memory()->ssd()->Snapshot().bytes_read, 0u);
}

TEST(EngineTest, ProtocolErrors) {
  auto engine = Engine::Create(SmallEngineOptions());
  ASSERT_TRUE(engine.ok());
  // No layers yet.
  EXPECT_EQ((*engine)->BeginStep().code(),
            util::StatusCode::kFailedPrecondition);
  ASSERT_TRUE((*engine)->RegisterLayer({1.0f, 2.0f}).ok());
  // Use outside a step.
  EXPECT_EQ((*engine)->UseLayerParams(0).status().code(),
            util::StatusCode::kFailedPrecondition);
  EXPECT_EQ((*engine)->EndStep().code(),
            util::StatusCode::kFailedPrecondition);
  ASSERT_TRUE((*engine)->BeginStep().ok());
  // Double begin.
  EXPECT_EQ((*engine)->BeginStep().code(),
            util::StatusCode::kFailedPrecondition);
  EXPECT_TRUE(
      (*engine)->UseLayerParams(7).status().IsInvalidArgument());
  ASSERT_TRUE((*engine)->UseLayerParams(0).ok());
  ASSERT_TRUE((*engine)->EndStep().ok());
  // Registration after training started.
  EXPECT_EQ((*engine)->RegisterLayer({1.0f}).status().code(),
            util::StatusCode::kFailedPrecondition);
}

TEST(EngineTest, ActivationStashRoundTripsAndSpills) {
  // GPU tier of 2 pages: activations can't all stay on the fast tier, so
  // stashes must spill to the CPU tier and still round-trip (within fp16
  // precision — activations are fp16 per Table 1).
  EngineOptions options = SmallEngineOptions(/*gpu_pages=*/2);
  auto engine = Engine::Create(options);
  ASSERT_TRUE(engine.ok());
  ASSERT_TRUE((*engine)->RegisterLayer({1.0f, 2.0f}).ok());
  ASSERT_TRUE((*engine)->BeginStep().ok());

  std::vector<float> big(20000);
  for (size_t i = 0; i < big.size(); ++i) big[i] = float(i % 512) * 0.25f;
  ASSERT_TRUE((*engine)->StashActivation(0, big).ok());
  // Double-stash rejected.
  EXPECT_EQ((*engine)->StashActivation(0, big).code(),
            util::StatusCode::kAlreadyExists);

  auto fetched = (*engine)->FetchActivation(0);
  ASSERT_TRUE(fetched.ok());
  ASSERT_EQ(fetched->size(), big.size());
  for (size_t i = 0; i < big.size(); i += 97) {
    EXPECT_NEAR((*fetched)[i], big[i], 0.1f) << i;  // fp16 rounding.
  }
  // Fetch again: gone.
  EXPECT_TRUE((*engine)->FetchActivation(0).status().IsNotFound());
  ASSERT_TRUE((*engine)->EndStep().ok());
}

TEST(EngineTest, UnfetchedStashReleasedAtStepEnd) {
  auto engine = Engine::Create(SmallEngineOptions());
  ASSERT_TRUE(engine.ok());
  ASSERT_TRUE((*engine)->RegisterLayer({1.0f}).ok());
  ASSERT_TRUE((*engine)->BeginStep().ok());
  ASSERT_TRUE(
      (*engine)->StashActivation(0, std::vector<float>(64, 1.0f)).ok());
  ASSERT_TRUE((*engine)->EndStep().ok());
  EXPECT_EQ((*engine)->memory()->used_bytes(mem::DeviceKind::kGpu), 0u);
  ASSERT_TRUE((*engine)->BeginStep().ok());
  EXPECT_TRUE((*engine)->FetchActivation(0).status().IsNotFound());
  ASSERT_TRUE((*engine)->EndStep().ok());
}

TEST(EngineTest, TrainsWithEngineManagedActivations) {
  // Full flow where the caller keeps NO activations itself: boundary
  // activations go through StashActivation/FetchActivation and interior
  // activations are recomputed in backward (the §4.2 recompute flow).
  auto engine = Engine::Create(SmallEngineOptions(/*gpu_pages=*/8));
  ASSERT_TRUE(engine.ok());
  train::MlpModel model({{16, 64, 64, 4}});
  util::Rng rng(17);
  for (int l = 0; l < model.num_layers(); ++l) {
    ASSERT_TRUE(
        (*engine)->RegisterLayer(model.InitLayerParams(l, &rng)).ok());
  }
  train::SyntheticRegression dataset(16, 32, 4, 99);
  const size_t batch = 16;
  std::vector<float> x, y;
  double loss = 0;
  for (int step = 0; step < 100; ++step) {
    dataset.GenBatch(&rng, batch, &x, &y);
    ASSERT_TRUE((*engine)->BeginStep().ok());
    // Forward: stash only each layer's INPUT (the boundary), drop the rest.
    std::vector<float> acts = x;
    for (int l = 0; l < model.num_layers(); ++l) {
      ASSERT_TRUE((*engine)->StashActivation(l, acts).ok());
      auto params = (*engine)->UseLayerParams(l);
      ASSERT_TRUE(params.ok());
      std::vector<float> next;
      model.Forward(l, params->data(), acts, batch, &next, nullptr);
      acts = std::move(next);
    }
    std::vector<float> grad(acts.size());
    loss = train::MseLoss(acts.data(), y.data(), grad.data(), acts.size());
    // Backward: fetch the boundary, recompute the layer interior, then
    // differentiate.
    for (int l = model.num_layers() - 1; l >= 0; --l) {
      auto boundary = (*engine)->FetchActivation(l);
      ASSERT_TRUE(boundary.ok());
      auto params = (*engine)->UseLayerParams(l);
      ASSERT_TRUE(params.ok());
      train::LayerStash stash;
      std::vector<float> recomputed;
      model.Forward(l, params->data(), *boundary, batch, &recomputed,
                    &stash);  // Recompute.
      std::vector<float> grad_in, grad_params;
      model.Backward(l, params->data(), stash, grad, batch, &grad_in,
                     &grad_params);
      ASSERT_TRUE((*engine)->PushGrads(l, grad_params).ok());
      grad = std::move(grad_in);
    }
    ASSERT_TRUE((*engine)->EndStep().ok());
  }
  EXPECT_LT(loss, 0.5);  // Converges despite fp16 boundary stashes.
}

TEST(EngineTest, HitWaitAccountingCoversEveryScheduledUseExactlyOnce) {
  // Tiny GPU tier forces mid-step evictions — the configuration that used
  // to double-count a use as both hit and wait when an eviction pushed a
  // settled layer back to CPU.
  EngineOptions options;
  options.memory.page_bytes = 4 * 1024;
  options.memory.gpu_capacity_bytes = 3 * 4 * 1024;
  options.memory.cpu_capacity_bytes = 16ull << 20;
  options.adam.learning_rate = 3e-3;
  auto engine = Engine::Create(options);
  ASSERT_TRUE(engine.ok());
  train::MlpModel model({{16, 48, 48, 4}});
  util::Rng rng(41);
  for (int l = 0; l < model.num_layers(); ++l) {
    ASSERT_TRUE(
        (*engine)->RegisterLayer(model.InitLayerParams(l, &rng)).ok());
  }
  const int steps = 25;
  TrainThroughEngine(engine->get(), model, steps, &rng);
  // Each post-warmup step uses every layer twice (forward + backward).
  const uint64_t expected_uses =
      uint64_t(steps - 1) * 2 * model.num_layers();
  EXPECT_EQ((*engine)->scheduled_uses(), expected_uses);
  EXPECT_EQ((*engine)->prefetch_hits() + (*engine)->prefetch_waits(),
            expected_uses);
}

TEST(EngineTest, AmpleGpuAccountingIsAllHits) {
  // With room for everything, the invariant still holds and every
  // scheduled use resolves as a hit (the staged-settled-resident case that
  // was previously left uncounted).
  auto engine = Engine::Create(SmallEngineOptions(/*gpu_pages=*/32));
  ASSERT_TRUE(engine.ok());
  train::MlpModel model({{16, 64, 64, 4}});
  util::Rng rng(43);
  for (int l = 0; l < model.num_layers(); ++l) {
    ASSERT_TRUE(
        (*engine)->RegisterLayer(model.InitLayerParams(l, &rng)).ok());
  }
  TrainThroughEngine(engine->get(), model, 10, &rng);
  EXPECT_EQ((*engine)->prefetch_hits() + (*engine)->prefetch_waits(),
            (*engine)->scheduled_uses());
  EXPECT_GT((*engine)->prefetch_hits(), (*engine)->prefetch_waits());
}

TEST(EngineTest, PlannerLearnsTheSawtoothLayerOrder) {
  auto engine = Engine::Create(SmallEngineOptions());
  ASSERT_TRUE(engine.ok());
  train::MlpModel model({{16, 32, 32, 4}});
  util::Rng rng(47);
  for (int l = 0; l < model.num_layers(); ++l) {
    ASSERT_TRUE(
        (*engine)->RegisterLayer(model.InitLayerParams(l, &rng)).ok());
  }
  EXPECT_FALSE((*engine)->planner().trained());
  TrainThroughEngine(engine->get(), model, 3, &rng);
  const auto& planner = (*engine)->planner();
  ASSERT_TRUE(planner.trained());
  // Forward 0..L-1 then backward L-1..0 — and the steady-state steps replay
  // it exactly (no mispredicts on the repeating schedule).
  const std::vector<uint64_t> expected = {0, 1, 2, 2, 1, 0};
  EXPECT_EQ(planner.learned_order(), expected);
  EXPECT_EQ(planner.Snapshot().mispredicts, 0u);
  EXPECT_EQ(planner.Snapshot().predicted_hits, 2 * expected.size());
}

TEST(EngineTest, FailedPrefetchMovesAreCountedNotLost) {
  // Regression for the dropped-Status bug: MoveWithEviction used to wait()
  // on a victim's in-flight futures and discard their errors. Arm the copy
  // engine's failpoint after warmup on an eviction-heavy config: prefetch
  // moves fail, the engine must observe and count every failure, and
  // training must still complete through the synchronous fallback.
  util::FaultInjector::Instance().Reset();
  EngineOptions options;
  options.memory.page_bytes = 4 * 1024;
  options.memory.gpu_capacity_bytes = 3 * 4 * 1024;
  options.memory.cpu_capacity_bytes = 16ull << 20;
  options.adam.learning_rate = 3e-3;
  auto engine = Engine::Create(options);
  ASSERT_TRUE(engine.ok());
  train::MlpModel model({{16, 48, 48, 4}});
  util::Rng rng(53);
  for (int l = 0; l < model.num_layers(); ++l) {
    ASSERT_TRUE(
        (*engine)->RegisterLayer(model.InitLayerParams(l, &rng)).ok());
  }
  // Warmup + a few clean steps first so the schedule and planner exist. A
  // loaded machine can see benign warmup failures (prefetches racing
  // evictions on the tiny GPU tier hit "gpu tier full"), so take the count
  // as a baseline rather than asserting zero.
  TrainThroughEngine(engine->get(), model, 3, &rng);
  const uint64_t warmup_failures = (*engine)->prefetch_move_failures();

  util::FaultRule rule;
  rule.permanent = true;
  util::FaultInjector::Instance().Arm("copy_engine.move", rule);
  TrainThroughEngine(engine->get(), model, 5, &rng);
  util::FaultInjector::Instance().Reset();

  // Every failed async move was observed (counted), none silently dropped,
  // and the accounting invariant survived the error path.
  EXPECT_GT((*engine)->prefetch_move_failures(), warmup_failures);
  EXPECT_EQ((*engine)->prefetch_hits() + (*engine)->prefetch_waits(),
            (*engine)->scheduled_uses());
  EXPECT_EQ((*engine)->steps_completed(), 8);

  // And the engine recovers fully once the fault clears.
  const double loss = TrainThroughEngine(engine->get(), model, 30, &rng);
  EXPECT_LT(loss, 1.5);
}

TEST(EngineTest, ModelLargerThanGpuStillTrainsViaPaging) {
  // Each layer is ~8 KiB (fp16); the GPU tier holds only 2 pages of 4 KiB,
  // so layers must rotate through it.
  EngineOptions options;
  options.memory.page_bytes = 4 * 1024;
  options.memory.gpu_capacity_bytes = 3 * 4 * 1024;
  options.memory.cpu_capacity_bytes = 16ull << 20;
  options.adam.learning_rate = 3e-3;
  auto engine = Engine::Create(options);
  ASSERT_TRUE(engine.ok());
  train::MlpModel model({{16, 48, 48, 4}});
  util::Rng rng(13);
  for (int l = 0; l < model.num_layers(); ++l) {
    ASSERT_TRUE(
        (*engine)->RegisterLayer(model.InitLayerParams(l, &rng)).ok());
  }
  const double final_loss = TrainThroughEngine(engine->get(), model, 40, &rng);
  EXPECT_LT(final_loss, 1.5);
  // The schedule could not keep everything resident.
  const mem::MoveStats up = (*engine)->memory()->move_stats(
      mem::DeviceKind::kCpu, mem::DeviceKind::kGpu);
  EXPECT_GT(up.moves, 40u);
}

TEST(EngineTest, SyncStepsMatchSerialUpdatePassBitwise) {
  // Synchronous mode updates on the updater's threads during backward and
  // waits at EndStep's barrier. The result must be bit for bit what the
  // serial path produces: the same model and batches driven straight
  // through an updater that applies each step with one inline UpdateOnce.
  EngineOptions options = SmallEngineOptions();
  options.memory.ssd_capacity_bytes = 16ull << 20;
  options.memory.ssd_path =
      "/tmp/angelptm_engine_parity_" + std::to_string(::getpid()) + ".bin";
  options.master_device = mem::DeviceKind::kSsd;
  train::MlpModel model({{16, 64, 64, 4}});
  const int steps = 12;
  obs::Histogram* barrier_us =
      obs::Registry::Instance().GetHistogram("engine/update_barrier_us");
  const uint64_t barriers_before = barrier_us->Snapshot().count;

  auto engine = Engine::Create(options);
  ASSERT_TRUE(engine.ok());
  util::Rng engine_rng(41);
  for (int l = 0; l < model.num_layers(); ++l) {
    ASSERT_TRUE(
        (*engine)->RegisterLayer(model.InitLayerParams(l, &engine_rng)).ok());
  }
  const double engine_loss =
      TrainThroughEngine(engine->get(), model, steps, &engine_rng);

  mem::HierarchicalMemoryOptions memory_options = options.memory;
  memory_options.ssd_path += ".serial";
  mem::HierarchicalMemory memory(memory_options);
  Allocator allocator(&memory);
  LockFreeUpdater::Options updater_options;
  updater_options.optimizer = ResolveLegacyAdam(options.optimizer, options.adam);
  updater_options.master_device = options.master_device;
  LockFreeUpdater serial(&allocator, updater_options);
  util::Rng serial_rng(41);
  for (int l = 0; l < model.num_layers(); ++l) {
    ASSERT_TRUE(serial.AddLayer(model.InitLayerParams(l, &serial_rng)).ok());
  }
  train::SyntheticRegression dataset(16, 32, 4, 99);
  const size_t batch = 16;
  std::vector<float> x, y;
  double serial_loss = 0;
  for (int step = 0; step < steps; ++step) {
    dataset.GenBatch(&serial_rng, batch, &x, &y);
    std::vector<std::vector<float>> params(size_t(model.num_layers()));
    std::vector<train::LayerStash> stash(size_t(model.num_layers()));
    std::vector<float> acts = x;
    for (int l = 0; l < model.num_layers(); ++l) {
      ASSERT_TRUE(serial.FetchParams(l, &params[size_t(l)]).ok());
      std::vector<float> next;
      model.Forward(l, params[size_t(l)].data(), acts, batch, &next,
                    &stash[size_t(l)]);
      acts = std::move(next);
    }
    std::vector<float> grad(acts.size());
    serial_loss =
        train::MseLoss(acts.data(), y.data(), grad.data(), acts.size());
    for (int l = model.num_layers() - 1; l >= 0; --l) {
      std::vector<float> grad_in, grad_params;
      model.Backward(l, params[size_t(l)].data(), stash[size_t(l)], grad,
                     batch, &grad_in, &grad_params);
      ASSERT_TRUE(serial.OffloadGrads(l, grad_params).ok());
      grad = std::move(grad_in);
    }
    ASSERT_TRUE(serial.UpdateOnce().ok());
  }

  EXPECT_EQ(std::memcmp(&engine_loss, &serial_loss, sizeof(double)), 0)
      << engine_loss << " vs " << serial_loss;
  LockFreeUpdater* updater = (*engine)->updater();
  for (int l = 0; l < model.num_layers(); ++l) {
    std::vector<float> want, got;
    ASSERT_TRUE(serial.ReadMasterParams(l, &want).ok());
    ASSERT_TRUE(updater->ReadMasterParams(l, &got).ok());
    ASSERT_EQ(want.size(), got.size());
    EXPECT_EQ(std::memcmp(want.data(), got.data(), want.size() * sizeof(float)),
              0)
        << "layer " << l;
  }
  // The updates ran on the threads, one batch per layer per step, and the
  // barrier left nothing pending.
  EXPECT_TRUE(updater->running());
  const LockFreeUpdater::Stats stats = updater->Snapshot();
  EXPECT_EQ(stats.updates_applied, uint64_t(steps * model.num_layers()));
  EXPECT_EQ(stats.pending_grad_batches, 0u);
  EXPECT_EQ(stats.staleness.Max(), 1u);
  EXPECT_EQ(barrier_us->Snapshot().count - barriers_before, uint64_t(steps));
}

}  // namespace
}  // namespace angelptm::core
