#include "train/engine_trainer.h"

#include <unistd.h>

#include <string>

#include <gtest/gtest.h>

#include "core/allocator.h"
#include "core/lockfree_updater.h"
#include "train/kernels.h"
#include "train/mlp.h"
#include "train/transformer.h"
#include "util/fault_injector.h"

namespace angelptm::train {
namespace {

EngineTrainerOptions BaseOptions(uint64_t gpu_pages = 16) {
  EngineTrainerOptions options;
  options.engine.memory.page_bytes = 16 * 1024;
  options.engine.memory.gpu_capacity_bytes = gpu_pages * 16 * 1024;
  options.engine.memory.cpu_capacity_bytes = 32ull << 20;
  options.engine.optimizer.learning_rate = 3e-3;
  options.batch_size = 32;
  options.seed = 7;
  return options;
}

/// The classical-flow configuration: 64 KiB pages, an SSD tier for the
/// masters when asked for, and exact host activation stashes, so only the
/// update path differs between runs.
EngineTrainerOptions HostStashOptions(const char* tag) {
  EngineTrainerOptions options = BaseOptions();
  mem::HierarchicalMemoryOptions& memory = options.engine.memory;
  memory.page_bytes = 64 * 1024;
  memory.gpu_capacity_bytes = 8ull << 20;
  memory.cpu_capacity_bytes = 64ull << 20;
  memory.ssd_capacity_bytes = 64ull << 20;
  memory.ssd_path = std::string("/tmp/angelptm_engine_trainer_test_") + tag +
                    "_" + std::to_string(::getpid()) + ".bin";
  options.offload_activations = false;
  return options;
}

const MlpModel& TestModel() {
  static const MlpModel* model = new MlpModel({{16, 64, 64, 4}});
  return *model;
}

/// Keeps the fault registry clean around every case (the SSD-failure case
/// arms it).
class EngineTrainerTest : public ::testing::Test {
 protected:
  void SetUp() override { util::FaultInjector::Instance().Reset(); }
  void TearDown() override { util::FaultInjector::Instance().Reset(); }
};

TEST_F(EngineTrainerTest, ConvergesWithActivationOffloading) {
  const MlpModel model({{16, 64, 64, 4}});
  EngineTrainer trainer(&model, BaseOptions());
  ASSERT_TRUE(trainer.Init().ok());
  SyntheticRegression dataset(16, 32, 4, 99);
  auto report = trainer.Train(dataset, 250);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_LT(report->validation_loss, 0.25);
  // The engine really scheduled: a schedule exists and prefetches hit.
  ASSERT_NE(trainer.engine()->schedule(), nullptr);
  EXPECT_GT(trainer.engine()->prefetch_hits(), 0u);
}

TEST_F(EngineTrainerTest, MatchesDirectUpdaterLoopExactly) {
  // The engine path reads the same fp16 buffers and offloads the same
  // gradients as a loop driving the updater directly (FetchParams, one
  // serial UpdateOnce pass per step): with identical seeds and batches,
  // the synchronous results must be bit-identical (fp16 staging is the
  // identity and the threaded updates behind the step barrier equal the
  // serial pass). Activation offloading is off so backward sees the exact
  // forward stash in both.
  SyntheticRegression dataset(16, 32, 4, 99);
  const MlpModel model({{16, 32, 4}});
  const int steps = 60;

  EngineTrainerOptions engine_options = BaseOptions();
  engine_options.offload_activations = false;
  EngineTrainer engine_trainer(&model, engine_options);
  ASSERT_TRUE(engine_trainer.Init().ok());
  auto engine_report = engine_trainer.Train(dataset, steps);
  ASSERT_TRUE(engine_report.ok());

  mem::HierarchicalMemoryOptions memory_options;
  memory_options.page_bytes = 16 * 1024;
  memory_options.gpu_capacity_bytes = 4ull << 20;
  memory_options.cpu_capacity_bytes = 32ull << 20;
  mem::HierarchicalMemory memory(memory_options);
  core::Allocator allocator(&memory);
  core::LockFreeUpdater::Options updater_options;
  updater_options.optimizer = engine_options.engine.optimizer;
  core::LockFreeUpdater updater(&allocator, updater_options);
  util::Rng rng(engine_options.seed);
  for (int l = 0; l < model.num_layers(); ++l) {
    ASSERT_TRUE(updater.AddLayer(model.InitLayerParams(l, &rng)).ok());
  }
  const size_t batch = engine_options.batch_size;
  const auto forward = [&](bool masters, const std::vector<float>& x,
                           std::vector<LayerStash>* stash) {
    std::vector<float> acts = x;
    for (int l = 0; l < model.num_layers(); ++l) {
      std::vector<float> params;
      EXPECT_TRUE((masters ? updater.ReadMasterParams(l, &params)
                           : updater.FetchParams(l, &params))
                      .ok());
      std::vector<float> next;
      model.Forward(l, params.data(), acts, batch, &next,
                    stash == nullptr ? nullptr : &(*stash)[size_t(l)]);
      acts = std::move(next);
    }
    return acts;
  };
  std::vector<double> direct_losses;
  std::vector<float> x, y;
  for (int s = 0; s < steps; ++s) {
    dataset.GenBatch(&rng, batch, &x, &y);
    std::vector<LayerStash> stash(size_t(model.num_layers()));
    const std::vector<float> out = forward(false, x, &stash);
    std::vector<float> grad(out.size());
    direct_losses.push_back(
        MseLoss(out.data(), y.data(), grad.data(), out.size()));
    for (int l = model.num_layers() - 1; l >= 0; --l) {
      std::vector<float> params, grad_in, grad_params;
      ASSERT_TRUE(updater.FetchParams(l, &params).ok());
      model.Backward(l, params.data(), stash[size_t(l)], grad, batch,
                     &grad_in, &grad_params);
      ASSERT_TRUE(updater.OffloadGrads(l, grad_params).ok());
      grad = std::move(grad_in);
    }
    ASSERT_TRUE(updater.UpdateOnce().ok());
  }
  util::Rng validation_rng(engine_options.seed ^ 0x5EEDF00Dull);
  double direct_validation = 0.0;
  for (int i = 0; i < 8; ++i) {
    dataset.GenBatch(&validation_rng, batch, &x, &y);
    const std::vector<float> out = forward(true, x, nullptr);
    std::vector<float> grad(out.size());
    direct_validation += MseLoss(out.data(), y.data(), grad.data(), out.size());
  }
  direct_validation /= 8;

  ASSERT_EQ(engine_report->losses.size(), direct_losses.size());
  for (size_t i = 0; i < engine_report->losses.size(); ++i) {
    EXPECT_EQ(engine_report->losses[i], direct_losses[i]) << i;
  }
  EXPECT_EQ(engine_report->validation_loss, direct_validation);
}

TEST_F(EngineTrainerTest, OffloadedActivationsStayCloseToUnoffloaded) {
  // fp16 boundary stashes + recompute vs exact host stash: small, bounded
  // quality difference.
  SyntheticRegression dataset(16, 32, 4, 99);
  const MlpModel model({{16, 64, 4}});
  double offloaded = 0, exact = 0;
  for (const bool offload : {true, false}) {
    EngineTrainerOptions options = BaseOptions();
    options.offload_activations = offload;
    EngineTrainer trainer(&model, options);
    ASSERT_TRUE(trainer.Init().ok());
    auto report = trainer.Train(dataset, 200);
    ASSERT_TRUE(report.ok());
    (offload ? offloaded : exact) = report->validation_loss;
  }
  EXPECT_LT(offloaded, 0.3);
  EXPECT_LT(offloaded, exact * 5 + 0.05);
}

TEST_F(EngineTrainerTest, LockFreeEngineTraining) {
  const MlpModel model({{16, 64, 4}});
  EngineTrainerOptions options = BaseOptions();
  options.engine.lock_free = true;
  EngineTrainer trainer(&model, options);
  ASSERT_TRUE(trainer.Init().ok());
  SyntheticRegression dataset(16, 32, 4, 99);
  auto report = trainer.Train(dataset, 150);
  ASSERT_TRUE(report.ok());
  EXPECT_LT(report->validation_loss, 0.6);
  EXPECT_GT(report->telemetry.updater.updates_applied, 0u);
}

TEST_F(EngineTrainerTest, TransformerThroughFullStack) {
  TransformerConfig config;
  config.seq_len = 4;
  config.d_model = 8;
  config.num_heads = 2;
  config.d_ffn = 16;
  config.num_blocks = 2;
  config.out_dim = 2;
  const TinyTransformer model(config);
  EngineTrainerOptions options = BaseOptions();
  options.batch_size = 8;
  EngineTrainer trainer(&model, options);
  ASSERT_TRUE(trainer.Init().ok());
  SyntheticRegression dataset(model.InputSize(), 16, model.OutputSize(), 99);
  auto report = trainer.Train(dataset, 100);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_LT(report->final_train_loss, report->losses.front());
}

TEST_F(EngineTrainerTest, TrainBeforeInitFails) {
  const MlpModel model({{4, 4}});
  EngineTrainer trainer(&model, BaseOptions());
  SyntheticRegression dataset(4, 8, 4, 99);
  EXPECT_EQ(trainer.Train(dataset, 1).status().code(),
            util::StatusCode::kFailedPrecondition);
}

TEST_F(EngineTrainerTest, SynchronousTrainingConverges) {
  EngineTrainer trainer(&TestModel(), HostStashOptions("sync"));
  ASSERT_TRUE(trainer.Init().ok());
  SyntheticRegression dataset(16, 32, 4, 99);
  auto report = trainer.Train(dataset, 300);
  ASSERT_TRUE(report.ok());
  EXPECT_LT(report->final_train_loss, report->losses.front() / 5);
  EXPECT_LT(report->validation_loss, 0.2);
  // One per layer per step.
  EXPECT_EQ(report->telemetry.updater.updates_applied, 3u * 300);
  EXPECT_EQ(report->telemetry.max_pending_batches, 0u);
}

TEST_F(EngineTrainerTest, LockFreeMatchesSynchronousLoss) {
  // The Table 6 convergence claim: asynchronous staleness does not harm
  // final quality materially.
  SyntheticRegression dataset(16, 32, 4, 99);
  double sync_loss, lockfree_loss;
  {
    EngineTrainer trainer(&TestModel(), HostStashOptions("cmp_sync"));
    ASSERT_TRUE(trainer.Init().ok());
    auto report = trainer.Train(dataset, 400);
    ASSERT_TRUE(report.ok());
    sync_loss = report->validation_loss;
  }
  {
    EngineTrainerOptions options = HostStashOptions("cmp_lf");
    options.engine.lock_free = true;
    EngineTrainer trainer(&TestModel(), options);
    ASSERT_TRUE(trainer.Init().ok());
    auto report = trainer.Train(dataset, 400);
    ASSERT_TRUE(report.ok());
    lockfree_loss = report->validation_loss;
    EXPECT_GT(report->telemetry.updater.updates_applied, 0u);
  }
  EXPECT_LT(lockfree_loss, 0.25);
  // Within a factor of ~4 of the synchronous loss (both near-converged).
  EXPECT_LT(lockfree_loss, sync_loss * 4 + 0.05);
}

TEST_F(EngineTrainerTest, LockFreeObservesStaleness) {
  EngineTrainerOptions options = HostStashOptions("stale");
  options.engine.lock_free = true;
  EngineTrainer trainer(&TestModel(), options);
  ASSERT_TRUE(trainer.Init().ok());
  SyntheticRegression dataset(16, 32, 4, 99);
  auto report = trainer.Train(dataset, 200);
  ASSERT_TRUE(report.ok());
  // The compute loop runs ahead of the updater at least sometimes.
  EXPECT_GT(report->telemetry.max_pending_batches, 0u);
  // Drained at the end: everything applied.
  EXPECT_EQ(trainer.engine()->updater()->Snapshot().pending_grad_batches, 0u);
}

TEST_F(EngineTrainerTest, SsdMasterStatesTrainForReal) {
  // fp32 master states round-trip through the file-backed SSD tier on
  // every update (§6.5's extreme-scale mode, unthrottled here).
  EngineTrainerOptions options = HostStashOptions("ssd");
  options.engine.master_device = mem::DeviceKind::kSsd;
  EngineTrainer trainer(&TestModel(), options);
  ASSERT_TRUE(trainer.Init().ok());
  SyntheticRegression dataset(16, 32, 4, 99);
  auto report = trainer.Train(dataset, 150);
  ASSERT_TRUE(report.ok());
  EXPECT_LT(report->final_train_loss, report->losses.front());
  // Real bytes hit the disk.
  mem::SsdTier* ssd = trainer.engine()->memory()->ssd();
  EXPECT_GT(ssd->Snapshot().bytes_written, 0u);
  EXPECT_GT(ssd->Snapshot().bytes_read, 0u);
  // The report carries the same telemetry without poking getters.
  EXPECT_GT(report->telemetry.ssd.bytes_written, 0u);
  EXPECT_TRUE(report->telemetry.has_ssd);
}

TEST_F(EngineTrainerTest, DeterministicAcrossRuns) {
  SyntheticRegression dataset(16, 32, 4, 99);
  double first = 0, second = 0;
  for (int run = 0; run < 2; ++run) {
    EngineTrainer trainer(&TestModel(),
                          HostStashOptions(run == 0 ? "det0" : "det1"));
    ASSERT_TRUE(trainer.Init().ok());
    auto report = trainer.Train(dataset, 50);
    ASSERT_TRUE(report.ok());
    (run == 0 ? first : second) = report->final_train_loss;
  }
  EXPECT_EQ(first, second);  // Synchronous mode is exactly reproducible.
}

TEST_F(EngineTrainerTest, GradAccumulationConverges) {
  EngineTrainerOptions options = HostStashOptions("accum");
  options.grad_accumulation = 4;
  EngineTrainer trainer(&TestModel(), options);
  ASSERT_TRUE(trainer.Init().ok());
  SyntheticRegression dataset(16, 32, 4, 99);
  auto report = trainer.Train(dataset, 400);
  ASSERT_TRUE(report.ok());
  EXPECT_LT(report->validation_loss, 0.3);
  // One optimizer pass per 4 steps (3 layers each).
  EXPECT_EQ(report->telemetry.updater.updates_applied, 3u * 100);
}

TEST_F(EngineTrainerTest, GradAccumulationFlushesAtTheEndOfTrain) {
  // A Train call that ends mid-window still applies the partial window.
  EngineTrainerOptions options = HostStashOptions("accum_tail");
  options.grad_accumulation = 4;
  EngineTrainer trainer(&TestModel(), options);
  ASSERT_TRUE(trainer.Init().ok());
  SyntheticRegression dataset(16, 32, 4, 99);
  auto report = trainer.Train(dataset, 6);
  ASSERT_TRUE(report.ok());
  // Steps 1-4 form one window; steps 5-6 flush as the range ends.
  EXPECT_EQ(report->telemetry.updater.updates_applied, 3u * 2);
  EXPECT_EQ(report->telemetry.updater.grad_batches_applied, 3u * 2);
}

TEST_F(EngineTrainerTest, GradAccumulationWithLockFreeIsRejected) {
  EngineTrainerOptions options = HostStashOptions("accum_lf");
  options.grad_accumulation = 4;
  options.engine.lock_free = true;
  EngineTrainer trainer(&TestModel(), options);
  EXPECT_EQ(trainer.Init().code(), util::StatusCode::kInvalidArgument);
}

TEST_F(EngineTrainerTest, Bf16ComputeConvergesLikeFp32) {
  // §6.1: models train with bf16 compute over fp32 master states. Rounding
  // every boundary through bfloat16 must not break convergence.
  SyntheticRegression dataset(16, 32, 4, 99);
  double fp32_loss = 0, bf16_loss = 0;
  for (const ComputePrecision precision :
       {ComputePrecision::kFp32, ComputePrecision::kBf16}) {
    EngineTrainerOptions options = HostStashOptions(
        precision == ComputePrecision::kFp32 ? "fp32" : "bf16");
    options.compute_precision = precision;
    EngineTrainer trainer(&TestModel(), options);
    ASSERT_TRUE(trainer.Init().ok());
    auto report = trainer.Train(dataset, 300);
    ASSERT_TRUE(report.ok());
    (precision == ComputePrecision::kFp32 ? fp32_loss : bf16_loss) =
        report->validation_loss;
  }
  EXPECT_LT(bf16_loss, 0.25);
  // bf16 result differs (it really rounded) but stays in the same band.
  EXPECT_NE(bf16_loss, fp32_loss);
  EXPECT_LT(bf16_loss, fp32_loss * 5 + 0.05);
}

/// End-to-end acceptance for the failure-propagation work: a permanently
/// failing SSD write must turn into a Train() error within the drain
/// deadline, never a hang or a silently-diverging run.
TEST_F(EngineTrainerTest, SurfacesSsdWriteFailure) {
  EngineTrainerOptions options = HostStashOptions("fault");
  options.engine.lock_free = true;
  options.engine.master_device = mem::DeviceKind::kSsd;
  options.drain_deadline_ms = 5000;
  EngineTrainer trainer(&TestModel(), options);
  ASSERT_TRUE(trainer.Init().ok());  // Masters reach the SSD pre-fault.

  util::FaultRule rule;
  rule.permanent = true;
  util::FaultInjector::Instance().Arm("ssd.pwrite", rule);

  SyntheticRegression dataset(16, 32, 4, 99);
  auto report = trainer.Train(dataset, 50);
  ASSERT_FALSE(report.ok());
  // The first master write-back failure poisons the updater; Train observes
  // it either through a fast-failing offload or the final drain.
  EXPECT_TRUE(report.status().IsIoError()) << report.status();
  EXPECT_TRUE(trainer.engine()->updater()->status().IsIoError());
}

}  // namespace
}  // namespace angelptm::train
