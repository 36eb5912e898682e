#include <unistd.h>

#include <cmath>
#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/allocator.h"
#include "train/engine_trainer.h"
#include "train/mlp.h"
#include "train/trainer.h"
#include "util/fault_injector.h"
#include "util/parallel_for.h"
#include "util/thread_pool.h"

namespace angelptm::train {
namespace {

mem::HierarchicalMemoryOptions MemoryOptions(const char* tag) {
  mem::HierarchicalMemoryOptions o;
  o.page_bytes = 64 * 1024;
  o.gpu_capacity_bytes = 8ull << 20;
  o.cpu_capacity_bytes = 64ull << 20;
  o.ssd_capacity_bytes = 64ull << 20;
  o.ssd_path = std::string("/tmp/angelptm_recovery_test_") + tag + "_" +
               std::to_string(::getpid()) + ".bin";
  // One queue worker: a master write-back is one batch of requests, and
  // two workers could split a max:3 fault across two syscalls that each
  // retry past it. One worker runs a syscall's three attempts back to back,
  // so the fault outlasts exactly one retry loop.
  o.ssd_io_workers = 1;
  return o;
}

std::string TempDir(const char* tag) {
  const std::string dir = std::string("/tmp/angelptm_recovery_") + tag + "_" +
                          std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  return dir;
}

const MlpModel& TestModel() {
  static const MlpModel* model = new MlpModel({{16, 64, 64, 4}});
  return *model;
}

TrainerOptions BaseOptions() {
  TrainerOptions options;
  options.adam.learning_rate = 3e-3;
  options.batch_size = 32;
  options.seed = 7;
  return options;
}

/// Fixture for the crash/restart suite: pins the compute pool to a single
/// thread so floating-point reductions are bitwise reproducible across runs
/// (the determinism the resume tests assert), and keeps the fault registry
/// clean around every case.
class RecoveryTest : public ::testing::Test {
 protected:
  RecoveryTest() : single_thread_pool_(1) {}

  void SetUp() override {
    util::FaultInjector::Instance().Reset();
    util::SetComputePoolOverride(&single_thread_pool_);
  }
  void TearDown() override {
    util::SetComputePoolOverride(nullptr);
    util::FaultInjector::Instance().Reset();
  }

  util::ThreadPool single_thread_pool_;
};

std::vector<std::vector<float>> MasterParams(core::LockFreeUpdater* updater) {
  std::vector<std::vector<float>> layers(updater->num_layers());
  for (int l = 0; l < updater->num_layers(); ++l) {
    EXPECT_TRUE(updater->ReadMasterParams(l, &layers[l]).ok());
  }
  return layers;
}

TEST_F(RecoveryTest, KillAndRestartMatchesUninterruptedRunBitwise) {
  // The headline §3.1 guarantee: a run killed at step 30 and restarted from
  // its checkpoint produces the SAME model as one that never died — not
  // approximately, bitwise. v2 checkpoints carry the full cursor (RNG
  // state incl. the Box-Muller cache, step counter, loss-scaler schedule),
  // so the resumed run regenerates the identical batch stream.
  SyntheticRegression dataset(16, 32, 4, 99);
  const std::string dir = TempDir("bitwise");

  // Uninterrupted reference: 60 steps straight through.
  TrainerOptions options = BaseOptions();
  options.use_loss_scaling = true;  // The scaler schedule must survive too.
  std::vector<std::vector<float>> reference;
  std::vector<double> reference_losses;
  {
    mem::HierarchicalMemory memory(MemoryOptions("ref"));
    core::Allocator allocator(&memory);
    Trainer trainer(&allocator, &TestModel(), options);
    ASSERT_TRUE(trainer.Init().ok());
    auto report = trainer.Train(dataset, 60);
    ASSERT_TRUE(report.ok());
    reference = MasterParams(trainer.updater());
    reference_losses = report->losses;
  }

  // Interrupted run: checkpoint every 10 steps, "crash" (destroy the
  // trainer) after 30, restart a brand-new trainer from disk.
  options.checkpoint_dir = dir;
  options.checkpoint_every_n_steps = 10;
  std::vector<double> second_half_losses;
  {
    mem::HierarchicalMemory memory(MemoryOptions("half1"));
    core::Allocator allocator(&memory);
    Trainer trainer(&allocator, &TestModel(), options);
    ASSERT_TRUE(trainer.Init().ok());
    ASSERT_TRUE(trainer.Train(dataset, 30).ok());
    EXPECT_EQ(trainer.checkpoint_manager()->Snapshot().last_saved_step, 30);
  }  // <- the crash: everything in memory is gone.
  {
    mem::HierarchicalMemory memory(MemoryOptions("half2"));
    core::Allocator allocator(&memory);
    Trainer trainer(&allocator, &TestModel(), options);
    ASSERT_TRUE(trainer.Init().ok());
    auto resumed = trainer.TryResume(&dataset);
    ASSERT_TRUE(resumed.ok()) << resumed.status();
    EXPECT_TRUE(*resumed);
    EXPECT_EQ(trainer.global_step(), 30);
    auto report = trainer.Train(dataset, 30);
    ASSERT_TRUE(report.ok());
    second_half_losses = report->losses;

    const std::vector<std::vector<float>> restarted =
        MasterParams(trainer.updater());
    ASSERT_EQ(restarted.size(), reference.size());
    for (size_t l = 0; l < reference.size(); ++l) {
      EXPECT_EQ(restarted[l], reference[l]) << "layer " << l;
    }
  }
  // The per-step losses line up too: the resumed run really saw the same
  // batches the reference saw for steps 31..60.
  ASSERT_EQ(second_half_losses.size(), 30u);
  for (size_t i = 0; i < 30; ++i) {
    EXPECT_EQ(second_half_losses[i], reference_losses[30 + i]) << "step " << i;
  }
  std::filesystem::remove_all(dir);
}

TEST_F(RecoveryTest, TryResumeIsFreshStartWithoutCheckpoints) {
  mem::HierarchicalMemory memory(MemoryOptions("fresh"));
  core::Allocator allocator(&memory);
  TrainerOptions options = BaseOptions();
  options.checkpoint_dir = TempDir("fresh");
  Trainer trainer(&allocator, &TestModel(), options);
  ASSERT_TRUE(trainer.Init().ok());
  auto resumed = trainer.TryResume();
  ASSERT_TRUE(resumed.ok()) << resumed.status();
  EXPECT_FALSE(*resumed);
  EXPECT_EQ(trainer.global_step(), 0);
  std::filesystem::remove_all(options.checkpoint_dir);
}

TEST_F(RecoveryTest, AutoRecoveryAbsorbsPoisonedUpdater) {
  // §3.1 end to end: a transient SSD failure poisons the lock-free updater
  // mid-run; Train() must tear it down, restore the latest checkpoint into
  // a fresh updater, and finish — no hang, no error, and the recovery is
  // visible in the report's telemetry.
  SyntheticRegression dataset(16, 32, 4, 99);
  TrainerOptions options = BaseOptions();
  options.lock_free = true;
  options.master_device = mem::DeviceKind::kSsd;
  options.drain_deadline_ms = 5000;

  // Fault-free twin: same config, no faults — the quality yardstick.
  double fault_free_loss = 0;
  {
    mem::HierarchicalMemory memory(MemoryOptions("recover_ref"));
    core::Allocator allocator(&memory);
    Trainer reference(&allocator, &TestModel(), options);
    ASSERT_TRUE(reference.Init().ok());
    auto report = reference.Train(dataset, 60);
    ASSERT_TRUE(report.ok());
    fault_free_loss = report->validation_loss;
  }

  mem::HierarchicalMemory memory(MemoryOptions("recover"));
  core::Allocator allocator(&memory);
  options.checkpoint_dir = TempDir("recover");
  options.checkpoint_every_n_steps = 10;
  options.max_recoveries = 2;
  Trainer trainer(&allocator, &TestModel(), options);
  ASSERT_TRUE(trainer.Init().ok());

  // Phase 1: train far enough to have checkpoints on disk.
  ASSERT_TRUE(trainer.Train(dataset, 20).ok());
  ASSERT_GE(trainer.checkpoint_manager()->Snapshot().saves, 1u);

  // Arm through the ANGELPTM_FAULT_SITES grammar (the same spec string an
  // operator would export). max:3 outlasts the SSD tier's 3-attempt retry
  // loop, so exactly one logical master write-back fails for good, then
  // the "device" heals. The faulted window (3 steps) crosses no
  // checkpoint-save boundary, so the only SSD writer is the updating
  // thread — the poison lands there deterministically.
  ASSERT_TRUE(util::FaultInjector::Instance()
                  .ArmFromSpec("ssd.pwrite=always,max:3")
                  .ok());
  auto faulted = trainer.Train(dataset, 3);
  ASSERT_TRUE(faulted.ok()) << faulted.status();
  EXPECT_EQ(faulted->telemetry.recoveries, 1u);
  EXPECT_EQ(trainer.recoveries(), 1u);
  EXPECT_EQ(trainer.global_step(), 23);
  // The post-recovery updater is healthy and fully drained.
  EXPECT_TRUE(trainer.updater()->status().ok());
  EXPECT_EQ(trainer.updater()->Snapshot().pending_grad_batches, 0u);
  // Exactly the requested number of losses: the rewound steps were re-run,
  // not double-counted (no silent gradient loss either way).
  EXPECT_EQ(faulted->losses.size(), 3u);
  ASSERT_TRUE(faulted->telemetry.has_checkpoint_manager);
  EXPECT_GE(faulted->telemetry.checkpoint.loads, 1u);

  // Phase 3: finish to 60 steps on the healed device and compare quality.
  auto report = trainer.Train(dataset, 37);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(trainer.global_step(), 60);
  EXPECT_EQ(report->telemetry.recoveries, 0u);

  // Quality: the recovered run lands in the same band as its fault-free
  // twin — the rewind re-applied the lost steps instead of dropping them.
  EXPECT_TRUE(std::isfinite(report->validation_loss));
  EXPECT_LT(report->validation_loss, fault_free_loss * 5 + 0.1);
  std::filesystem::remove_all(options.checkpoint_dir);
}

TEST_F(RecoveryTest, RecoveryBudgetExhaustionPropagatesLoudly) {
  SyntheticRegression dataset(16, 32, 4, 99);
  mem::HierarchicalMemory memory(MemoryOptions("budget"));
  core::Allocator allocator(&memory);
  TrainerOptions options = BaseOptions();
  options.lock_free = true;
  options.master_device = mem::DeviceKind::kSsd;
  options.drain_deadline_ms = 5000;
  options.checkpoint_dir = TempDir("budget");
  options.checkpoint_every_n_steps = 10;
  options.max_recoveries = 1;
  Trainer trainer(&allocator, &TestModel(), options);
  ASSERT_TRUE(trainer.Init().ok());
  ASSERT_TRUE(trainer.Train(dataset, 10).ok());

  // First poisoning: absorbed (budget 1). As above, the short faulted
  // windows cross no checkpoint-save step, so the updating thread is the
  // only SSD writer in them.
  ASSERT_TRUE(util::FaultInjector::Instance()
                  .ArmFromSpec("ssd.pwrite=always,max:3")
                  .ok());
  ASSERT_TRUE(trainer.Train(dataset, 3).ok());
  EXPECT_EQ(trainer.recoveries(), 1u);

  // Second poisoning: budget exhausted, the error must escape and say why.
  ASSERT_TRUE(util::FaultInjector::Instance()
                  .ArmFromSpec("ssd.pwrite=always,max:3")
                  .ok());
  auto report = trainer.Train(dataset, 3);
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(report.status().IsIoError()) << report.status();
  EXPECT_NE(report.status().message().find("recovery budget of 1 exhausted"),
            std::string::npos)
      << report.status();
  std::filesystem::remove_all(options.checkpoint_dir);
}

TEST_F(RecoveryTest, EngineTrainerResumesAndRecovers) {
  // The same contract through the full Engine stack: kill/restart resumes
  // exactly, and a poisoned lock-free updater is absorbed by rebuilding the
  // whole engine from the checkpoint.
  SyntheticRegression dataset(16, 32, 4, 99);
  const MlpModel model({{16, 32, 4}});
  EngineTrainerOptions options;
  options.engine.memory.page_bytes = 16 * 1024;
  options.engine.memory.gpu_capacity_bytes = 16 * 16 * 1024;
  options.engine.memory.cpu_capacity_bytes = 32ull << 20;
  options.engine.adam.learning_rate = 3e-3;
  options.batch_size = 32;
  options.seed = 7;
  options.offload_activations = false;
  options.checkpoint_dir = TempDir("engine");
  options.checkpoint_every_n_steps = 10;

  // Reference: 40 uninterrupted steps.
  std::vector<double> reference_losses;
  {
    EngineTrainerOptions plain = options;
    plain.checkpoint_dir.clear();
    EngineTrainer trainer(&model, plain);
    ASSERT_TRUE(trainer.Init().ok());
    auto report = trainer.Train(dataset, 40);
    ASSERT_TRUE(report.ok());
    reference_losses = report->losses;
  }

  // Kill after 20, restart, finish.
  {
    EngineTrainer trainer(&model, options);
    ASSERT_TRUE(trainer.Init().ok());
    ASSERT_TRUE(trainer.Train(dataset, 20).ok());
  }
  {
    EngineTrainer trainer(&model, options);
    ASSERT_TRUE(trainer.Init().ok());
    auto resumed = trainer.TryResume(&dataset);
    ASSERT_TRUE(resumed.ok()) << resumed.status();
    EXPECT_TRUE(*resumed);
    EXPECT_EQ(trainer.global_step(), 20);
    auto report = trainer.Train(dataset, 20);
    ASSERT_TRUE(report.ok());
    ASSERT_EQ(report->losses.size(), 20u);
    for (size_t i = 0; i < 20; ++i) {
      EXPECT_EQ(report->losses[i], reference_losses[20 + i]) << "step " << i;
    }
  }
  std::filesystem::remove_all(options.checkpoint_dir);
}

}  // namespace
}  // namespace angelptm::train
