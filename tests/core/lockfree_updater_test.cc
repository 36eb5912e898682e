#include "core/lockfree_updater.h"

#include <unistd.h>

#include <chrono>
#include <cstring>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "core/adam.h"
#include "util/fault_injector.h"
#include "util/half.h"
#include "util/random.h"

namespace angelptm::core {
namespace {

/// Memory shape shared by the updater tests; every call gets its own SSD
/// backing file.
mem::HierarchicalMemoryOptions MemoryOptions() {
  static int counter = 0;
  mem::HierarchicalMemoryOptions o;
  o.page_bytes = 16 * 1024;
  o.gpu_capacity_bytes = 4ull << 20;
  o.cpu_capacity_bytes = 32ull << 20;
  o.ssd_capacity_bytes = 32ull << 20;
  o.ssd_path = "/tmp/angelptm_lfu_test_" + std::to_string(::getpid()) + "_" +
               std::to_string(counter++) + ".bin";
  return o;
}

/// Bitwise equality of two float vectors (distinguishes -0/+0, NaN payloads).
void ExpectSameBits(const std::vector<float>& expected,
                    const std::vector<float>& actual, const std::string& what) {
  ASSERT_EQ(expected.size(), actual.size()) << what;
  EXPECT_EQ(std::memcmp(expected.data(), actual.data(),
                        expected.size() * sizeof(float)),
            0)
      << what;
}

class LockFreeUpdaterTest : public ::testing::Test {
 protected:
  LockFreeUpdaterTest() : memory_(MemoryOptions()), allocator_(&memory_) {}

  static LockFreeUpdater::Options UpdaterOptions(
      mem::DeviceKind master = mem::DeviceKind::kCpu) {
    LockFreeUpdater::Options options;
    options.optimizer.learning_rate = 0.1;
    options.master_device = master;
    return options;
  }

  mem::HierarchicalMemory memory_;
  Allocator allocator_;
};

TEST_F(LockFreeUpdaterTest, InitialParamsVisibleThroughBuffers) {
  LockFreeUpdater updater(&allocator_, UpdaterOptions());
  const std::vector<float> init = {1.0f, 2.0f, 3.0f};
  auto layer = updater.AddLayer(init);
  ASSERT_TRUE(layer.ok());
  EXPECT_EQ(*layer, 0);
  std::vector<float> fetched;
  ASSERT_TRUE(updater.FetchParams(0, &fetched).ok());
  EXPECT_EQ(fetched, init);
  std::vector<float> master;
  ASSERT_TRUE(updater.ReadMasterParams(0, &master).ok());
  EXPECT_EQ(master, init);
}

TEST_F(LockFreeUpdaterTest, SynchronousUpdateMatchesReferenceAdam) {
  LockFreeUpdater updater(&allocator_, UpdaterOptions());
  const std::vector<float> init = {1.0f, -2.0f, 0.5f, 4.0f};
  ASSERT_TRUE(updater.AddLayer(init).ok());

  const std::vector<float> grads = {0.5f, -1.0f, 0.25f, 2.0f};
  ASSERT_TRUE(updater.OffloadGrads(0, grads).ok());
  ASSERT_TRUE(updater.UpdateOnce().ok());

  // Reference Adam on plain arrays.
  AdamConfig config;
  config.learning_rate = 0.1;
  std::vector<float> p = init, m(4, 0.0f), v(4, 0.0f);
  AdamUpdate(config, p.data(), m.data(), v.data(), grads.data(), 4, 1);

  std::vector<float> master;
  ASSERT_TRUE(updater.ReadMasterParams(0, &master).ok());
  for (int i = 0; i < 4; ++i) {
    EXPECT_NEAR(master[i], p[i], 1e-5) << "param " << i;
  }
  // The fp16 buffer also refreshed (within fp16 precision).
  std::vector<float> fetched;
  ASSERT_TRUE(updater.FetchParams(0, &fetched).ok());
  for (int i = 0; i < 4; ++i) {
    EXPECT_NEAR(fetched[i], p[i], 5e-3) << "buffered " << i;
  }
  const LockFreeUpdater::Stats stats = updater.Snapshot();
  EXPECT_EQ(stats.updates_applied, 1u);
  EXPECT_EQ(stats.pending_grad_batches, 0u);
  EXPECT_EQ(stats.grad_batches_offloaded, 1u);
}

TEST_F(LockFreeUpdaterTest, AccumulatedBatchesAreAveraged) {
  LockFreeUpdater updater(&allocator_, UpdaterOptions());
  ASSERT_TRUE(updater.AddLayer({0.0f}).ok());
  ASSERT_TRUE(updater.OffloadGrads(0, {1.0f}).ok());
  ASSERT_TRUE(updater.OffloadGrads(0, {3.0f}).ok());
  ASSERT_TRUE(updater.UpdateOnce().ok());

  // Equivalent single update with the averaged gradient 2.0.
  AdamConfig config;
  config.learning_rate = 0.1;
  std::vector<float> p = {0.0f}, m = {0.0f}, v = {0.0f};
  const std::vector<float> avg = {2.0f};
  AdamUpdate(config, p.data(), m.data(), v.data(), avg.data(), 1, 1);

  std::vector<float> master;
  ASSERT_TRUE(updater.ReadMasterParams(0, &master).ok());
  EXPECT_NEAR(master[0], p[0], 1e-4);
  const LockFreeUpdater::Stats stats = updater.Snapshot();
  EXPECT_EQ(stats.updates_applied, 1u);
  // Both batches folded into the one update: staleness of 2.
  EXPECT_EQ(stats.staleness.count(), 1u);
}

TEST_F(LockFreeUpdaterTest, NoGradientsMeansNoUpdate) {
  LockFreeUpdater updater(&allocator_, UpdaterOptions());
  ASSERT_TRUE(updater.AddLayer({1.0f, 2.0f}).ok());
  ASSERT_TRUE(updater.UpdateOnce().ok());
  EXPECT_EQ(updater.Snapshot().updates_applied, 0u);
}

TEST_F(LockFreeUpdaterTest, AsyncThreadsApplyUpdates) {
  LockFreeUpdater updater(&allocator_, UpdaterOptions());
  const std::vector<float> init(64, 1.0f);
  ASSERT_TRUE(updater.AddLayer(init).ok());
  ASSERT_TRUE(updater.AddLayer(init).ok());
  updater.Start();
  EXPECT_TRUE(updater.running());
  for (int step = 0; step < 20; ++step) {
    ASSERT_TRUE(updater.OffloadGrads(0, std::vector<float>(64, 0.1f)).ok());
    ASSERT_TRUE(updater.OffloadGrads(1, std::vector<float>(64, -0.1f)).ok());
  }
  ASSERT_TRUE(updater.DrainUpdates().ok());
  updater.Stop();
  EXPECT_FALSE(updater.running());
  const LockFreeUpdater::Stats stats = updater.Snapshot();
  EXPECT_EQ(stats.pending_grad_batches, 0u);
  EXPECT_GT(stats.updates_applied, 0u);
  EXPECT_EQ(stats.grad_batches_offloaded, 40u);
  EXPECT_EQ(stats.grad_batches_applied, 40u);
  std::vector<float> p0, p1;
  ASSERT_TRUE(updater.ReadMasterParams(0, &p0).ok());
  ASSERT_TRUE(updater.ReadMasterParams(1, &p1).ok());
  EXPECT_LT(p0[0], 1.0f);  // Positive grads decreased the parameter.
  EXPECT_GT(p1[0], 1.0f);  // Negative grads increased it.
}

TEST_F(LockFreeUpdaterTest, ComputeNeverBlocksOnUpdater) {
  // Offloading with threads running must return quickly even while the
  // updater is busy — the defining property of the mechanism. (The default
  // staleness valve may briefly pace the loop, but never serializes it
  // behind one update per batch.)
  LockFreeUpdater updater(&allocator_, UpdaterOptions());
  ASSERT_TRUE(updater.AddLayer(std::vector<float>(4096, 0.5f)).ok());
  updater.Start();
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(
        updater.OffloadGrads(0, std::vector<float>(4096, 0.01f)).ok());
  }
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_LT(elapsed, 2.0);
  ASSERT_TRUE(updater.DrainUpdates().ok());
  updater.Stop();
}

TEST_F(LockFreeUpdaterTest, SsdMasterStatesRoundTrip) {
  LockFreeUpdater updater(&allocator_,
                          UpdaterOptions(mem::DeviceKind::kSsd));
  const std::vector<float> init = {1.0f, 2.0f, 3.0f, 4.0f};
  ASSERT_TRUE(updater.AddLayer(init).ok());
  EXPECT_GT(memory_.ssd()->Snapshot().bytes_written, 0u);

  ASSERT_TRUE(updater.OffloadGrads(0, {1.0f, 1.0f, 1.0f, 1.0f}).ok());
  ASSERT_TRUE(updater.UpdateOnce().ok());
  std::vector<float> master;
  ASSERT_TRUE(updater.ReadMasterParams(0, &master).ok());
  for (int i = 0; i < 4; ++i) EXPECT_LT(master[i], init[i]);
  EXPECT_GT(memory_.ssd()->Snapshot().bytes_read, 0u);
}

TEST_F(LockFreeUpdaterTest, InputValidation) {
  LockFreeUpdater updater(&allocator_, UpdaterOptions());
  EXPECT_TRUE(updater.AddLayer({}).status().IsInvalidArgument());
  ASSERT_TRUE(updater.AddLayer({1.0f, 2.0f}).ok());
  std::vector<float> out;
  EXPECT_TRUE(updater.FetchParams(5, &out).IsInvalidArgument());
  EXPECT_TRUE(updater.OffloadGrads(0, {1.0f}).IsInvalidArgument());
  EXPECT_TRUE(updater.OffloadGrads(-1, {1.0f}).IsInvalidArgument());
}

TEST_F(LockFreeUpdaterTest, UpdateOnceRejectedWhileRunning) {
  LockFreeUpdater updater(&allocator_, UpdaterOptions());
  ASSERT_TRUE(updater.AddLayer({1.0f}).ok());
  updater.Start();
  EXPECT_EQ(updater.UpdateOnce().code(),
            util::StatusCode::kFailedPrecondition);
  updater.Stop();
}

TEST_F(LockFreeUpdaterTest, StalenessValveBoundsPerLayerBacklog) {
  // With the valve at 4, a compute loop spamming one layer can never get
  // more than 4 batches ahead of the updating thread, so no update ever
  // folds more than 4 batches (the staleness bound is a hard bound, not a
  // hint). A single offloading thread makes this deterministic: the valve
  // admits an offload only when in-flight < 4.
  auto options = UpdaterOptions();
  options.max_pending_batches_per_layer = 4;
  LockFreeUpdater updater(&allocator_, options);
  ASSERT_TRUE(updater.AddLayer(std::vector<float>(256, 1.0f)).ok());
  updater.Start();
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(updater.OffloadGrads(0, std::vector<float>(256, 0.01f)).ok());
  }
  ASSERT_TRUE(updater.DrainUpdates().ok());
  updater.Stop();
  const LockFreeUpdater::Stats stats = updater.Snapshot();
  EXPECT_EQ(stats.grad_batches_applied, 100u);
  EXPECT_LE(stats.staleness.Max(), 4u);
}

TEST_F(LockFreeUpdaterTest, ValveDisabledAllowsUnboundedBacklog) {
  // Bound 0 switches the valve off: offloads never wait, whatever the
  // backlog (the paper's original never-blocking compute contract).
  auto options = UpdaterOptions();
  options.max_pending_batches_per_layer = 0;
  LockFreeUpdater updater(&allocator_, options);
  ASSERT_TRUE(updater.AddLayer(std::vector<float>(16, 1.0f)).ok());
  updater.Start();
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(updater.OffloadGrads(0, std::vector<float>(16, 0.01f)).ok());
  }
  ASSERT_TRUE(updater.DrainUpdates().ok());
  updater.Stop();
  const LockFreeUpdater::Stats stats = updater.Snapshot();
  EXPECT_EQ(stats.grad_batches_applied, 50u);
  EXPECT_EQ(stats.backpressure_waits, 0u);
}

TEST_F(LockFreeUpdaterTest, StartStopIdempotent) {
  LockFreeUpdater updater(&allocator_, UpdaterOptions());
  ASSERT_TRUE(updater.AddLayer({1.0f}).ok());
  updater.Start();
  updater.Start();
  updater.Stop();
  updater.Stop();
  SUCCEED();
}

TEST_F(LockFreeUpdaterTest, DrainReturnsOnlyAfterInstallsArePublished) {
  // The install race: the buffering thread pops an install task before it
  // publishes it, and with CPU masters the applied count moves right after
  // the install is queued. A drain that looked only at "queue empty and
  // applied == offloaded" could return while FetchParams still served the
  // previous parameters. After a drain, the fp16 mirror must be exactly the
  // fp16 rounding of the masters.
  LockFreeUpdater updater(&allocator_, UpdaterOptions());
  const size_t count = 4096;
  ASSERT_TRUE(updater.AddLayer(std::vector<float>(count, 0.5f)).ok());
  updater.Start();
  util::Rng rng(17);
  std::vector<float> grads(count), fetched, master;
  for (int i = 0; i < 200; ++i) {
    rng.FillGaussian(&grads, 1.0);
    ASSERT_TRUE(updater.OffloadGrads(0, grads).ok());
    ASSERT_TRUE(updater.DrainUpdates().ok());
    ASSERT_TRUE(updater.FetchParams(0, &fetched).ok());
    ASSERT_TRUE(updater.ReadMasterParams(0, &master).ok());
    for (float& value : master) {
      value = util::HalfBitsToFloat(util::FloatToHalfBits(value));
    }
    ExpectSameBits(master, fetched, "iteration " + std::to_string(i));
    if (HasFailure()) break;
  }
  updater.Stop();
}

TEST_F(LockFreeUpdaterTest, StepStartBoundLeavesOnlyFirstLayersPending) {
  // One batch per layer, offloaded before the threads start, as at the end
  // of a backward pass. The updating thread walks the layers in reverse, so
  // once AwaitStepStart returns at most the bound's worth of batches is
  // pending — on the first layers — and every other layer already serves
  // its updated parameters.
  LockFreeUpdater updater(&allocator_, UpdaterOptions(mem::DeviceKind::kSsd));
  const int layers = 6;
  const int bound = int(LockFreeUpdater::kStepStartPendingBatches);
  const size_t count = 1024;
  for (int l = 0; l < layers; ++l) {
    ASSERT_TRUE(updater.AddLayer(std::vector<float>(count, 0.5f)).ok());
  }
  for (int l = 0; l < layers; ++l) {
    ASSERT_TRUE(updater.OffloadGrads(l, std::vector<float>(count, 1.0f)).ok());
  }
  updater.Start();
  ASSERT_TRUE(updater.AwaitStepStart().ok());
  EXPECT_LE(updater.Snapshot().pending_grad_batches, uint64_t(bound));
  std::vector<float> fetched, master;
  for (int l = bound; l < layers; ++l) {
    ASSERT_TRUE(updater.FetchParams(l, &fetched).ok());
    ASSERT_TRUE(updater.ReadMasterParams(l, &master).ok());
    EXPECT_NE(master[0], 0.5f) << "layer " << l << " not updated";
    for (float& value : master) {
      value = util::HalfBitsToFloat(util::FloatToHalfBits(value));
    }
    ExpectSameBits(master, fetched, "layer " + std::to_string(l));
  }
  ASSERT_TRUE(updater.DrainUpdates().ok());
  updater.Stop();
}

TEST_F(LockFreeUpdaterTest, StepStartBoundReturnsAtOnceWhenStopped) {
  // A stopped updater has nothing in flight to wait for: the wait returns
  // at once with more batches pending than the bound.
  LockFreeUpdater updater(&allocator_, UpdaterOptions());
  const int layers = int(LockFreeUpdater::kStepStartPendingBatches) + 1;
  for (int l = 0; l < layers; ++l) {
    ASSERT_TRUE(updater.AddLayer({1.0f, 2.0f}).ok());
    ASSERT_TRUE(updater.OffloadGrads(l, {0.1f, 0.1f}).ok());
  }
  ASSERT_TRUE(updater.AwaitStepStart(std::chrono::milliseconds(0)).ok());
  EXPECT_EQ(updater.Snapshot().pending_grad_batches, uint64_t(layers));
}

TEST_F(LockFreeUpdaterTest, ImportDropsPendingBatchesFromTheBarriers) {
  // A checkpoint import drops the layer's pending gradient; the barriers
  // must not keep waiting for it until their deadline.
  LockFreeUpdater updater(&allocator_, UpdaterOptions());
  ASSERT_TRUE(updater.AddLayer(std::vector<float>(16, 1.0f)).ok());
  LockFreeUpdater::LayerState state;
  ASSERT_TRUE(updater.SnapshotLayerState(0, &state).ok());
  ASSERT_TRUE(updater.OffloadGrads(0, std::vector<float>(16, 0.5f)).ok());
  ASSERT_TRUE(updater.ImportLayerState(0, state).ok());
  EXPECT_EQ(updater.Snapshot().pending_grad_batches, 0u);
  EXPECT_TRUE(updater.DrainUpdates(std::chrono::milliseconds(0)).ok());
  updater.Start();
  EXPECT_TRUE(updater.AwaitStepStart(std::chrono::milliseconds(0)).ok());
  updater.Stop();
  std::vector<float> master;
  ASSERT_TRUE(updater.ReadMasterParams(0, &master).ok());
  ExpectSameBits(state.params, master, "masters after import");
}

/// The synchronous-training contract: an updater driven on its threads and
/// released by the DrainUpdates barrier after every step must be bitwise
/// identical to one applying the same gradients inline with UpdateOnce —
/// published fp16 params, fp32 masters, every optimizer slot and the step.
class SyncUpdateParityTest
    : public ::testing::TestWithParam<std::tuple<mem::DeviceKind, std::string>> {
 protected:
  struct Rig {
    explicit Rig(const LockFreeUpdater::Options& options)
        : memory(MemoryOptions()),
          allocator(&memory),
          updater(&allocator, options) {}
    mem::HierarchicalMemory memory;
    Allocator allocator;
    LockFreeUpdater updater;
  };
};

TEST_P(SyncUpdateParityTest, BarrierMatchesInlineUpdatePass) {
  LockFreeUpdater::Options options;
  options.master_device = std::get<0>(GetParam());
  options.optimizer.rule = std::get<1>(GetParam());
  options.optimizer.learning_rate = 0.01;
  Rig inline_rig(options);
  Rig threaded_rig(options);
  LockFreeUpdater& serial = inline_rig.updater;
  LockFreeUpdater& threaded = threaded_rig.updater;

  // Layer sizes spanning several pages, a partial page and a tiny tail.
  const std::vector<size_t> sizes = {3000, 37, 1500};
  util::Rng init_rng(5);
  for (const size_t size : sizes) {
    std::vector<float> init(size);
    init_rng.FillGaussian(&init, 0.5);
    ASSERT_TRUE(serial.AddLayer(init).ok());
    ASSERT_TRUE(threaded.AddLayer(init).ok());
  }
  threaded.Start();
  util::Rng grad_rng(11);
  for (int step = 0; step < 6; ++step) {
    for (int l = int(sizes.size()) - 1; l >= 0; --l) {
      std::vector<float> grads(sizes[size_t(l)]);
      grad_rng.FillGaussian(&grads, 1.0);
      ASSERT_TRUE(serial.OffloadGrads(l, grads).ok());
      ASSERT_TRUE(threaded.OffloadGrads(l, grads).ok());
    }
    ASSERT_TRUE(serial.UpdateOnce().ok());
    ASSERT_TRUE(threaded.DrainUpdates().ok());
    for (int l = 0; l < int(sizes.size()); ++l) {
      const std::string at =
          "step " + std::to_string(step) + " layer " + std::to_string(l);
      std::vector<float> want, got;
      ASSERT_TRUE(serial.FetchParams(l, &want).ok());
      ASSERT_TRUE(threaded.FetchParams(l, &got).ok());
      ExpectSameBits(want, got, at + " fp16 params");
      ASSERT_TRUE(serial.ReadMasterParams(l, &want).ok());
      ASSERT_TRUE(threaded.ReadMasterParams(l, &got).ok());
      ExpectSameBits(want, got, at + " fp32 masters");
      LockFreeUpdater::LayerState want_state, got_state;
      ASSERT_TRUE(serial.SnapshotLayerState(l, &want_state).ok());
      ASSERT_TRUE(threaded.SnapshotLayerState(l, &got_state).ok());
      EXPECT_EQ(want_state.step, step + 1) << at;
      EXPECT_EQ(want_state.step, got_state.step) << at;
      ExpectSameBits(want_state.params, got_state.params, at + " snapshot");
      ASSERT_EQ(want_state.slots.size(), got_state.slots.size()) << at;
      for (size_t s = 0; s < want_state.slots.size(); ++s) {
        EXPECT_EQ(want_state.slots[s].name, got_state.slots[s].name) << at;
        ExpectSameBits(want_state.slots[s].values, got_state.slots[s].values,
                       at + " slot " + want_state.slots[s].name);
      }
    }
    if (HasFailure()) break;
  }
  threaded.Stop();
  const LockFreeUpdater::Stats stats = threaded.Snapshot();
  EXPECT_EQ(stats.updates_applied, serial.Snapshot().updates_applied);
  EXPECT_EQ(stats.staleness.Max(), 1u);  // One batch per layer per step.
}

INSTANTIATE_TEST_SUITE_P(
    MastersAndRules, SyncUpdateParityTest,
    ::testing::Combine(::testing::Values(mem::DeviceKind::kCpu,
                                         mem::DeviceKind::kSsd),
                       ::testing::Values(std::string("adam"),
                                         std::string("sgdm"))),
    [](const auto& info) {
      return std::string(std::get<0>(info.param) == mem::DeviceKind::kSsd
                             ? "Ssd"
                             : "Cpu") +
             "_" + std::get<1>(info.param);
    });

/// Pipelined master I/O (DESIGN.md §12.7): on steady synchronous steps every
/// update after the very first finds its masters read ahead, and each step
/// moves every layer's masters across the SSD exactly once each way.
TEST_F(LockFreeUpdaterTest, SteadySsdStepsReadEveryLayerAhead) {
  LockFreeUpdater updater(&allocator_, UpdaterOptions(mem::DeviceKind::kSsd));
  // 4096 floats fill one 16 KiB page exactly, so Adam's masters (params,
  // m, v) are three whole pages per layer.
  const size_t count = 4096;
  const uint64_t master_bytes = 3 * MemoryOptions().page_bytes;
  const int layers = 4;
  const int steps = 5;
  for (int l = 0; l < layers; ++l) {
    ASSERT_TRUE(updater.AddLayer(std::vector<float>(count, 0.5f)).ok());
  }
  const mem::SsdTier::Stats before = memory_.ssd()->Snapshot();
  updater.Start();
  for (int step = 0; step < steps; ++step) {
    for (int l = layers - 1; l >= 0; --l) {
      ASSERT_TRUE(
          updater.OffloadGrads(l, std::vector<float>(count, 0.01f)).ok());
    }
    ASSERT_TRUE(updater.DrainUpdates().ok());
  }
  updater.Stop();  // Settles the last write-behind and read-ahead.
  const mem::SsdTier::Stats after = memory_.ssd()->Snapshot();
  const LockFreeUpdater::Stats stats = updater.Snapshot();
  EXPECT_EQ(stats.updates_applied, uint64_t(layers * steps));
  EXPECT_EQ(stats.read_ahead_hits, stats.updates_applied - 1);
  EXPECT_LE(stats.read_ahead_waits, stats.read_ahead_hits);
  // One write per update; one read per update, plus the read-ahead of the
  // last layer for a step that never came.
  EXPECT_EQ(after.bytes_written - before.bytes_written,
            uint64_t(layers * steps) * master_bytes);
  EXPECT_EQ(after.bytes_read - before.bytes_read,
            uint64_t(layers * steps + 1) * master_bytes);
  // Reading the masters leaves them where they are: no SSD write.
  std::vector<float> values;
  for (int l = 0; l < layers; ++l) {
    ASSERT_TRUE(updater.ReadMasterParams(l, &values).ok());
    LockFreeUpdater::LayerState state;
    ASSERT_TRUE(updater.SnapshotLayerState(l, &state).ok());
    EXPECT_EQ(state.step, steps);
  }
  EXPECT_EQ(memory_.ssd()->Snapshot().bytes_written, after.bytes_written);
}

/// Failure semantics: injected faults must poison the updater and surface
/// through status()/DrainUpdates instead of hanging or silently diverging.
class LockFreeUpdaterFaultTest : public LockFreeUpdaterTest {
 protected:
  void SetUp() override { util::FaultInjector::Instance().Reset(); }
  void TearDown() override { util::FaultInjector::Instance().Reset(); }

  static void ArmPermanent(const char* site) {
    util::FaultRule rule;
    rule.permanent = true;
    util::FaultInjector::Instance().Arm(site, rule);
  }
};

TEST_F(LockFreeUpdaterFaultTest, SsdWriteFailurePoisonsAsyncUpdater) {
  // A failed master write-behind poisons the updater. The barriers do not
  // wait for write-behinds, so it surfaces at the next DrainUpdates,
  // AwaitStepStart or ReadMasterParams, and the masters stay intact on the
  // CPU tier.
  const std::vector<size_t> sizes = {3000, 37, 1500};
  LockFreeUpdater updater(&allocator_, UpdaterOptions(mem::DeviceKind::kSsd));
  LockFreeUpdater reference(&allocator_, UpdaterOptions());
  util::Rng rng(3);
  for (const size_t size : sizes) {
    std::vector<float> init(size);
    rng.FillGaussian(&init, 0.5);
    ASSERT_TRUE(updater.AddLayer(init).ok());
    ASSERT_TRUE(reference.AddLayer(init).ok());
  }
  updater.Start();
  const int last = int(sizes.size()) - 1;
  for (int step = 0; step < 2; ++step) {
    if (step == 1) {
      // The first step's write-behinds land pre-fault: the barrier does
      // not wait for them, a master read settles them.
      ASSERT_TRUE(updater.DrainUpdates().ok());
      std::vector<float> masters;
      for (int l = 0; l <= last; ++l) {
        ASSERT_TRUE(updater.ReadMasterParams(l, &masters).ok());
      }
      ArmPermanent("ssd.pwrite");
    }
    for (int l = last; l >= 0; --l) {
      std::vector<float> grads(sizes[size_t(l)]);
      rng.FillGaussian(&grads, 1.0);
      // The offload never blocks on the write; once the write-behind has
      // failed, later offloads of the step fail fast instead.
      const util::Status offloaded = updater.OffloadGrads(l, grads);
      EXPECT_TRUE(offloaded.ok() || (step == 1 && offloaded.IsIoError()))
          << offloaded;
      ASSERT_TRUE(reference.OffloadGrads(l, grads).ok());
    }
    ASSERT_TRUE(reference.UpdateOnce().ok());
  }
  const util::Status drained =
      updater.DrainUpdates(std::chrono::milliseconds(30000));
  EXPECT_TRUE(drained.ok() || drained.IsIoError()) << drained;
  const auto poll_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (updater.status().ok() &&
         std::chrono::steady_clock::now() < poll_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(updater.status().IsIoError()) << updater.status();

  // Poisoning is terminal: every entry point fails fast with it.
  EXPECT_TRUE(updater.DrainUpdates().IsIoError());
  EXPECT_TRUE(updater.AwaitStepStart().IsIoError());
  std::vector<float> values;
  EXPECT_TRUE(updater.ReadMasterParams(0, &values).IsIoError());
  EXPECT_TRUE(updater.OffloadGrads(0, std::vector<float>(sizes[0], 0.5f))
                  .IsIoError());
  EXPECT_TRUE(updater.FetchParams(0, &values).IsIoError());
  EXPECT_TRUE(updater.UpdateOnce().IsIoError());
  updater.Stop();

  // The first write-behind of the faulted step was the last layer's, after
  // its second update: that update is intact in memory.
  LockFreeUpdater::LayerState got, want;
  ASSERT_TRUE(updater.SnapshotLayerState(last, &got).ok());
  ASSERT_TRUE(reference.SnapshotLayerState(last, &want).ok());
  EXPECT_EQ(got.step, 2);
  EXPECT_EQ(got.step, want.step);
  ExpectSameBits(want.params, got.params, "masters after failed write");
  ASSERT_EQ(got.slots.size(), want.slots.size());
  for (size_t s = 0; s < got.slots.size(); ++s) {
    ExpectSameBits(want.slots[s].values, got.slots[s].values,
                   "slot " + want.slots[s].name + " after failed write");
  }
}

TEST_F(LockFreeUpdaterFaultTest, BufferAccumulateFailurePoisons) {
  LockFreeUpdater updater(&allocator_, UpdaterOptions());
  ASSERT_TRUE(updater.AddLayer({1.0f, 2.0f}).ok());
  ArmPermanent("updater.buffer_accumulate");
  updater.Start();
  ASSERT_TRUE(updater.OffloadGrads(0, {0.1f, 0.1f}).ok());
  EXPECT_TRUE(
      updater.DrainUpdates(std::chrono::milliseconds(30000)).IsIoError());
  updater.Stop();
  // The lost batch was never marked pending, so no zero-gradient update ran
  // — the regression where a failed accumulate still bumped pending_batches.
  EXPECT_EQ(updater.Snapshot().updates_applied, 0u);
}

TEST_F(LockFreeUpdaterFaultTest, BufferInstallFailurePoisons) {
  LockFreeUpdater updater(&allocator_, UpdaterOptions());
  ASSERT_TRUE(updater.AddLayer({1.0f}).ok());
  ArmPermanent("updater.buffer_install");
  updater.Start();
  ASSERT_TRUE(updater.OffloadGrads(0, {0.5f}).ok());
  // The gradient may count as applied before the install task fails, so
  // DrainUpdates can legitimately return OK here; the poisoned state itself
  // is what must become visible promptly.
  (void)updater.DrainUpdates(std::chrono::milliseconds(30000));
  const auto poll_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (updater.status().ok() &&
         std::chrono::steady_clock::now() < poll_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(updater.status().IsIoError());
  updater.Stop();
  std::vector<float> fetched;
  EXPECT_TRUE(updater.FetchParams(0, &fetched).IsIoError());
}

TEST_F(LockFreeUpdaterFaultTest, PoisonReleasesValveBlockedOffload) {
  // A dead updating thread must never wedge a compute thread waiting at
  // the staleness valve. The armed accumulate fault poisons the updater
  // while the first batch is still counted in flight, so the second
  // offload either fails fast on the published poison or blocks at the
  // bound-1 valve until Poison's wakeup releases it — both within the
  // test's lifetime, neither a hang.
  auto options = UpdaterOptions();
  options.max_pending_batches_per_layer = 1;
  LockFreeUpdater updater(&allocator_, options);
  ASSERT_TRUE(updater.AddLayer({1.0f, 2.0f}).ok());
  ArmPermanent("updater.buffer_accumulate");
  updater.Start();
  ASSERT_TRUE(updater.OffloadGrads(0, {0.1f, 0.1f}).ok());
  const auto poll_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  util::Status second = util::Status::OK();
  while (second.ok() && std::chrono::steady_clock::now() < poll_deadline) {
    second = updater.OffloadGrads(0, {0.1f, 0.1f});
  }
  EXPECT_TRUE(second.IsIoError()) << second;
  updater.Stop();
}

TEST_F(LockFreeUpdaterFaultTest, PoisonReleasesStepStartWaiter) {
  // A dead updating thread must not wedge BeginStep either: with every
  // master read failing, no update is applied, so the step-start wait
  // blocks until the poison ends it. (A failed write-behind surfaces at
  // the next wait instead; see SsdWriteFailurePoisonsAsyncUpdater.)
  LockFreeUpdater updater(&allocator_, UpdaterOptions(mem::DeviceKind::kSsd));
  const int layers = int(LockFreeUpdater::kStepStartPendingBatches) + 2;
  for (int l = 0; l < layers; ++l) {
    ASSERT_TRUE(updater.AddLayer(std::vector<float>(8, 1.0f)).ok());
  }
  updater.Start();
  ArmPermanent("ssd.pread");
  for (int l = 0; l < layers; ++l) {
    ASSERT_TRUE(updater.OffloadGrads(l, std::vector<float>(8, 0.5f)).ok());
  }
  const util::Status started =
      updater.AwaitStepStart(std::chrono::milliseconds(30000));
  EXPECT_TRUE(started.IsIoError()) << started;
  updater.Stop();
}

TEST_F(LockFreeUpdaterFaultTest, DrainDeadlineExceededWithoutProgress) {
  LockFreeUpdater updater(&allocator_, UpdaterOptions());
  ASSERT_TRUE(updater.AddLayer({1.0f}).ok());
  ASSERT_TRUE(updater.OffloadGrads(0, {1.0f}).ok());
  // Threads are not running and the deadline is already past, so the one
  // pending batch cannot drain in time.
  const util::Status drained =
      updater.DrainUpdates(std::chrono::milliseconds(0));
  EXPECT_TRUE(drained.IsDeadlineExceeded()) << drained;
  EXPECT_NE(drained.message().find("1 gradient batches"), std::string::npos);

  // DeadlineExceeded is not terminal: a later drain with time to spare
  // applies the update inline and succeeds.
  EXPECT_TRUE(updater.status().ok());
  EXPECT_TRUE(updater.DrainUpdates().ok());
  const LockFreeUpdater::Stats stats = updater.Snapshot();
  EXPECT_EQ(stats.updates_applied, 1u);
  EXPECT_EQ(stats.pending_grad_batches, 0u);
}

}  // namespace
}  // namespace angelptm::core
