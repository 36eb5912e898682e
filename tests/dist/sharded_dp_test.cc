#include "dist/sharded_data_parallel.h"

#include <unistd.h>

#include <cmath>
#include <filesystem>
#include <thread>

#include <gtest/gtest.h>

#include "train/mlp.h"
#include "train/transformer.h"

namespace angelptm::dist {
namespace {

mem::HierarchicalMemoryOptions MemoryOptions() {
  mem::HierarchicalMemoryOptions options;
  options.page_bytes = 16 * 1024;
  options.gpu_capacity_bytes = 4ull << 20;
  options.cpu_capacity_bytes = 128ull << 20;
  return options;
}

ShardedDpOptions DpOptions(int world) {
  ShardedDpOptions options;
  options.world_size = world;
  options.optimizer.learning_rate = 3e-3;
  options.batch_per_rank = 8;
  options.seed = 11;
  return options;
}

TEST(ShardedDpTest, FourRanksTrainAndConverge) {
  mem::HierarchicalMemory memory(MemoryOptions());
  core::Allocator allocator(&memory);
  const train::MlpModel model({{16, 64, 64, 4}});
  ShardedDataParallel dp(&allocator, &model, DpOptions(4));
  ASSERT_TRUE(dp.Init().ok());
  train::SyntheticRegression dataset(16, 32, 4, 99);
  auto report = dp.Train(dataset, 150);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_LT(report->final_train_loss, report->losses.front() / 3);
  EXPECT_LT(report->validation_loss, 0.4);
  EXPECT_GT(report->collectives, 0u);
}

TEST(ShardedDpTest, GatheredParamsMatchShardLayout) {
  mem::HierarchicalMemory memory(MemoryOptions());
  core::Allocator allocator(&memory);
  // 3 doesn't divide the layer sizes: exercises padding.
  const train::MlpModel model({{10, 30, 2}});
  ShardedDataParallel dp(&allocator, &model, DpOptions(3));
  ASSERT_TRUE(dp.Init().ok());
  for (int l = 0; l < model.num_layers(); ++l) {
    auto params = dp.GatherLayerParams(l);
    ASSERT_TRUE(params.ok());
    EXPECT_EQ(params->size(), model.LayerParamCount(l));
  }
  EXPECT_TRUE(dp.GatherLayerParams(9).status().IsInvalidArgument());
}

TEST(ShardedDpTest, MultiRankMatchesSingleRank) {
  // §3.2's transparency-of-scale: with the same global batch, 4-rank
  // ZeRO-sharded training must match single-rank training (same data, same
  // math) up to floating-point summation order.
  train::SyntheticRegression dataset(16, 32, 4, 99);
  std::vector<std::vector<float>> single_params, multi_params;
  double single_loss = 0, multi_loss = 0;
  for (const int world : {1, 4}) {
    mem::HierarchicalMemory memory(MemoryOptions());
    core::Allocator allocator(&memory);
    const train::MlpModel model({{16, 32, 4}});
    ShardedDpOptions options = DpOptions(world);
    // Keep the global batch constant: world * batch_per_rank = 32.
    options.batch_per_rank = 32 / world;
    ShardedDataParallel dp(&allocator, &model, options);
    ASSERT_TRUE(dp.Init().ok());
    auto report = dp.Train(dataset, 60);
    ASSERT_TRUE(report.ok());
    auto& params = world == 1 ? single_params : multi_params;
    for (int l = 0; l < model.num_layers(); ++l) {
      auto gathered = dp.GatherLayerParams(l);
      ASSERT_TRUE(gathered.ok());
      params.push_back(*gathered);
    }
    (world == 1 ? single_loss : multi_loss) = report->final_train_loss;
  }
  ASSERT_EQ(single_params.size(), multi_params.size());
  double max_delta = 0;
  for (size_t l = 0; l < single_params.size(); ++l) {
    ASSERT_EQ(single_params[l].size(), multi_params[l].size());
    for (size_t i = 0; i < single_params[l].size(); ++i) {
      max_delta = std::max(
          max_delta,
          double(std::abs(single_params[l][i] - multi_params[l][i])));
    }
  }
  EXPECT_LT(max_delta, 5e-3) << "sharded result diverged from single-rank";
  EXPECT_NEAR(single_loss, multi_loss, 0.02);
}

TEST(ShardedDpTest, WorksWithTransformer) {
  mem::HierarchicalMemory memory(MemoryOptions());
  core::Allocator allocator(&memory);
  train::TransformerConfig config;
  config.seq_len = 4;
  config.d_model = 8;
  config.num_heads = 2;
  config.d_ffn = 16;
  config.num_blocks = 2;
  config.out_dim = 2;
  const train::TinyTransformer model(config);
  train::SyntheticRegression dataset(model.InputSize(), 16,
                                     model.OutputSize(), 99);
  ShardedDpOptions options = DpOptions(2);
  options.batch_per_rank = 8;
  ShardedDataParallel dp(&allocator, &model, options);
  ASSERT_TRUE(dp.Init().ok());
  auto report = dp.Train(dataset, 80);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_LT(report->final_train_loss, report->losses.front());
}

TEST(ShardedDpTest, GpuStagingMatchesUnstagedResults) {
  // Staging the gathered parameters through per-rank fast-tier arenas
  // (fp32, page-granular) must not change the math — and must actually
  // drive page movement on every rank.
  train::SyntheticRegression dataset(16, 32, 4, 99);
  std::vector<float> unstaged_params, staged_params;
  for (const bool staging : {false, true}) {
    mem::HierarchicalMemory memory(MemoryOptions());
    core::Allocator allocator(&memory);
    const train::MlpModel model({{16, 32, 4}});
    ShardedDpOptions options = DpOptions(2);
    options.rank_gpu_capacity_bytes = staging ? (2ull << 20) : 0;
    ShardedDataParallel dp(&allocator, &model, options);
    ASSERT_TRUE(dp.Init().ok());
    auto report = dp.Train(dataset, 40);
    ASSERT_TRUE(report.ok()) << report.status();
    auto params = dp.GatherLayerParams(0);
    ASSERT_TRUE(params.ok());
    (staging ? staged_params : unstaged_params) = *params;
  }
  ASSERT_EQ(staged_params.size(), unstaged_params.size());
  for (size_t i = 0; i < staged_params.size(); ++i) {
    EXPECT_EQ(staged_params[i], unstaged_params[i]) << i;  // fp32: exact.
  }
}

TEST(ShardedDpTest, Stage1MatchesStage3) {
  // Stage 1 (optimizer-only sharding) and stage 3 (full sharding) differ
  // in memory and communication, never in math.
  train::SyntheticRegression dataset(16, 32, 4, 99);
  std::vector<float> stage1_params, stage3_params;
  uint64_t stage1_bytes = 0, stage3_bytes = 0;
  for (const ZeroStage stage : {ZeroStage::kStage1, ZeroStage::kStage3}) {
    mem::HierarchicalMemory memory(MemoryOptions());
    core::Allocator allocator(&memory);
    const train::MlpModel model({{16, 32, 4}});
    ShardedDpOptions options = DpOptions(4);
    options.stage = stage;
    ShardedDataParallel dp(&allocator, &model, options);
    ASSERT_TRUE(dp.Init().ok());
    const uint64_t bytes = allocator.allocated_bytes();
    auto report = dp.Train(dataset, 50);
    ASSERT_TRUE(report.ok()) << report.status();
    auto params = dp.GatherLayerParams(0);
    ASSERT_TRUE(params.ok());
    if (stage == ZeroStage::kStage1) {
      stage1_params = *params;
      stage1_bytes = bytes;
    } else {
      stage3_params = *params;
      stage3_bytes = bytes;
    }
  }
  ASSERT_EQ(stage1_params.size(), stage3_params.size());
  for (size_t i = 0; i < stage1_params.size(); ++i) {
    EXPECT_NEAR(stage1_params[i], stage3_params[i], 2e-3) << i;
  }
  // Stage 1 keeps a full parameter replica per rank: strictly more memory.
  EXPECT_GT(stage1_bytes, stage3_bytes);
}

TEST(ShardedDpTest, TrainBeforeInitFails) {
  mem::HierarchicalMemory memory(MemoryOptions());
  core::Allocator allocator(&memory);
  const train::MlpModel model({{4, 4}});
  ShardedDataParallel dp(&allocator, &model, DpOptions(2));
  train::SyntheticRegression dataset(4, 8, 4, 99);
  EXPECT_EQ(dp.Train(dataset, 1).status().code(),
            util::StatusCode::kFailedPrecondition);
}

TEST(ShardedDpTest, InitRejectsBadOptionsAsStatus) {
  // The constructor only records options; every invalid configuration
  // surfaces from Init() as InvalidArgument, never as a crash.
  mem::HierarchicalMemory memory(MemoryOptions());
  core::Allocator allocator(&memory);
  const train::MlpModel model({{4, 4}});

  ShardedDataParallel bad_world(&allocator, &model, DpOptions(0));
  EXPECT_TRUE(bad_world.Init().IsInvalidArgument());

  ShardedDpOptions pg = DpOptions(2);
  pg.backend = DpBackend::kProcessGroup;
  pg.rank = 2;  // Outside [0, world).
  pg.rendezvous = "/tmp/aptm-never.sock";
  ShardedDataParallel bad_rank(&allocator, &model, pg);
  EXPECT_TRUE(bad_rank.Init().IsInvalidArgument());

  pg.rank = 0;
  pg.rendezvous.clear();
  ShardedDataParallel no_rendezvous(&allocator, &model, pg);
  EXPECT_TRUE(no_rendezvous.Init().IsInvalidArgument());
}

TEST(ShardedDpTest, SocketBackendMatchesThreadBackendBitwise) {
  // The tentpole property at the ShardedDataParallel level: the same job
  // over the kProcessGroup backend (each rank its own instance, own
  // allocator, real sockets) lands on bit-identical losses and parameters
  // as the kInProcess thread backend.
  const int world = 2;
  const int steps = 25;
  const std::string rendezvous =
      "/tmp/aptm-sdp-" + std::to_string(::getpid()) + ".sock";

  std::vector<double> thread_losses;
  std::vector<std::vector<float>> thread_params;
  {
    mem::HierarchicalMemory memory(MemoryOptions());
    core::Allocator allocator(&memory);
    const train::MlpModel model({{16, 32, 4}});
    train::SyntheticRegression dataset(16, 32, 4, 99);
    ShardedDataParallel dp(&allocator, &model, DpOptions(world));
    ASSERT_TRUE(dp.Init().ok());
    auto report = dp.Train(dataset, steps);
    ASSERT_TRUE(report.ok()) << report.status();
    thread_losses = report->losses;
    for (int l = 0; l < model.num_layers(); ++l) {
      auto params = dp.GatherLayerParams(l);
      ASSERT_TRUE(params.ok());
      thread_params.push_back(*params);
    }
  }

  std::vector<double> socket_losses;
  std::vector<std::vector<float>> socket_params;
  {
    std::vector<util::Status> statuses(world, util::Status::OK());
    std::vector<std::thread> ranks;
    for (int r = 0; r < world; ++r) {
      ranks.emplace_back([&, r] {
        // Each "process": private memory, allocator, and model instance.
        mem::HierarchicalMemory memory(MemoryOptions());
        core::Allocator allocator(&memory);
        const train::MlpModel model({{16, 32, 4}});
        train::SyntheticRegression dataset(16, 32, 4, 99);
        ShardedDpOptions options = DpOptions(world);
        options.backend = DpBackend::kProcessGroup;
        options.rank = r;
        options.rendezvous = rendezvous;
        ShardedDataParallel dp(&allocator, &model, options);
        statuses[r] = dp.Init();
        if (!statuses[r].ok()) return;
        auto report = dp.Train(dataset, steps);
        if (!report.ok()) {
          statuses[r] = report.status();
          return;
        }
        // GatherLayerParams is a collective here: both ranks call it for
        // every layer, rank 0 records.
        for (int l = 0; l < model.num_layers(); ++l) {
          auto params = dp.GatherLayerParams(l);
          if (!params.ok()) {
            statuses[r] = params.status();
            return;
          }
          if (r == 0) socket_params.push_back(*params);
        }
        if (r == 0) socket_losses = report->losses;
      });
    }
    for (auto& t : ranks) t.join();
    for (const auto& status : statuses) ASSERT_TRUE(status.ok()) << status;
  }

  ASSERT_EQ(socket_losses.size(), thread_losses.size());
  for (size_t s = 0; s < thread_losses.size(); ++s) {
    EXPECT_EQ(socket_losses[s], thread_losses[s]) << "step " << s;
  }
  ASSERT_EQ(socket_params.size(), thread_params.size());
  for (size_t l = 0; l < thread_params.size(); ++l) {
    ASSERT_EQ(socket_params[l].size(), thread_params[l].size());
    for (size_t i = 0; i < thread_params[l].size(); ++i) {
      ASSERT_EQ(socket_params[l][i], thread_params[l][i])
          << "layer " << l << " element " << i;
    }
  }
}

TEST(ShardedDpTest, CheckpointResumeStaysOnTrajectory) {
  // A job that trains 10 steps straight and a job that trains 4 steps,
  // "dies", and resumes from its shard checkpoints must end on identical
  // parameters — the data stream replays from the seed and the shard
  // states carry the optimizer forward.
  char pattern[] = "/tmp/aptm-res-XXXXXX";
  ASSERT_NE(::mkdtemp(pattern), nullptr);
  const std::string ckpt_dir = pattern;
  train::SyntheticRegression dataset(16, 32, 4, 99);
  const int steps = 10;

  std::vector<float> straight_params;
  {
    mem::HierarchicalMemory memory(MemoryOptions());
    core::Allocator allocator(&memory);
    const train::MlpModel model({{16, 32, 4}});
    ShardedDataParallel dp(&allocator, &model, DpOptions(2));
    ASSERT_TRUE(dp.Init().ok());
    auto report = dp.Train(dataset, steps);
    ASSERT_TRUE(report.ok()) << report.status();
    EXPECT_EQ(report->resumed_step, 0);
    auto params = dp.GatherLayerParams(0);
    ASSERT_TRUE(params.ok());
    straight_params = *params;
  }

  ShardedDpOptions options = DpOptions(2);
  options.checkpoint_every_n_steps = 2;
  options.checkpoint_dir = ckpt_dir;
  {
    // First incarnation: 4 steps, shard files at steps 2 and 4.
    mem::HierarchicalMemory memory(MemoryOptions());
    core::Allocator allocator(&memory);
    const train::MlpModel model({{16, 32, 4}});
    ShardedDataParallel dp(&allocator, &model, options);
    ASSERT_TRUE(dp.Init().ok());
    ASSERT_TRUE(dp.Train(dataset, 4).ok());
  }
  {
    // Restarted incarnation: resumes at step 4, finishes the job.
    mem::HierarchicalMemory memory(MemoryOptions());
    core::Allocator allocator(&memory);
    const train::MlpModel model({{16, 32, 4}});
    ShardedDataParallel dp(&allocator, &model, options);
    ASSERT_TRUE(dp.Init().ok());
    auto report = dp.Train(dataset, steps);
    ASSERT_TRUE(report.ok()) << report.status();
    EXPECT_EQ(report->resumed_step, 4);
    auto params = dp.GatherLayerParams(0);
    ASSERT_TRUE(params.ok());
    ASSERT_EQ(params->size(), straight_params.size());
    for (size_t i = 0; i < straight_params.size(); ++i) {
      ASSERT_EQ((*params)[i], straight_params[i]) << i;
    }
  }
  std::error_code ec;
  std::filesystem::remove_all(ckpt_dir, ec);
}

}  // namespace
}  // namespace angelptm::dist
