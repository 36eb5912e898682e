// ZeRO sharded data parallelism for real (Section 3.2 "Parameter
// Sharding"): four rank threads train one model with stage-3 sharding —
// per-layer all-gathers materialize full parameters, reduce-scatter
// synchronizes gradients, each rank Adam-updates only its shard — and the
// result matches single-rank training bit-for-bit-ish.
//
//   build/examples/zero_data_parallel

#include <cmath>
#include <cstdio>

#include "dist/sharded_data_parallel.h"
#include "train/mlp.h"
#include "util/units.h"

int main() {
  using namespace angelptm;

  mem::HierarchicalMemoryOptions memory_options;
  memory_options.page_bytes = 16 * 1024;
  memory_options.gpu_capacity_bytes = 4ull << 20;
  memory_options.cpu_capacity_bytes = 128ull << 20;

  const train::MlpModel model({{16, 64, 64, 4}});
  train::SyntheticRegression dataset(16, 32, 4, 99);

  double single_loss = 0;
  std::vector<float> single_params;
  for (const int world : {1, 4}) {
    mem::HierarchicalMemory memory(memory_options);
    core::Allocator allocator(&memory);
    dist::ShardedDpOptions options;
    options.world_size = world;
    options.batch_per_rank = 32 / world;  // Constant global batch.
    options.optimizer.learning_rate = 3e-3;
    options.seed = 11;
    dist::ShardedDataParallel dp(&allocator, &model, options);
    ANGEL_CHECK_OK(dp.Init());
    auto report = dp.Train(dataset, 150);
    ANGEL_CHECK_OK(report.status());
    auto params = dp.GatherLayerParams(0);
    ANGEL_CHECK_OK(params.status());

    std::printf("world=%d: loss %.4f -> %.4f (valid %.4f), %llu "
                "collectives, %s of shard states\n",
                world, report->losses.front(), report->final_train_loss,
                report->validation_loss,
                (unsigned long long)report->collectives,
                util::FormatBytes(allocator.allocated_bytes()).c_str());
    if (world == 1) {
      single_loss = report->final_train_loss;
      single_params = *params;
    } else {
      double max_delta = 0;
      for (size_t i = 0; i < params->size(); ++i) {
        max_delta = std::max(
            max_delta, double(std::abs((*params)[i] - single_params[i])));
      }
      std::printf("\n4-rank result vs single rank: final-loss delta %.2e, "
                  "max param delta %.2e\n",
                  std::abs(report->final_train_loss - single_loss),
                  max_delta);
    }
  }
  std::printf("\nSame math, 4x the compute: this scale-transparency is why\n"
              "the paper picks sharded data parallelism as the base strategy\n"
              "-- users re-run with more GPUs and nothing else changes.\n");
  return 0;
}
