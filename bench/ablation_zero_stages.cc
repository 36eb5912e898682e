// Ablation of ZeRO optimization stages (§2.3 / §7 related work), measured
// on real multi-rank training: stage 1 shards only the optimizer states
// (full parameter replica per rank), stage 3 also shards the parameters —
// trading an all-gather per layer per step for a 1/N parameter footprint.
// Angel-PTM builds on stage 3 plus hierarchical memory.

#include <chrono>
#include <iostream>

#include "bench/bench_util.h"
#include "dist/sharded_data_parallel.h"
#include "train/mlp.h"
#include "util/table_printer.h"
#include "util/units.h"

int main() {
  using namespace angelptm;
  bench::PrintHeader("Ablation: ZeRO stage 1 vs stage 3 (real training)",
                     "Section 2.3 (Zero Redundancy Optimization)");

  const train::MlpModel model({{64, 512, 512, 512, 8}});
  train::SyntheticRegression dataset(64, 64, 8, 99);

  util::TablePrinter table({"Stage", "state bytes (all ranks)",
                            "collectives", "steps/s", "final loss"});
  for (const dist::ZeroStage stage :
       {dist::ZeroStage::kStage1, dist::ZeroStage::kStage3}) {
    mem::HierarchicalMemoryOptions memory_options;
    memory_options.page_bytes = 64 * 1024;
    memory_options.gpu_capacity_bytes = 4ull << 20;
    memory_options.cpu_capacity_bytes = 256ull << 20;
    mem::HierarchicalMemory memory(memory_options);
    core::Allocator allocator(&memory);

    dist::ShardedDpOptions options;
    options.stage = stage;
    options.world_size = 4;
    options.batch_per_rank = 8;
    options.optimizer.learning_rate = 3e-3;
    options.seed = 11;
    dist::ShardedDataParallel dp(&allocator, &model, options);
    ANGEL_CHECK_OK(dp.Init());
    const uint64_t state_bytes = allocator.allocated_bytes();

    const auto start = std::chrono::steady_clock::now();
    auto report = dp.Train(dataset, 60);
    ANGEL_CHECK_OK(report.status());
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    table.AddRow({stage == dist::ZeroStage::kStage1 ? "1 (optimizer only)"
                                                    : "3 (params too)",
                  util::FormatBytes(state_bytes),
                  std::to_string(report->collectives),
                  util::FormatDouble(60.0 / seconds, 1),
                  util::FormatDouble(report->final_train_loss, 4)});
  }
  table.Print(std::cout, "4 rank threads, MLP 64-512-512-512-8");
  std::cout << "\nSame final loss (same math); stage 3 holds ~1/4 of stage\n"
               "1's parameter bytes at the cost of per-layer all-gathers —\n"
               "the memory/communication trade the paper's design builds on\n"
               "before adding hierarchical memory underneath it.\n";
  return 0;
}
