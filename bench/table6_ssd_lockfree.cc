// Regenerates the paper's Table 6: training extreme-scale T5-MoE models
// with fp32 states on SSD, with and without the Lock-Free Updating
// Mechanism (Algorithm 2).
//
// Two parts:
//  (1) Simulated cluster throughput — T5-MoE-1T on 64 GPUs and T5-MoE-10T
//      on 576 GPUs (the paper's configurations), sync vs lock-free. Paper:
//      37.26 samples/s (1T@64), 317.82 -> 942.31 samples/s (10T@576,
//      2.96x from lock-free).
//  (2) REAL convergence — an actual mixed-precision model trained through
//      the real lock-free updater with fp32 masters on a bandwidth-
//      throttled file-backed SSD tier. This reproduces the valid-loss
//      column's claim: asynchronous staleness does not harm convergence,
//      while throughput multiplies.

#include <unistd.h>

#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>

#include "bench/bench_util.h"
#include "dist/expert_parallel.h"
#include "model/model_zoo.h"
#include "sim/planner.h"
#include "train/mlp.h"
#include "train/trainer.h"
#include "util/table_printer.h"
#include "util/units.h"

namespace {

using namespace angelptm;

/// Host-cache miss rate of the updating thread calibrated so the 10T
/// lock-free speedup lands near the paper's 2.96x (see EXPERIMENTS.md: the
/// paper's per-iteration SSD traffic is not derivable from its stated
/// numbers, so this hit rate is the one calibrated constant here).
constexpr double kSsdStateFraction = 0.008;

void SimulatedPart() {
  util::TablePrinter table({"System", "#Params", "#GPUs", "Samples/s",
                            "GPU idle", "Update lag"});
  struct Config {
    const char* label;
    int gpus;
    int experts_per_gpu;
    bool lock_free;
  };
  // 29 experts/GPU/layer on 64 GPUs ~= 1T params; 32 on 576 ~= 10T.
  const Config configs[] = {
      {"Angel-PTM", 64, 29, false},
      {"Angel-PTM", 576, 32, false},
      {"+ Lock-Free", 576, 32, true},
  };
  double sync_576 = 0, lockfree_576 = 0;
  for (const Config& c : configs) {
    dist::ExpertParallelRequest request;
    request.model = *model::FindModel("T5-MoE-1.2T");
    request.hw = sim::PaperServer();
    request.num_gpus = c.gpus;
    request.experts_per_gpu = c.experts_per_gpu;
    request.micro_batch = 32;
    request.use_ssd = true;
    request.ssd_state_fraction = kSsdStateFraction;
    request.lock_free = c.lock_free;
    auto plan = dist::PlanExpertParallel(request);
    if (!plan.ok()) {
      table.AddRow({c.label, "-", std::to_string(c.gpus),
                    plan.status().ToString(), "-", "-"});
      continue;
    }
    const sim::IterationResult result = sim::SimulateIteration(plan->spec);
    const double throughput =
        double(c.gpus) * request.micro_batch / result.iteration_seconds;
    if (c.gpus == 576) (c.lock_free ? lockfree_576 : sync_576) = throughput;
    table.AddRow(
        {c.label,
         util::FormatParamCount(dist::ExpertParallelModelParams(request)),
         std::to_string(c.gpus), util::FormatDouble(throughput, 2),
         util::FormatDouble(100.0 * result.GpuIdleFraction(), 0) + "%",
         util::FormatDouble(result.optimizer_lag_seconds, 1) + " s"});
  }
  table.Print(std::cout, "Simulated cluster throughput with SSD states");
  if (sync_576 > 0 && lockfree_576 > 0) {
    std::cout << "Lock-free speedup at 10T/576 GPUs: "
              << util::FormatDouble(lockfree_576 / sync_576, 2)
              << "x (paper: 2.96x).\n";
  }
  std::cout << "\n";
}

void RealConvergencePart(const std::string& json_path) {
  std::cout << "Real training: MLP 32-256-256-8, batch 64, fp32 masters on a\n"
            << "file-backed SSD tier throttled to 200 MB/s (scaled-down\n"
            << "analog of the 3.5 GB/s SSD vs the model-state volume).\n\n";
  train::SyntheticRegression dataset(32, 64, 8, 99);
  std::ostringstream json;
  json << std::setprecision(6) << std::fixed;
  util::TablePrinter table({"Mode", "steps/s", "final train loss",
                            "valid loss", "updates", "peak staleness"});
  double sync_rate = 0, lockfree_rate = 0;
  double sync_loss = 0, lockfree_loss = 0;
  for (const bool lock_free : {false, true}) {
    mem::HierarchicalMemoryOptions memory_options;
    memory_options.page_bytes = 64 * 1024;
    memory_options.gpu_capacity_bytes = 8ull << 20;
    memory_options.cpu_capacity_bytes = 64ull << 20;
    memory_options.ssd_capacity_bytes = 64ull << 20;
    memory_options.ssd_path = "/tmp/angelptm_table6_" +
                              std::to_string(::getpid()) +
                              (lock_free ? "_lf" : "_sync") + ".bin";
    memory_options.ssd_bandwidth_bytes_per_sec = 200e6;
    mem::HierarchicalMemory memory(memory_options);
    core::Allocator allocator(&memory);

    const train::MlpModel model({{32, 256, 256, 8}});
    train::TrainerOptions options;
    options.adam.learning_rate = 3e-3;
    options.batch_size = 64;
    options.seed = 7;
    options.master_device = mem::DeviceKind::kSsd;
    options.lock_free = lock_free;
    train::Trainer trainer(&allocator, &model, options);
    ANGEL_CHECK_OK(trainer.Init());
    auto report = trainer.Train(dataset, 400);
    ANGEL_CHECK_OK(report.status());
    (lock_free ? lockfree_rate : sync_rate) = report->steps_per_second;
    (lock_free ? lockfree_loss : sync_loss) = report->validation_loss;
    table.AddRow({lock_free ? "+ Lock-Free" : "Synchronous (SSD-bound)",
                  util::FormatDouble(report->steps_per_second, 0),
                  util::FormatDouble(report->final_train_loss, 4),
                  util::FormatDouble(report->validation_loss, 4),
                  std::to_string(report->telemetry.updater.updates_applied),
                  std::to_string(report->telemetry.updater.staleness.Max())});
    json << (lock_free ? ",\n" : "") << "    {\"mode\": \""
         << (lock_free ? "lock_free" : "synchronous")
         << "\", \"steps_per_second\": " << report->steps_per_second
         << ", \"validation_loss\": " << report->validation_loss
         << ",\n     \"telemetry\": "
         << bench::TelemetryJson(report->telemetry) << "}";
  }
  table.Print(std::cout, "Real lock-free training (400 steps each)");
  std::cout << "Throughput gain: "
            << util::FormatDouble(lockfree_rate / sync_rate, 2)
            << "x; valid loss " << util::FormatDouble(sync_loss, 4) << " -> "
            << util::FormatDouble(lockfree_loss, 4)
            << " (paper: 2.96x speedup, 0.853 -> 0.861: quality preserved\n"
               "within noise while the GPU never blocks on the optimizer).\n";

  std::ofstream out(json_path);
  out << "{\n  \"bench\": \"table6_ssd_lockfree\",\n  \"modes\": [\n"
      << json.str() << "\n  ],\n  \"metrics\": " << bench::MetricsJson()
      << "\n}\n";
  if (out.flush()) {
    std::cout << "Wrote " << json_path << "\n";
  } else {
    std::cerr << "warning: could not write " << json_path << "\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  bench::PrintHeader(
      "Table 6: SSD-backed extreme scale + Lock-Free Updating",
      "Table 6 (Section 6.5)");
  SimulatedPart();
  RealConvergencePart(argc > 1 ? argv[1] : "BENCH_table6.json");
  return 0;
}
