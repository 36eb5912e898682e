// Quickstart: the Fig. 6 programming model in C++.
//
// Register a model's layers with the Engine, then drive training steps with
// the Use/Push protocol. The engine handles what Angel-PTM's runtime
// handles: staging fp16 working parameters into the fast tier page by page,
// tracing the first iteration, scheduling prefetches with Algorithm 1, and
// updating through mixed-precision Adam.
//
//   build/examples/quickstart

#include <cstdio>

#include "core/engine.h"
#include "mem/memory_report.h"
#include "train/dataset.h"
#include "train/kernels.h"
#include "train/mlp.h"
#include "util/random.h"
#include "util/units.h"

int main() {
  using namespace angelptm;

  // 1. Configure the hierarchical memory: a deliberately tiny 256 KiB
  //    "GPU" tier so the paging machinery is visibly exercised.
  core::EngineOptions options;
  options.memory.page_bytes = 16 * 1024;
  options.memory.gpu_capacity_bytes = 256 * 1024;
  options.memory.cpu_capacity_bytes = 64ull << 20;
  options.optimizer.learning_rate = 3e-3;

  auto engine = core::Engine::Create(options);
  ANGEL_CHECK_OK(engine.status());

  // 2. Define a model and register its layers (angelptm.initialize).
  train::MlpModel model({{16, 128, 128, 4}});
  util::Rng rng(42);
  for (int l = 0; l < model.num_layers(); ++l) {
    ANGEL_CHECK_OK(
        (*engine)->RegisterLayer(model.InitLayerParams(l, &rng)).status());
  }

  // 3. Train: forward, loss, backward — fetching parameters through the
  //    engine each time they are needed (the engine learns the access
  //    pattern on step 0 and prefetches from step 1 on).
  train::SyntheticRegression dataset(16, 32, 4, 7);
  const size_t batch = 32;
  std::vector<float> x, y;
  for (int step = 0; step < 200; ++step) {
    dataset.GenBatch(&rng, batch, &x, &y);
    ANGEL_CHECK_OK((*engine)->BeginStep());

    std::vector<train::LayerStash> stash(model.num_layers());
    std::vector<float> acts = x;
    for (int l = 0; l < model.num_layers(); ++l) {
      auto params = (*engine)->UseLayerParams(l);
      ANGEL_CHECK_OK(params.status());
      std::vector<float> next;
      model.Forward(l, params->data(), acts, batch, &next, &stash[l]);
      acts = std::move(next);
    }
    std::vector<float> grad(acts.size());
    const double loss =
        train::MseLoss(acts.data(), y.data(), grad.data(), acts.size());

    for (int l = model.num_layers() - 1; l >= 0; --l) {
      auto params = (*engine)->UseLayerParams(l);
      ANGEL_CHECK_OK(params.status());
      std::vector<float> grad_in, grad_params;
      model.Backward(l, params->data(), stash[l], grad, batch, &grad_in,
                     &grad_params);
      ANGEL_CHECK_OK((*engine)->PushGrads(l, grad_params));
      grad = std::move(grad_in);
    }
    ANGEL_CHECK_OK((*engine)->EndStep());

    if (step % 40 == 0 || step == 199) {
      std::printf("step %3d  loss %.4f\n", step, loss);
    }
  }

  // 4. What the runtime did underneath.
  const core::Schedule* schedule = (*engine)->schedule();
  std::printf(
      "\nunified schedule: %zu tasks, peak GPU %s, %zu pages prefetched at "
      "step start, %zu gathers advanced by phase 2\n",
      schedule->tasks.size(),
      util::FormatBytes(schedule->peak_gpu_bytes).c_str(),
      schedule->pages_prefetched_at_start, schedule->gathers_advanced);
  std::printf("prefetch hits %llu / waits %llu\n",
              (unsigned long long)(*engine)->prefetch_hits(),
              (unsigned long long)(*engine)->prefetch_waits());
  std::printf("%s",
              mem::FormatMemoryReport((*engine)->memory()->Snapshot()).c_str());
  return 0;
}
