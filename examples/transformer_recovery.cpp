// Pre-training failure recovery (Section 3.1): a real Transformer trains
// through the paged Engine; we checkpoint mid-run, simulate a failure by
// tearing the engine down, bring up a fresh one, restore the checkpoint,
// and continue — the loss curve resumes where it left off instead of
// restarting from scratch.
//
//   build/examples/transformer_recovery

#include <unistd.h>

#include <cstdio>
#include <memory>
#include <string>

#include "core/checkpoint.h"
#include "core/engine.h"
#include "train/dataset.h"
#include "train/kernels.h"
#include "train/transformer.h"
#include "util/random.h"

namespace {

using namespace angelptm;

std::unique_ptr<core::Engine> MakeEngine(const train::TinyTransformer& model,
                                         util::Rng* rng) {
  core::EngineOptions options;
  options.memory.page_bytes = 16 * 1024;
  options.memory.gpu_capacity_bytes = 512 * 1024;
  options.memory.cpu_capacity_bytes = 64ull << 20;
  options.optimizer.learning_rate = 1e-3;
  auto engine = core::Engine::Create(options);
  ANGEL_CHECK_OK(engine.status());
  for (int l = 0; l < model.num_layers(); ++l) {
    ANGEL_CHECK_OK(
        (*engine)->RegisterLayer(model.InitLayerParams(l, rng)).status());
  }
  return std::move(*engine);
}

double TrainSteps(core::Engine* engine, const train::TinyTransformer& model,
                  const train::SyntheticRegression& dataset, util::Rng* rng,
                  int steps) {
  const size_t batch = 16;
  std::vector<float> x, y;
  double loss = 0;
  for (int step = 0; step < steps; ++step) {
    dataset.GenBatch(rng, batch, &x, &y);
    ANGEL_CHECK_OK(engine->BeginStep());
    std::vector<train::LayerStash> stash(model.num_layers());
    std::vector<float> acts = x;
    for (int l = 0; l < model.num_layers(); ++l) {
      auto params = engine->UseLayerParams(l);
      ANGEL_CHECK_OK(params.status());
      std::vector<float> next;
      model.Forward(l, params->data(), acts, batch, &next, &stash[l]);
      acts = std::move(next);
    }
    std::vector<float> grad(acts.size());
    loss = train::MseLoss(acts.data(), y.data(), grad.data(), acts.size());
    for (int l = model.num_layers() - 1; l >= 0; --l) {
      auto params = engine->UseLayerParams(l);
      ANGEL_CHECK_OK(params.status());
      std::vector<float> grad_in, grad_params;
      model.Backward(l, params->data(), stash[l], grad, batch, &grad_in,
                     &grad_params);
      ANGEL_CHECK_OK(engine->PushGrads(l, grad_params));
      grad = std::move(grad_in);
    }
    ANGEL_CHECK_OK(engine->EndStep());
  }
  return loss;
}

}  // namespace

int main() {
  const std::string checkpoint_path =
      "/tmp/angelptm_recovery_" + std::to_string(::getpid()) + ".ckpt";
  train::TransformerConfig config;
  config.seq_len = 8;
  config.d_model = 16;
  config.num_heads = 4;
  config.d_ffn = 32;
  config.num_blocks = 3;
  config.out_dim = 2;
  const train::TinyTransformer model(config);
  train::SyntheticRegression dataset(model.InputSize(), 32,
                                     model.OutputSize(), 99);
  util::Rng rng(42);

  auto engine = MakeEngine(model, &rng);
  std::printf("phase 1: training a %d-block Transformer (d=%zu, %zu heads)"
              " through the paged engine\n",
              config.num_blocks, config.d_model, config.num_heads);
  double loss = TrainSteps(engine.get(), model, dataset, &rng, 120);
  std::printf("  after 120 steps: loss %.4f -- writing checkpoint\n", loss);
  ANGEL_CHECK_OK(core::SaveCheckpoint(engine->updater(), checkpoint_path));

  std::printf("phase 2: simulated failure -- engine destroyed, all tiers "
              "released\n");
  engine.reset();

  std::printf("phase 3: recovery -- fresh engine, restore, continue\n");
  util::Rng rng2(43);  // New process: different init is fine, we restore.
  auto recovered = MakeEngine(model, &rng2);
  ANGEL_CHECK_OK(
      core::LoadCheckpoint(recovered->updater(), checkpoint_path));
  loss = TrainSteps(recovered.get(), model, dataset, &rng, 5);
  std::printf("  first losses after restore: %.4f (continues converged, "
              "no restart from scratch)\n",
              loss);
  loss = TrainSteps(recovered.get(), model, dataset, &rng, 115);
  std::printf("  after 120 more steps: loss %.4f\n", loss);

  std::remove(checkpoint_path.c_str());
  std::printf("\nWith hundreds of GPUs for weeks, failures are a certainty\n"
              "(Section 3.1); checkpoint/restore over the fp32 master states\n"
              "is what makes pre-training restartable.\n");
  return 0;
}
