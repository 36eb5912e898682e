#include "train/loss_scaler.h"

#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "train/dataset.h"
#include "train/engine_trainer.h"
#include "train/mlp.h"

namespace angelptm::train {
namespace {

TEST(LossScalerTest, StartsAtInitialScale) {
  LossScaler scaler;
  EXPECT_DOUBLE_EQ(scaler.scale(), 65536.0);
}

TEST(LossScalerTest, OverflowBacksOffAndSkips) {
  LossScaler scaler;
  EXPECT_FALSE(scaler.Update(/*overflowed=*/true));
  EXPECT_DOUBLE_EQ(scaler.scale(), 32768.0);
  EXPECT_EQ(scaler.overflows(), 1u);
  EXPECT_FALSE(scaler.Update(true));
  EXPECT_DOUBLE_EQ(scaler.scale(), 16384.0);
}

TEST(LossScalerTest, GrowsAfterInterval) {
  LossScaler::Options options;
  options.initial_scale = 8.0;
  options.growth_interval = 3;
  LossScaler scaler(options);
  EXPECT_TRUE(scaler.Update(false));
  EXPECT_TRUE(scaler.Update(false));
  EXPECT_DOUBLE_EQ(scaler.scale(), 8.0);  // Not yet.
  EXPECT_TRUE(scaler.Update(false));
  EXPECT_DOUBLE_EQ(scaler.scale(), 16.0);
  EXPECT_EQ(scaler.growths(), 1u);
}

TEST(LossScalerTest, OverflowResetsGrowthCounter) {
  LossScaler::Options options;
  options.initial_scale = 8.0;
  options.growth_interval = 2;
  LossScaler scaler(options);
  EXPECT_TRUE(scaler.Update(false));
  EXPECT_FALSE(scaler.Update(true));  // Back to 4, counter reset.
  EXPECT_TRUE(scaler.Update(false));
  EXPECT_DOUBLE_EQ(scaler.scale(), 4.0);  // One good step only.
  EXPECT_TRUE(scaler.Update(false));
  EXPECT_DOUBLE_EQ(scaler.scale(), 8.0);
}

TEST(LossScalerTest, RespectsBounds) {
  LossScaler::Options options;
  options.initial_scale = 2.0;
  options.min_scale = 1.0;
  options.max_scale = 4.0;
  options.growth_interval = 1;
  LossScaler scaler(options);
  scaler.Update(true);
  scaler.Update(true);
  scaler.Update(true);
  EXPECT_DOUBLE_EQ(scaler.scale(), 1.0);  // Floor.
  for (int i = 0; i < 10; ++i) scaler.Update(false);
  EXPECT_DOUBLE_EQ(scaler.scale(), 4.0);  // Ceiling.
}

TEST(LossScalerTest, DetectsNonFinite) {
  EXPECT_FALSE(LossScaler::HasNonFinite({1.0f, -2.0f, 0.0f}));
  EXPECT_TRUE(LossScaler::HasNonFinite(
      {1.0f, std::numeric_limits<float>::infinity()}));
  EXPECT_TRUE(LossScaler::HasNonFinite({std::nanf("")}));
}

EngineTrainerOptions ScaledOptions() {
  EngineTrainerOptions options;
  options.engine.memory.page_bytes = 16 * 1024;
  options.engine.memory.gpu_capacity_bytes = 4ull << 20;
  options.engine.memory.cpu_capacity_bytes = 32ull << 20;
  options.engine.optimizer.learning_rate = 3e-3;
  options.batch_size = 32;
  options.offload_activations = false;
  options.use_loss_scaling = true;
  options.seed = 7;
  return options;
}

TEST(LossScalerTest, TrainerWithScalingStillConverges) {
  const MlpModel model({{16, 64, 4}});
  EngineTrainerOptions options = ScaledOptions();
  options.loss_scaler.initial_scale = 1024.0;
  EngineTrainer trainer(&model, options);
  ASSERT_TRUE(trainer.Init().ok());
  SyntheticRegression dataset(16, 32, 4, 99);
  auto report = trainer.Train(dataset, 200);
  ASSERT_TRUE(report.ok());
  // Scaled/unscaled training matches unscaled quality: grads are exact
  // multiples here, so convergence must be unaffected.
  EXPECT_LT(report->final_train_loss, report->losses.front() / 5);
  EXPECT_EQ(report->overflow_steps_skipped, 0u);
  EXPECT_DOUBLE_EQ(report->final_loss_scale, 2048.0);  // Grew once at 200.
}

TEST(LossScalerTest, TrainerSkipsOverflowedSteps) {
  // A pathological scale guarantees inf gradients: every step must be
  // skipped, parameters unchanged, and the scale must decay. Every step
  // still runs its whole backward, so the traced first step (itself
  // overflowed) yields a complete schedule.
  const MlpModel model({{16, 64, 4}});
  EngineTrainerOptions options = ScaledOptions();
  // Large enough that even after ten 0.5x backoffs the scaled gradients
  // still exceed float max (~3.4e38), so every step overflows.
  options.loss_scaler.initial_scale = 3e42;
  options.loss_scaler.min_scale = 1.0;
  EngineTrainer trainer(&model, options);
  ASSERT_TRUE(trainer.Init().ok());
  std::vector<float> before;
  ASSERT_TRUE(trainer.engine()->updater()->ReadMasterParams(0, &before).ok());
  SyntheticRegression dataset(16, 32, 4, 99);
  auto report = trainer.Train(dataset, 10);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->overflow_steps_skipped, 10u);
  EXPECT_EQ(report->telemetry.updater.updates_applied, 0u);
  std::vector<float> after;
  ASSERT_TRUE(trainer.engine()->updater()->ReadMasterParams(0, &after).ok());
  EXPECT_EQ(before, after);
  EXPECT_LT(report->final_loss_scale, 3e42);
  // Two uses (forward + backward) per layer on each post-trace step.
  ASSERT_NE(trainer.engine()->schedule(), nullptr);
  EXPECT_EQ(trainer.engine()->scheduled_uses(),
            2u * uint64_t(model.num_layers()) * (10 - 1));
}

}  // namespace
}  // namespace angelptm::train
