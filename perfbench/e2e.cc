// End-to-end training benchmark driver (built and launched by run.py).
//
//   perfbench_e2e --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 --workdir <dir> [--spans <file>]
//
// --trace 0 measures the end-to-end metrics through the public training
// entry points (train::EngineTrainer, dist::ShardedDataParallel).
// --trace 1 drives the same job a second way, with a span around every call
// into the system, and prints the per-layer step ledger plus the fidelity
// and coverage checks. Every file the run creates (SSD backing files,
// checkpoints, rendezvous sockets) lives under --workdir, which the caller
// owns and removes.
//
// Stdout: log lines, then one JSON object as the last line:
//   {"correct": bool, "attempted": n, "failed": n, "metrics": {...}}

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/checkpoint_manager.h"
#include "core/engine.h"
#include "dist/process_group.h"
#include "dist/sharded_data_parallel.h"
#include "train/dataset.h"
#include "train/engine_trainer.h"
#include "train/kernels.h"
#include "train/simd/dispatch.h"
#include "train/transformer.h"
#include "util/parallel_for.h"
#include "util/random.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace angelptm;
using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Linear-interpolated quantile of raw samples (q in [0, 1]).
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * double(v.size() - 1);
  const size_t lo = size_t(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - double(lo)) * (v[hi] - v[lo]);
}

double MaxOf(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::max_element(v.begin(), v.end());
}

constexpr double kMB = 1024.0 * 1024.0;

// ---------------------------------------------------------------------------
// Workloads. Sizes and the regression task (the teacher network) are part of
// a workload's definition; --seed draws the training batches, the held-out
// batches and the initial parameters.

constexpr uint64_t kTeacherSeed = 99;
constexpr double kLearningRate = 3e-3;
constexpr size_t kPageBytes = 32 * 1024;
constexpr uint64_t kCpuBytes = 64ull << 20;
constexpr uint64_t kSsdBytes = 64ull << 20;
/// Init + warm-up is timed this many times per run; setup_s is the median.
constexpr int kSetupReps = 3;

struct Workload {
  const char* name;
  train::TransformerConfig model;
  /// Engine: the training batch. zero: the per-rank micro-batch.
  size_t batch = 0;
  bool zero = false;
  // Engine memory shape and update mode.
  uint64_t gpu_bytes = 0;
  /// > 0: fp32 masters on the file-backed SSD tier at this emulated speed.
  double ssd_bytes_per_sec = 0.0;
  bool lock_free = false;
  int checkpoint_every = 0;
  // Run shape. setup = Init + warmup_steps; the timed window is a sequence
  // of Train(chunk_steps) calls lasting at least --seconds; valid_loss is
  // read after warmup_steps + quality_chunks * chunk_steps steps, a fixed
  // sample count.
  int warmup_steps = 2;
  int chunk_steps = 8;
  int quality_chunks = 6;
};

train::SyntheticRegression Task(const train::LayeredModel& model) {
  return train::SyntheticRegression(model.InputSize(), 32, model.OutputSize(),
                                    kTeacherSeed);
}

train::TransformerConfig Transformer(size_t seq, size_t d, int blocks) {
  train::TransformerConfig c;
  c.seq_len = seq;
  c.d_model = d;
  c.num_heads = 4;
  c.d_ffn = 4 * d;
  c.num_blocks = blocks;
  // Many outputs per sample keep the held-out MSE steady across seeds.
  c.out_dim = 32;
  return c;
}

std::vector<Workload> Workloads() {
  // Compute-bound: every layer fits the fast tier, masters on CPU.
  Workload resident{"resident_sync", Transformer(32, 96, 6), 16};
  resident.gpu_bytes = 16ull << 20;
  resident.quality_chunks = 10;

  // Paging- and SSD-bound: the fast tier holds about half of the fp16
  // working parameters, fp32 masters on a throttled file-backed SSD.
  Workload ssd{"ssd_sync", Transformer(8, 96, 6), 16};
  ssd.gpu_bytes = 800 * 1024;
  ssd.ssd_bytes_per_sec = 200e6;
  ssd.chunk_steps = 10;
  ssd.quality_chunks = 6;

  // ssd_sync's model, data and memory shape; the updater and the checkpoint
  // writer run beside the compute side's paging.
  Workload lockfree = ssd;
  lockfree.name = "ssd_lockfree";
  lockfree.lock_free = true;
  lockfree.checkpoint_every = 10;

  // ZeRO stage 3 over Unix-socket collectives, world 2, rank threads. No
  // trace step, so one warm-up step.
  Workload zero{"zero_socket", Transformer(32, 96, 6), 8};
  zero.zero = true;
  zero.warmup_steps = 1;
  zero.chunk_steps = 16;
  return {resident, ssd, lockfree, zero};
}

// ---------------------------------------------------------------------------
// Result assembly.

struct MetricDef {
  const char* name;
  const char* unit;
};

/// Printed by every --trace 0 run.
constexpr MetricDef kEndToEnd[] = {
    {"samples_per_s", "samples/s"}, {"valid_loss", "mse"},
    {"setup_s", "s"},               {"peak_rss_mb", "MB"},
    {"step_success_ratio", "ratio"},
};

/// Printed by every --trace 1 run; a layer the workload does not exercise
/// reads 0. Per timed step unless the name says otherwise.
constexpr MetricDef kPerLayer[] = {
    {"data.gen_batch_ms", "ms"},
    {"train.fwd_ms", "ms"},
    {"train.loss_ms", "ms"},
    {"train.recompute_ms", "ms"},
    {"train.bwd_ms", "ms"},
    {"engine.begin_step_ms", "ms"},
    {"engine.use_params_ms", "ms"},
    {"engine.stash_act_ms", "ms"},
    {"engine.fetch_act_ms", "ms"},
    {"engine.push_grads_ms", "ms"},
    {"engine.end_step_ms", "ms"},
    {"engine.prefetch_hit_ratio", "ratio"},
    {"engine.scheduled_uses", "count"},
    {"engine.prefetch_move_failures", "count"},
    {"mem.cpu_to_gpu_mb", "MB"},
    {"mem.gpu_to_cpu_mb", "MB"},
    {"mem.cpu_to_ssd_mb", "MB"},
    {"mem.ssd_to_cpu_mb", "MB"},
    {"mem.page_moves", "count"},
    {"copy.moves_failed", "count"},
    {"ssd.read_mb", "MB"},
    {"ssd.write_mb", "MB"},
    {"ssd.coalesce_ratio", "ratio"},
    {"ssd.io_batches", "count"},
    {"ssd.io_retries", "count"},
    {"updater.updates_per_step", "count"},
    {"updater.batches_per_update", "count"},
    {"updater.staleness_mean", "batches"},
    {"updater.staleness_max", "batches"},
    {"updater.backpressure_waits", "count"},
    {"updater.drain_ms", "ms"},
    {"ckpt.save_ms_p50", "ms"},
    {"ckpt.save_ms_max", "ms"},
    {"ckpt.write_mb", "MB"},
    {"dist.collectives_per_step", "count"},
    {"dist.allgather_ms", "ms"},
    {"dist.reduce_scatter_ms", "ms"},
    {"step.ms_p50", "ms"},
    {"step.ms_p95", "ms"},
    {"step.samples", "count"},
    {"step.unattributed_ms", "ms"},
    {"trace.overhead_ratio", "ratio"},
};

struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, double> metrics;

  void Set(const std::string& name, double value) { metrics[name] = value; }
  void Check(bool ok, const std::string& name, const std::string& detail) {
    std::cout << "check " << name << ": " << (ok ? "ok" : "FAIL") << " ("
              << detail << ")\n";
    if (!ok) correct = false;
  }
  void Fail(const std::string& what, const util::Status& status) {
    std::cout << "error " << what << ": " << status.ToString() << "\n";
    correct = false;
  }
};

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// The last stdout line. An end-to-end metric the run did not reach prints
/// as null (and the run is already marked incorrect).
void PrintResult(const RunResult& r, bool trace) {
  std::ostringstream out;
  out << "{\"correct\": " << (r.correct ? "true" : "false")
      << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
      << ", \"metrics\": {";
  bool first = true;
  auto emit = [&](const MetricDef& def, double fallback) {
    const auto it = r.metrics.find(def.name);
    out << (first ? "" : ", ") << "\"" << def.name << "\": {\"value\": "
        << JsonNumber(it == r.metrics.end() ? fallback : it->second)
        << ", \"unit\": \"" << def.unit << "\"}";
    first = false;
  };
  if (trace) {
    for (const MetricDef& def : kPerLayer) emit(def, 0.0);
  } else {
    for (const MetricDef& def : kEndToEnd) {
      emit(def, std::numeric_limits<double>::quiet_NaN());
    }
  }
  out << "}}";
  std::cout << out.str() << std::endl;
}

double PeakRssMb() {
  struct rusage usage {};
  ::getrusage(RUSAGE_SELF, &usage);
  return double(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB.
}

std::string Bits(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g (0x%016llx)", v,
                static_cast<unsigned long long>(bits));
  return buf;
}

/// Bitwise comparison of two loss series; describes the first mismatch.
bool SameBits(const std::vector<double>& a, const std::vector<double>& b,
              std::string* detail) {
  if (a.size() != b.size()) {
    *detail = "lengths " + std::to_string(a.size()) + " vs " +
              std::to_string(b.size());
    return false;
  }
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::memcmp(&a[i], &b[i], sizeof(double)) != 0) {
      *detail = "step " + std::to_string(i) + ": " + Bits(a[i]) + " vs " +
                Bits(b[i]);
      return false;
    }
  }
  *detail = std::to_string(a.size()) + " losses identical, last " +
            (a.empty() ? std::string("-") : Bits(a.back()));
  return true;
}

void CheckQuality(RunResult* r, const std::string& label, double first_loss,
                  double valid_loss) {
  std::ostringstream detail;
  detail << "valid_loss " << valid_loss << " vs first-step loss "
         << first_loss;
  r->Check(std::isfinite(valid_loss) && valid_loss < first_loss,
           label + ".valid_loss_below_first_step", detail.str());
}

// ---------------------------------------------------------------------------
// Span ledger: the benchmark's own tracing, recorded around each call into
// the system. Spans stay in memory and are written out once at the end.

struct Span {
  const char* name;
  int64_t start_ns;
  int64_t end_ns;
  int32_t parent;  // Index of the enclosing span, -1 for a root.
  int64_t step;    // Global step id, -1 outside a step.
};

class Ledger {
 public:
  Ledger() { spans_.reserve(1 << 16); }

  int32_t Begin(const char* name, int32_t parent, int64_t step) {
    spans_.push_back({name, NowNs(), 0, parent, step});
    return int32_t(spans_.size() - 1);
  }
  void End(int32_t id) { spans_[size_t(id)].end_ns = NowNs(); }

  const std::vector<Span>& spans() const { return spans_; }

  /// Chrome trace-event JSON (loadable in Perfetto / chrome://tracing).
  bool Write(const std::string& path) const {
    std::ofstream out(path);
    if (!out) return false;
    const int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
    out << "{\"traceEvents\": [\n";
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << (i ? ",\n" : "") << "{\"name\": \"" << s.name
          << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": "
          << JsonNumber(double(s.start_ns - t0) / 1e3)
          << ", \"dur\": " << JsonNumber(double(s.end_ns - s.start_ns) / 1e3)
          << ", \"args\": {\"id\": " << i << ", \"parent\": " << s.parent
          << ", \"step\": " << s.step << "}}";
    }
    out << "\n]}\n";
    return bool(out.flush());
  }

 private:
  std::vector<Span> spans_;
};

/// RAII span.
class Timed {
 public:
  Timed(Ledger* ledger, const char* name, int32_t parent, int64_t step)
      : ledger_(ledger), id_(ledger->Begin(name, parent, step)) {}
  ~Timed() { ledger_->End(id_); }
  Timed(const Timed&) = delete;
  Timed& operator=(const Timed&) = delete;
  int32_t id() const { return id_; }

 private:
  Ledger* ledger_;
  int32_t id_;
};

double SpanMs(const Span& s) { return double(s.end_ns - s.start_ns) / 1e6; }

// ---------------------------------------------------------------------------
// Engine workloads.

struct EngineJob {
  const Workload& w;
  uint64_t seed;
  std::string workdir;
  train::TinyTransformer model;
  train::SyntheticRegression dataset;

  EngineJob(const Workload& workload, uint64_t seed_in, std::string dir)
      : w(workload),
        seed(seed_in),
        workdir(std::move(dir)),
        model(workload.model),
        dataset(Task(model)) {}

  train::EngineTrainerOptions Options() const {
    train::EngineTrainerOptions o;
    mem::HierarchicalMemoryOptions& m = o.engine.memory;
    m.page_bytes = kPageBytes;
    m.gpu_capacity_bytes = w.gpu_bytes;
    m.cpu_capacity_bytes = kCpuBytes;
    if (w.ssd_bytes_per_sec > 0) {
      m.ssd_capacity_bytes = kSsdBytes;
      m.ssd_path = workdir + "/ssd.bin";
      m.ssd_bandwidth_bytes_per_sec = w.ssd_bytes_per_sec;
      o.engine.master_device = mem::DeviceKind::kSsd;
    }
    o.engine.optimizer.learning_rate = kLearningRate;
    o.engine.lock_free = w.lock_free;
    o.batch_size = w.batch;
    o.seed = seed;
    if (w.checkpoint_every > 0) {
      o.checkpoint_every_n_steps = w.checkpoint_every;
      o.checkpoint_dir = workdir + "/ckpt";
      o.checkpoint_keep_last = 2;
    }
    return o;
  }
};

/// One EngineTrainer::Train call: adds its losses, returns its samples/s.
std::optional<double> TrainChunk(train::EngineTrainer* trainer,
                                 const EngineJob& job, int steps,
                                 RunResult* r, std::vector<double>* losses,
                                 double* valid_loss) {
  r->attempted += uint64_t(steps);
  auto report = trainer->Train(job.dataset, steps);
  if (!report.ok()) {
    r->failed += uint64_t(steps);
    r->Fail("EngineTrainer::Train", report.status());
    return std::nullopt;
  }
  losses->insert(losses->end(), report->losses.begin(), report->losses.end());
  if (valid_loss != nullptr) *valid_loss = report->validation_loss;
  return double(steps) * double(job.w.batch) / report->wall_seconds;
}

void EngineUntraced(const Workload& w, uint64_t seed, double seconds,
                    const std::string& workdir, RunResult* r) {
  EngineJob job(w, seed, workdir);
  const train::EngineTrainerOptions options = job.Options();
  std::unique_ptr<train::EngineTrainer> trainer;
  std::vector<double> setup_s, losses;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    trainer.reset();  // One engine (and SSD file) alive at a time.
    losses.clear();
    const auto start = Clock::now();
    trainer = std::make_unique<train::EngineTrainer>(&job.model, options);
    const util::Status init = trainer->Init();
    if (!init.ok()) return r->Fail("EngineTrainer::Init", init);
    if (!TrainChunk(trainer.get(), job, w.warmup_steps, r, &losses, nullptr))
      return;
    setup_s.push_back(SecondsSince(start));
  }

  std::vector<double> rates;
  double valid_loss = std::numeric_limits<double>::quiet_NaN();
  const auto start = Clock::now();
  for (int chunk = 0;
       chunk < w.quality_chunks || SecondsSince(start) < seconds; ++chunk) {
    double chunk_valid = 0.0;
    const auto rate =
        TrainChunk(trainer.get(), job, w.chunk_steps, r, &losses, &chunk_valid);
    if (!rate) return;
    rates.push_back(*rate);
    if (chunk + 1 == w.quality_chunks) valid_loss = chunk_valid;
  }
  std::cout << "timed " << rates.size() << " chunks of " << w.chunk_steps
            << " steps; setup samples " << setup_s.size() << "\n";

  CheckQuality(r, "train", losses.front(), valid_loss);
  r->Set("samples_per_s", Median(rates));
  r->Set("valid_loss", valid_loss);
  r->Set("setup_s", Median(setup_s));
  r->Set("peak_rss_mb", PeakRssMb());
}

/// Point-in-time counters of every stats-bearing layer an Engine owns.
struct EngineCounters {
  mem::MemorySnapshot memory;
  mem::SsdTier::Stats ssd;
  mem::CopyEngine::Stats copy;
  core::LockFreeUpdater::Stats updater;
  core::CheckpointManager::Stats ckpt;
  uint64_t prefetch_hits = 0;
  uint64_t scheduled_uses = 0;
  uint64_t prefetch_move_failures = 0;
};

/// The Engine step protocol exactly as train::EngineTrainer drives it (same
/// calls, same order, same RNG stream), with a span around every call.
class MirrorLoop {
 public:
  MirrorLoop(const EngineJob& job, const train::EngineTrainerOptions& options,
             Ledger* ledger)
      : job_(job), options_(options), ledger_(ledger), rng_(options.seed) {}

  util::Status Init() {
    ANGEL_ASSIGN_OR_RETURN(engine_, core::Engine::Create(options_.engine));
    for (int l = 0; l < job_.model.num_layers(); ++l) {
      ANGEL_RETURN_IF_ERROR(
          engine_->RegisterLayer(job_.model.InitLayerParams(l, &rng_))
              .status());
    }
    if (!options_.checkpoint_dir.empty()) {
      core::CheckpointManager::Options o;
      o.dir = options_.checkpoint_dir;
      o.keep_last = options_.checkpoint_keep_last;
      ckpt_ = std::make_unique<core::CheckpointManager>(o);
      ANGEL_RETURN_IF_ERROR(ckpt_->Init());
    }
    return util::Status::OK();
  }

  /// One Train(steps)-shaped range: the step loop, then the lock-free
  /// drain. Returns the range's wall seconds.
  util::Result<double> Chunk(int steps, std::vector<double>* losses,
                             std::vector<double>* pending_samples) {
    const auto start = Clock::now();
    const Timed chunk(ledger_, "chunk", -1, -1);
    std::vector<float> x, y;
    for (int s = 0; s < steps; ++s) {
      {
        const Timed step(ledger_, "step", chunk.id(), global_step_);
        const int32_t parent = step.id();
        {
          const Timed t(ledger_, "data.gen_batch", parent, global_step_);
          job_.dataset.GenBatch(&rng_, options_.batch_size, &x, &y);
        }
        ANGEL_ASSIGN_OR_RETURN(const double loss, Step(x, y, parent));
        global_step_ += 1;
        losses->push_back(loss);
        if (ckpt_ != nullptr && global_step_ % options_.checkpoint_every_n_steps == 0) {
          const Timed t(ledger_, "ckpt.save", parent, global_step_ - 1);
          core::TrainProgress progress;
          progress.global_step = global_step_;
          progress.rng_state = rng_.GetState();
          progress.has_progress = true;
          const util::Status saved = ckpt_->Save(engine_->updater(), progress);
          if (!saved.ok()) {
            std::cout << "warning: checkpoint failed: " << saved.ToString()
                      << "\n";
          }
        }
      }
      if (pending_samples != nullptr) {
        pending_samples->push_back(
            double(engine_->updater()->Snapshot().pending_grad_batches));
      }
    }
    if (options_.engine.lock_free) {
      const Timed t(ledger_, "updater.drain", chunk.id(), -1);
      ANGEL_RETURN_IF_ERROR(engine_->updater()->DrainUpdates(
          std::chrono::milliseconds(options_.drain_deadline_ms)));
    }
    return SecondsSince(start);
  }

  /// EngineTrainer's held-out validation on the master parameters.
  util::Result<double> Validate() {
    util::Rng validation_rng(options_.seed ^ 0x5EEDF00Dull);
    double total = 0.0;
    const int batches = 8;
    std::vector<float> x, y;
    for (int i = 0; i < batches; ++i) {
      job_.dataset.GenBatch(&validation_rng, options_.batch_size, &x, &y);
      std::vector<float> acts = x;
      for (int l = 0; l < job_.model.num_layers(); ++l) {
        std::vector<float> params;
        ANGEL_RETURN_IF_ERROR(engine_->updater()->ReadMasterParams(l, &params));
        std::vector<float> next;
        job_.model.Forward(l, params.data(), acts, options_.batch_size, &next,
                           nullptr);
        acts = std::move(next);
      }
      std::vector<float> grad(acts.size());
      total += train::MseLoss(acts.data(), y.data(), grad.data(), acts.size());
    }
    return total / batches;
  }

  EngineCounters Counters() {
    EngineCounters c;
    c.memory = engine_->memory()->Snapshot();
    if (engine_->memory()->ssd_enabled()) {
      c.ssd = engine_->memory()->ssd()->Snapshot();
    }
    c.copy = engine_->copy_engine()->Snapshot();
    c.updater = engine_->updater()->Snapshot();
    if (ckpt_ != nullptr) c.ckpt = ckpt_->Snapshot();
    c.prefetch_hits = engine_->prefetch_hits();
    c.scheduled_uses = engine_->scheduled_uses();
    c.prefetch_move_failures = engine_->prefetch_move_failures();
    return c;
  }

 private:
  util::Result<double> Step(const std::vector<float>& x,
                            const std::vector<float>& y, int32_t parent) {
    const int num_layers = job_.model.num_layers();
    const size_t batch = options_.batch_size;
    const bool offload = options_.offload_activations;
    const int64_t id = global_step_;
    core::Engine* engine = engine_.get();
    {
      const Timed t(ledger_, "engine.begin_step", parent, id);
      ANGEL_RETURN_IF_ERROR(engine->BeginStep());
    }
    std::vector<train::LayerStash> stash(num_layers);
    std::vector<float> acts = x;
    for (int l = 0; l < num_layers; ++l) {
      if (offload) {
        const Timed t(ledger_, "engine.stash_act", parent, id);
        ANGEL_RETURN_IF_ERROR(engine->StashActivation(l, acts));
      }
      std::optional<std::vector<float>> params;
      {
        const Timed t(ledger_, "engine.use_params", parent, id);
        ANGEL_ASSIGN_OR_RETURN(params, engine->UseLayerParams(l));
      }
      std::vector<float> next;
      {
        const Timed t(ledger_, "train.fwd", parent, id);
        job_.model.Forward(l, params->data(), acts, batch, &next,
                           offload ? nullptr : &stash[l]);
      }
      acts = std::move(next);
    }
    std::vector<float> grad(acts.size());
    double loss = 0.0;
    {
      const Timed t(ledger_, "train.loss", parent, id);
      loss = train::MseLoss(acts.data(), y.data(), grad.data(), acts.size());
    }
    for (int l = num_layers - 1; l >= 0; --l) {
      std::optional<std::vector<float>> params;
      {
        const Timed t(ledger_, "engine.use_params", parent, id);
        ANGEL_ASSIGN_OR_RETURN(params, engine->UseLayerParams(l));
      }
      if (offload) {
        std::optional<std::vector<float>> boundary;
        {
          const Timed t(ledger_, "engine.fetch_act", parent, id);
          ANGEL_ASSIGN_OR_RETURN(boundary, engine->FetchActivation(l));
        }
        std::vector<float> recomputed;
        const Timed t(ledger_, "train.recompute", parent, id);
        job_.model.Forward(l, params->data(), *boundary, batch, &recomputed,
                           &stash[l]);
      }
      std::vector<float> grad_in, grad_params;
      {
        const Timed t(ledger_, "train.bwd", parent, id);
        job_.model.Backward(l, params->data(), stash[l], grad, batch,
                            &grad_in, &grad_params);
      }
      {
        const Timed t(ledger_, "engine.push_grads", parent, id);
        ANGEL_RETURN_IF_ERROR(engine->PushGrads(l, grad_params));
      }
      grad = std::move(grad_in);
    }
    {
      const Timed t(ledger_, "engine.end_step", parent, id);
      ANGEL_RETURN_IF_ERROR(engine->EndStep());
    }
    return loss;
  }

  const EngineJob& job_;
  train::EngineTrainerOptions options_;
  Ledger* ledger_;
  util::Rng rng_;
  std::unique_ptr<core::Engine> engine_;
  std::unique_ptr<core::CheckpointManager> ckpt_;
  int64_t global_step_ = 0;
};

uint64_t LinkBytes(const EngineCounters& a, const EngineCounters& b,
                   mem::DeviceKind from, mem::DeviceKind to) {
  return b.memory.link(from, to).bytes - a.memory.link(from, to).bytes;
}

uint64_t TotalMoves(const mem::MemorySnapshot& m) {
  uint64_t total = 0;
  for (const auto& row : m.moves) {
    for (const mem::MoveStats& s : row) total += s.moves;
  }
  return total;
}

const char* const kEngineSpanMetrics[][2] = {
    {"data.gen_batch", "data.gen_batch_ms"},
    {"train.fwd", "train.fwd_ms"},
    {"train.loss", "train.loss_ms"},
    {"train.recompute", "train.recompute_ms"},
    {"train.bwd", "train.bwd_ms"},
    {"engine.begin_step", "engine.begin_step_ms"},
    {"engine.use_params", "engine.use_params_ms"},
    {"engine.stash_act", "engine.stash_act_ms"},
    {"engine.fetch_act", "engine.fetch_act_ms"},
    {"engine.push_grads", "engine.push_grads_ms"},
    {"engine.end_step", "engine.end_step_ms"},
};

void EngineTraced(const Workload& w, uint64_t seed, double seconds,
                  const std::string& workdir, const std::string& spans_path,
                  RunResult* r) {
  EngineJob job(w, seed, workdir);
  const train::EngineTrainerOptions options = job.Options();

  // Reference: the public entry point, untraced, same seed. Its chunk
  // sequence (warm-up, then Train(chunk_steps) calls) is replayed below.
  std::vector<double> ref_losses, ref_rates;
  double ref_valid = 0.0;
  int chunks = 0;
  {
    train::EngineTrainer trainer(&job.model, options);
    const util::Status init = trainer.Init();
    if (!init.ok()) return r->Fail("EngineTrainer::Init", init);
    if (!TrainChunk(&trainer, job, w.warmup_steps, r, &ref_losses, nullptr))
      return;
    const auto start = Clock::now();
    while (chunks < 2 || SecondsSince(start) < 0.45 * seconds) {
      const auto rate = TrainChunk(&trainer, job, w.chunk_steps, r,
                                   &ref_losses, &ref_valid);
      if (!rate) return;
      ref_rates.push_back(*rate);
      ++chunks;
    }
  }

  // Mirror: the same job through core::Engine's step protocol, traced.
  Ledger ledger;
  MirrorLoop mirror(job, options, &ledger);
  const util::Status init = mirror.Init();
  if (!init.ok()) return r->Fail("Engine::Create/RegisterLayer", init);
  std::vector<double> losses, pending, rates;
  r->attempted += uint64_t(w.warmup_steps);
  auto warm = mirror.Chunk(w.warmup_steps, &losses, nullptr);
  if (!warm.ok()) {
    r->failed += uint64_t(w.warmup_steps);
    return r->Fail("mirrored warm-up", warm.status());
  }
  const size_t first_timed_span = ledger.spans().size();
  const EngineCounters before = mirror.Counters();
  for (int c = 0; c < chunks; ++c) {
    r->attempted += uint64_t(w.chunk_steps);
    auto wall = mirror.Chunk(w.chunk_steps, &losses, &pending);
    if (!wall.ok()) {
      r->failed += uint64_t(w.chunk_steps);
      return r->Fail("mirrored step", wall.status());
    }
    rates.push_back(double(w.chunk_steps) * double(w.batch) / *wall);
  }
  const EngineCounters after = mirror.Counters();
  auto valid = mirror.Validate();
  if (!valid.ok()) return r->Fail("mirrored validation", valid.status());

  // Fidelity.
  if (!w.lock_free) {  // Synchronous updates are bitwise reproducible.
    std::string detail;
    r->Check(SameBits(ref_losses, losses, &detail),
             "mirror_losses_match_engine_trainer", detail);
    r->Check(SameBits({ref_valid}, {*valid}, &detail),
             "mirror_valid_loss_matches_engine_trainer", detail);
  }
  CheckQuality(r, "train", ref_losses.front(), ref_valid);
  CheckQuality(r, "mirror", losses.front(), *valid);

  // Ledger over the timed steps. Call spans have no children, so a call's
  // self time is its duration; a step's unattributed time is its duration
  // minus its calls'.
  const std::vector<Span>& spans = ledger.spans();
  std::map<std::string, std::vector<double>> by_name;
  std::vector<double> child_ms(spans.size(), 0.0);
  for (size_t i = first_timed_span; i < spans.size(); ++i) {
    const Span& s = spans[i];
    by_name[s.name].push_back(SpanMs(s));
    if (s.parent >= 0) child_ms[size_t(s.parent)] += SpanMs(s);
  }
  const std::vector<double>& step_ms = by_name["step"];
  double step_total = 0.0, unattributed = 0.0;
  for (size_t i = first_timed_span; i < spans.size(); ++i) {
    if (std::strcmp(spans[i].name, "step") != 0) continue;
    step_total += SpanMs(spans[i]);
    unattributed += SpanMs(spans[i]) - child_ms[i];
  }
  const double steps = double(step_ms.size());
  {
    std::ostringstream detail;
    detail << "timed calls cover " << 100.0 * (1.0 - unattributed / step_total)
           << "% of " << step_ms.size() << " steps";
    r->Check(unattributed <= 0.05 * step_total, "ledger_coverage_95pct",
             detail.str());
  }
  for (const auto& [span_name, metric] : kEngineSpanMetrics) {
    double total = 0.0;
    for (double ms : by_name[span_name]) total += ms;
    r->Set(metric, total / steps);
  }
  const std::vector<double>& save_ms = by_name["ckpt.save"];
  const std::vector<double>& drain_ms = by_name["updater.drain"];

  using mem::DeviceKind;
  const uint64_t scheduled = after.scheduled_uses - before.scheduled_uses;
  const uint64_t hits = after.prefetch_hits - before.prefetch_hits;
  r->Set("engine.prefetch_hit_ratio",
         scheduled ? double(hits) / double(scheduled) : 0.0);
  r->Set("engine.scheduled_uses", double(scheduled));
  r->Set("engine.prefetch_move_failures",
         double(after.prefetch_move_failures - before.prefetch_move_failures));
  r->Set("mem.cpu_to_gpu_mb",
         LinkBytes(before, after, DeviceKind::kCpu, DeviceKind::kGpu) / kMB /
             steps);
  r->Set("mem.gpu_to_cpu_mb",
         LinkBytes(before, after, DeviceKind::kGpu, DeviceKind::kCpu) / kMB /
             steps);
  r->Set("mem.cpu_to_ssd_mb",
         LinkBytes(before, after, DeviceKind::kCpu, DeviceKind::kSsd) / kMB /
             steps);
  r->Set("mem.ssd_to_cpu_mb",
         LinkBytes(before, after, DeviceKind::kSsd, DeviceKind::kCpu) / kMB /
             steps);
  r->Set("mem.page_moves",
         double(TotalMoves(after.memory) - TotalMoves(before.memory)) / steps);
  r->Set("copy.moves_failed",
         double(after.copy.moves_failed - before.copy.moves_failed));
  r->Set("ssd.read_mb",
         double(after.ssd.bytes_read - before.ssd.bytes_read) / kMB / steps);
  r->Set("ssd.write_mb",
         double(after.ssd.bytes_written - before.ssd.bytes_written) / kMB /
             steps);
  const uint64_t batches = after.ssd.io_batches - before.ssd.io_batches;
  const uint64_t queued = after.ssd.queued_requests - before.ssd.queued_requests;
  r->Set("ssd.coalesce_ratio", batches ? double(queued) / double(batches) : 0.0);
  r->Set("ssd.io_batches", double(batches) / steps);
  r->Set("ssd.io_retries", double(after.ssd.io_retries - before.ssd.io_retries));
  const uint64_t updates =
      after.updater.updates_applied - before.updater.updates_applied;
  const uint64_t applied = after.updater.grad_batches_applied -
                           before.updater.grad_batches_applied;
  r->Set("updater.updates_per_step", double(updates) / steps);
  r->Set("updater.batches_per_update",
         updates ? double(applied) / double(updates) : 0.0);
  double pending_sum = 0.0;
  for (double p : pending) pending_sum += p;
  r->Set("updater.staleness_mean",
         pending.empty() ? 0.0 : pending_sum / double(pending.size()));
  r->Set("updater.staleness_max", MaxOf(pending));
  r->Set("updater.backpressure_waits",
         double(after.updater.backpressure_waits -
                before.updater.backpressure_waits));
  r->Set("updater.drain_ms", Median(drain_ms));
  r->Set("ckpt.save_ms_p50", Median(save_ms));
  r->Set("ckpt.save_ms_max", MaxOf(save_ms));
  const uint64_t saves = after.ckpt.saves - before.ckpt.saves;
  r->Set("ckpt.write_mb",
         saves ? double(after.ckpt.bytes_written - before.ckpt.bytes_written) /
                     kMB / double(saves)
               : 0.0);
  r->Set("step.ms_p50", Quantile(step_ms, 0.5));
  r->Set("step.ms_p95", Quantile(step_ms, 0.95));
  r->Set("step.samples", steps);
  r->Set("step.unattributed_ms", unattributed / steps);
  r->Set("trace.overhead_ratio", Median(rates) / Median(ref_rates));

  if (!spans_path.empty() && !ledger.Write(spans_path)) {
    std::cout << "warning: could not write " << spans_path << "\n";
  }
}

// ---------------------------------------------------------------------------
// zero_socket: ShardedDataParallel, ZeRO stage 3, world 2.

constexpr int kWorld = 2;

/// One ZeRO job: kProcessGroup (a rank per thread, each with its own
/// memory, allocator and model, talking over a Unix socket) or kInProcess
/// (one instance running both ranks).
class ZeroJob {
 public:
  ZeroJob(const Workload& w, uint64_t seed, dist::DpBackend backend,
          const std::string& rendezvous)
      : w_(w) {
    const int instances = backend == dist::DpBackend::kProcessGroup ? kWorld : 1;
    for (int r = 0; r < instances; ++r) {
      auto rank = std::make_unique<Rank>();
      mem::HierarchicalMemoryOptions m;
      m.page_bytes = kPageBytes;
      m.cpu_capacity_bytes = kCpuBytes;
      rank->memory = std::make_unique<mem::HierarchicalMemory>(m);
      rank->allocator = std::make_unique<core::Allocator>(rank->memory.get());
      rank->model = std::make_unique<train::TinyTransformer>(w.model);
      rank->dataset =
          std::make_unique<train::SyntheticRegression>(Task(*rank->model));
      dist::ShardedDpOptions o;
      o.stage = dist::ZeroStage::kStage3;
      o.world_size = kWorld;
      o.backend = backend;
      o.rank = r;
      o.rendezvous = rendezvous;
      o.optimizer.learning_rate = kLearningRate;
      o.batch_per_rank = w.batch;
      o.seed = seed;
      rank->dp = std::make_unique<dist::ShardedDataParallel>(
          rank->allocator.get(), rank->model.get(), o);
      ranks_.push_back(std::move(rank));
    }
  }

  util::Status Init() {
    return OnRanks([](Rank& rank) { return rank.dp->Init(); });
  }

  /// Train(steps) on every rank; returns rank 0's report.
  util::Result<dist::DpReport> Train(int steps) {
    dist::DpReport report;
    ANGEL_RETURN_IF_ERROR(OnRanks([&](Rank& rank) -> util::Status {
      auto result = rank.dp->Train(*rank.dataset, steps);
      if (!result.ok()) return result.status();
      if (rank.dp->local_rank() == 0) report = std::move(*result);
      return util::Status::OK();
    }));
    return report;
  }

  int samples_per_step() const { return kWorld * int(w_.batch); }

 private:
  struct Rank {
    std::unique_ptr<mem::HierarchicalMemory> memory;
    std::unique_ptr<core::Allocator> allocator;
    std::unique_ptr<train::TinyTransformer> model;
    std::unique_ptr<train::SyntheticRegression> dataset;
    std::unique_ptr<dist::ShardedDataParallel> dp;
  };

  /// Runs `fn` on every local instance, one thread per socket rank.
  util::Status OnRanks(const std::function<util::Status(Rank&)>& fn) {
    if (ranks_.size() == 1) return fn(*ranks_[0]);
    std::vector<util::Status> statuses(ranks_.size(), util::Status::OK());
    std::vector<std::thread> threads;
    for (size_t r = 0; r < ranks_.size(); ++r) {
      threads.emplace_back([&, r] { statuses[r] = fn(*ranks_[r]); });
    }
    for (std::thread& t : threads) t.join();
    for (const util::Status& s : statuses) ANGEL_RETURN_IF_ERROR(s);
    return util::Status::OK();
  }

  const Workload& w_;
  std::vector<std::unique_ptr<Rank>> ranks_;
};

/// One timed ZeroJob::Train call: adds its losses, returns samples/s.
std::optional<double> ZeroChunk(ZeroJob* job, int steps, RunResult* r,
                                std::vector<double>* losses,
                                dist::DpReport* out) {
  r->attempted += uint64_t(steps);
  const auto start = Clock::now();
  auto report = job->Train(steps);
  const double wall = SecondsSince(start);
  if (!report.ok()) {
    r->failed += uint64_t(steps);
    r->Fail("ShardedDataParallel::Train", report.status());
    return std::nullopt;
  }
  losses->insert(losses->end(), report->losses.begin(), report->losses.end());
  if (out != nullptr) *out = *report;
  return double(steps) * double(job->samples_per_step()) / wall;
}

std::string Rendezvous(const std::string& workdir, const std::string& tag) {
  return workdir + "/" + tag + ".sock";
}

void ZeroUntraced(const Workload& w, uint64_t seed, double seconds,
                  const std::string& workdir, RunResult* r) {
  std::unique_ptr<ZeroJob> job;
  std::vector<double> setup_s, losses;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    job.reset();
    losses.clear();
    const auto start = Clock::now();
    job = std::make_unique<ZeroJob>(
        w, seed, dist::DpBackend::kProcessGroup,
        Rendezvous(workdir, "rdv" + std::to_string(rep)));
    const util::Status init = job->Init();
    if (!init.ok()) return r->Fail("ShardedDataParallel::Init", init);
    if (!ZeroChunk(job.get(), w.warmup_steps, r, &losses, nullptr)) return;
    setup_s.push_back(SecondsSince(start));
  }
  std::vector<double> rates;
  double valid_loss = std::numeric_limits<double>::quiet_NaN();
  const auto start = Clock::now();
  for (int chunk = 0;
       chunk < w.quality_chunks || SecondsSince(start) < seconds; ++chunk) {
    dist::DpReport report;
    const auto rate = ZeroChunk(job.get(), w.chunk_steps, r, &losses, &report);
    if (!rate) return;
    rates.push_back(*rate);
    if (chunk + 1 == w.quality_chunks) valid_loss = report.validation_loss;
  }
  std::cout << "timed " << rates.size() << " chunks of " << w.chunk_steps
            << " steps; setup samples " << setup_s.size() << "\n";
  CheckQuality(r, "train", losses.front(), valid_loss);
  r->Set("samples_per_s", Median(rates));
  r->Set("valid_loss", valid_loss);
  r->Set("setup_s", Median(setup_s));
  r->Set("peak_rss_mb", PeakRssMb());
}

/// Median wall time of standalone ProcessGroup collectives at this
/// workload's per-layer shard sizes, summed over layers (one all-gather
/// and one reduce-scatter per layer per stage-3 step).
util::Status TimeCollectives(const Workload& w, const std::string& rendezvous,
                             double* allgather_ms, double* reduce_scatter_ms) {
  const train::TinyTransformer model(w.model);
  const int reps = 15;
  std::vector<std::vector<double>> ag(size_t(model.num_layers())),
      rs(size_t(model.num_layers()));
  std::vector<util::Status> statuses(kWorld, util::Status::OK());
  std::vector<std::thread> threads;
  for (int rank = 0; rank < kWorld; ++rank) {
    threads.emplace_back([&, rank] {
      dist::ProcessGroupOptions o;
      o.rank = rank;
      o.world_size = kWorld;
      o.rendezvous = rendezvous;
      auto pg = dist::ProcessGroup::Connect(o);
      if (!pg.ok()) {
        statuses[rank] = pg.status();
        return;
      }
      for (int rep = 0; rep < reps; ++rep) {
        for (int l = 0; l < model.num_layers(); ++l) {
          const size_t full = model.LayerParamCount(l);
          const size_t padded = (full + kWorld - 1) / kWorld * kWorld;
          const size_t shard = padded / kWorld;
          std::vector<float> send(padded, 1.0f), recv(padded);
          auto start = Clock::now();
          util::Status s = (*pg)->AllGather(send.data(), shard, recv.data());
          const double ag_ms = SecondsSince(start) * 1e3;
          if (s.ok()) {
            start = Clock::now();
            s = (*pg)->ReduceScatter(send.data(), padded, recv.data());
          }
          const double rs_ms = SecondsSince(start) * 1e3;
          if (!s.ok()) {
            statuses[rank] = s;
            return;
          }
          if (rank == 0) {
            ag[size_t(l)].push_back(ag_ms);
            rs[size_t(l)].push_back(rs_ms);
          }
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (const util::Status& s : statuses) ANGEL_RETURN_IF_ERROR(s);
  *allgather_ms = 0.0;
  *reduce_scatter_ms = 0.0;
  for (size_t l = 0; l < ag.size(); ++l) {
    *allgather_ms += Median(ag[l]);
    *reduce_scatter_ms += Median(rs[l]);
  }
  return util::Status::OK();
}

void ZeroTraced(const Workload& w, uint64_t seed, double seconds,
                const std::string& workdir, const std::string& spans_path,
                RunResult* r) {
  Ledger ledger;
  // Socket job. Every other Train call runs inside a span, so the traced
  // and untraced halves share one job and one warm state.
  std::vector<double> socket_losses, traced_rates, plain_rates, chunk_step_ms;
  std::vector<double> socket_valid;
  uint64_t collectives = 0;
  int chunks = 0;
  {
    ZeroJob job(w, seed, dist::DpBackend::kProcessGroup,
                Rendezvous(workdir, "rdv"));
    const util::Status init = job.Init();
    if (!init.ok()) return r->Fail("ShardedDataParallel::Init", init);
    dist::DpReport report;
    if (!ZeroChunk(&job, w.warmup_steps, r, &socket_losses, &report)) return;
    uint64_t last_collectives = report.collectives;
    const auto start = Clock::now();
    while (chunks < 4 || SecondsSince(start) < 0.45 * seconds) {
      std::optional<Timed> span;
      if (chunks % 2 == 0) span.emplace(&ledger, "dp.train", -1, chunks);
      const auto rate =
          ZeroChunk(&job, w.chunk_steps, r, &socket_losses, &report);
      span.reset();
      if (!rate) return;
      (chunks % 2 == 0 ? traced_rates : plain_rates).push_back(*rate);
      chunk_step_ms.push_back(1e3 * double(job.samples_per_step()) / *rate);
      socket_valid.push_back(report.validation_loss);
      collectives += report.collectives - last_collectives;
      last_collectives = report.collectives;
      ++chunks;
    }
  }
  // Reference: the same call sequence on the in-process backend.
  std::vector<double> inproc_losses, inproc_valid;
  {
    ZeroJob job(w, seed, dist::DpBackend::kInProcess, "");
    const util::Status init = job.Init();
    if (!init.ok()) return r->Fail("ShardedDataParallel::Init", init);
    if (!ZeroChunk(&job, w.warmup_steps, r, &inproc_losses, nullptr)) return;
    for (int c = 0; c < chunks; ++c) {
      dist::DpReport report;
      if (!ZeroChunk(&job, w.chunk_steps, r, &inproc_losses, &report)) return;
      inproc_valid.push_back(report.validation_loss);
    }
  }
  std::string detail;
  r->Check(SameBits(socket_losses, inproc_losses, &detail),
           "socket_losses_match_inprocess", detail);
  r->Check(SameBits(socket_valid, inproc_valid, &detail),
           "socket_valid_losses_match_inprocess", detail);
  CheckQuality(r, "train", socket_losses.front(), socket_valid.back());

  double allgather_ms = 0.0, reduce_scatter_ms = 0.0;
  const util::Status timed = TimeCollectives(
      w, Rendezvous(workdir, "coll"), &allgather_ms, &reduce_scatter_ms);
  if (!timed.ok()) return r->Fail("standalone collectives", timed);

  r->Set("dist.collectives_per_step",
         double(collectives) / double(chunks * w.chunk_steps));
  r->Set("dist.allgather_ms", allgather_ms);
  r->Set("dist.reduce_scatter_ms", reduce_scatter_ms);
  r->Set("step.ms_p50", Quantile(chunk_step_ms, 0.5));
  r->Set("step.ms_p95", Quantile(chunk_step_ms, 0.95));
  r->Set("step.samples", double(chunk_step_ms.size()));
  // Nothing inside dist:: is timed, so the whole step is unattributed.
  double step_ms_total = 0.0;
  for (double ms : chunk_step_ms) step_ms_total += ms;
  r->Set("step.unattributed_ms", step_ms_total / double(chunk_step_ms.size()));
  r->Set("trace.overhead_ratio", Median(traced_rates) / Median(plain_rates));
  if (!spans_path.empty() && !ledger.Write(spans_path)) {
    std::cout << "warning: could not write " << spans_path << "\n";
  }
}

// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir;
  std::string spans;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') return false;
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0') return false;
    } else if (key == "--trace") {
      args->trace = value == "1";
    } else if (key == "--workdir") {
      args->workdir = value;
    } else if (key == "--spans") {
      args->spans = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && !args->workdir.empty() &&
         args->seconds > 0 && args->seconds < 3600;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::cerr << "usage: perfbench_e2e --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> --workdir <dir> "
                 "[--spans <file>]\n";
    return 2;
  }
  const std::vector<Workload> workloads = Workloads();
  const auto it = std::find_if(
      workloads.begin(), workloads.end(),
      [&](const Workload& w) { return args.workload == w.name; });
  if (it == workloads.end()) {
    std::cerr << "unknown workload " << args.workload << "\n";
    return 2;
  }
  std::cout << "fingerprint nproc=" << ::sysconf(_SC_NPROCESSORS_ONLN)
            << " compute_threads=" << util::ComputePoolThreads()
            << " isa=" << simd::IsaPathName(simd::Dispatch())
            << " build=" << PERFBENCH_BUILD_TYPE << " workload=" << it->name
            << " seed=" << args.seed << " seconds=" << args.seconds
            << " trace=" << (args.trace ? 1 : 0) << "\n";

  RunResult result;
  if (it->zero) {
    if (args.trace) {
      ZeroTraced(*it, args.seed, args.seconds, args.workdir, args.spans,
                 &result);
    } else {
      ZeroUntraced(*it, args.seed, args.seconds, args.workdir, &result);
    }
  } else if (args.trace) {
    EngineTraced(*it, args.seed, args.seconds, args.workdir, args.spans,
                 &result);
  } else {
    EngineUntraced(*it, args.seed, args.seconds, args.workdir, &result);
  }
  if (!args.trace) {
    result.Set("step_success_ratio",
               result.attempted ? double(result.attempted - result.failed) /
                                      double(result.attempted)
                                : 0.0);
  }
  PrintResult(result, args.trace);
  return 0;
}
