// Times every hot compute kernel across a sweep of thread counts at
// transformer-realistic shapes and writes BENCH_kernels.json, so the
// kernel-performance trajectory is tracked from PR to PR.
//
// Honesty rules (DESIGN.md §11.5):
//   - every measurement records the compute_threads it actually ran with
//     (one JSON block per thread count, plus the field on each entry);
//   - the resolved SIMD dispatch path and the host's online CPU count are
//     recorded, so a flat "scaling curve" on a 1-CPU container reads as
//     what it is rather than as a regression;
//   - throughput is reported as GFLOP/s for FLOP-bound kernels and GB/s
//     for bandwidth-bound ones, with the FLOP/byte conventions spelled
//     out at the definition site below;
//   - the fp16 codec is single-threaded by design, so it is timed once
//     per SIMD path (scalar and, where supported, avx2) rather than per
//     thread count, each row naming its path.
//
// The run also enforces a GEMM-variant regression guard: at every thread
// count, neither transposed variant may be more than 2x slower than the
// plain GEMM (packing absorbs the transposes, so they should be within
// noise of each other). Violations exit non-zero so CI can catch a
// reintroduced strided inner loop.
//
// Usage: kernel_bench [output.json] [gemm_size]
//   output.json defaults to BENCH_kernels.json in the working directory;
//   gemm_size defaults to 1024 (pass e.g. 256 for a quick smoke run).

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iomanip>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "core/adam.h"
#include "train/kernels.h"
#include "train/simd/dispatch.h"
#include "train/simd/half_codec.h"
#include "util/parallel_for.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace angelptm {
namespace {

const int kThreadSweep[] = {1, 4, 8, 16};

double TimeMs(const std::function<void()>& fn, int reps) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const auto start = std::chrono::steady_clock::now();
    fn();
    const auto end = std::chrono::steady_clock::now();
    best = std::min(
        best, std::chrono::duration<double, std::milli>(end - start).count());
  }
  return best;
}

struct Measurement {
  std::string name;
  std::string shape;
  double flops = 0.0;  // Per invocation; 0 when GFLOP/s is not meaningful.
  double bytes = 0.0;  // Memory traffic per invocation; 0 when FLOP-bound.
  double ms = 0.0;
  int compute_threads = 0;
  std::string simd_path;  // Set on rows timed under a forced path.

  double Gflops() const { return flops > 0.0 ? flops / ms / 1e6 : 0.0; }
  double Gbps() const { return bytes > 0.0 ? bytes / ms / 1e6 : 0.0; }
};

/// A kernel plus its work accounting; timed once per thread count.
struct Kernel {
  std::string name;
  std::string shape;
  double flops;
  double bytes;
  std::function<void()> fn;
  std::function<void()> reference;  // Naive kernel, when one is retained.
};

std::string FmtMs(double ms) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2fms", ms);
  return buf;
}

void PrintRow(const Measurement& m) {
  const std::string label =
      m.simd_path.empty() ? m.name : m.name + "/" + m.simd_path;
  std::cout << "  " << std::left << std::setw(22) << label << std::setw(20)
            << m.shape << " " << std::setw(10) << FmtMs(m.ms);
  if (m.flops > 0.0) {
    std::cout << std::fixed << std::setprecision(1) << std::setw(7)
              << m.Gflops() << " GFLOP/s";
  } else if (m.bytes > 0.0) {
    std::cout << std::fixed << std::setprecision(1) << std::setw(7) << m.Gbps()
              << " GB/s";
  }
  std::cout << "\n";
}

void JsonEntry(std::ostream& out, const Measurement& m, bool last) {
  out << "      {\"name\": \"" << m.name << "\", \"shape\": \"" << m.shape
      << "\", \"compute_threads\": " << m.compute_threads;
  if (!m.simd_path.empty()) {
    out << ", \"simd_path\": \"" << m.simd_path << "\"";
  }
  out << ", \"ms\": " << m.ms;
  if (m.flops > 0.0) out << ", \"gflops\": " << m.Gflops();
  if (m.bytes > 0.0) out << ", \"gbps\": " << m.Gbps();
  out << "}" << (last ? "" : ",") << "\n";
}

int Main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_kernels.json";
  long gemm_arg = 1024;
  if (argc > 2) {
    char* end = nullptr;
    gemm_arg = std::strtol(argv[2], &end, 10);
    if (end == argv[2] || *end != '\0' || gemm_arg <= 0) {
      std::cerr << "error: gemm_size must be a positive integer, got \""
                << argv[2] << "\"\nusage: kernel_bench [output.json] "
                << "[gemm_size]\n";
      return 2;
    }
  }
  const size_t gemm = size_t(gemm_arg);
  const unsigned host_cpus = std::max(1u, std::thread::hardware_concurrency());
  const char* simd_path = simd::IsaPathName(simd::Dispatch());

  std::cout << "Kernel benchmark: simd=" << simd_path
            << ", host_cpus=" << host_cpus << ", thread sweep {1,4,8,16}\n";
  if (host_cpus < 8) {
    std::cout << "note: only " << host_cpus << " CPU(s) online — thread "
              << "counts above that oversubscribe and cannot show real "
              << "scaling\n";
  }
  std::cout << "\n";

  util::Rng rng(42);
  auto shape3 = [](size_t m, size_t k, size_t n) {
    return std::to_string(m) + "x" + std::to_string(k) + "x" +
           std::to_string(n);
  };
  auto shape2 = [](size_t m, size_t n) {
    return std::to_string(m) + "x" + std::to_string(n);
  };

  // --- Workloads (allocated once; timed at every thread count). ---
  std::vector<Kernel> kernels;

  // GEMM family at the headline cubic shape: FLOP-bound, 2mkn FLOPs.
  const size_t gm = gemm, gk = gemm, gn = gemm;
  std::vector<float> ga(gm * gk), gb(gk * gn), gc(gm * gn);
  rng.FillGaussian(&ga, 1.0);
  rng.FillGaussian(&gb, 1.0);
  const double gemm_flops = 2.0 * double(gm) * double(gk) * double(gn);
  kernels.push_back(
      {"gemm", shape3(gm, gk, gn), gemm_flops, 0.0,
       [&, gm, gk, gn] { train::Gemm(ga.data(), gb.data(), gc.data(), gm, gk, gn); },
       [&, gm, gk, gn] {
         train::reference::Gemm(ga.data(), gb.data(), gc.data(), gm, gk, gn);
       }});
  kernels.push_back(
      {"gemm_trans_a", shape3(gm, gk, gn), gemm_flops, 0.0,
       [&, gm, gk, gn] {
         train::GemmTransA(ga.data(), gb.data(), gc.data(), gm, gk, gn);
       },
       [&, gm, gk, gn] {
         train::reference::GemmTransA(ga.data(), gb.data(), gc.data(), gm, gk,
                                      gn);
       }});
  kernels.push_back(
      {"gemm_trans_b", shape3(gm, gk, gn), gemm_flops, 0.0,
       [&, gm, gk, gn] {
         train::GemmTransB(ga.data(), gb.data(), gc.data(), gm, gk, gn);
       },
       [&, gm, gk, gn] {
         train::reference::GemmTransB(ga.data(), gb.data(), gc.data(), gm, gk,
                                      gn);
       }});

  // Transformer-block shapes: batch*seq = 2048 token rows, d = 1024.
  const size_t rows = 2048, d = 1024, ffn = 4 * d;

  // add_bias_gelu: FLOP-bound on the tanh chain. Convention: 1 FLOP for
  // the bias add + 14 for the tanh-approx GeLU = 15 FLOPs/element.
  std::vector<float> z(rows * ffn), bias(ffn), y(rows * ffn);
  rng.FillGaussian(&z, 1.0);
  rng.FillGaussian(&bias, 0.1);
  kernels.push_back({"add_bias_gelu", shape2(rows, ffn),
                     15.0 * double(rows) * double(ffn), 0.0,
                     [&, rows, ffn] {
                       train::AddBiasGelu(z.data(), bias.data(), y.data(),
                                          rows, ffn);
                     },
                     nullptr});
  // Backward: ~20 FLOPs/element for the gelu' chain + dbias reduction.
  std::vector<float> dz(rows * ffn), dbias(ffn);
  kernels.push_back({"add_bias_gelu_bwd", shape2(rows, ffn),
                     20.0 * double(rows) * double(ffn), 0.0,
                     [&, rows, ffn] {
                       train::AddBiasGeluBackward(z.data(), y.data(),
                                                  dz.data(), dbias.data(),
                                                  rows, ffn);
                     },
                     nullptr});

  // layer_norm: bandwidth-bound. Convention: read x + write y = 8
  // bytes/element (mean/rstd are negligible).
  std::vector<float> lx(rows * d), gamma(d, 1.0f), beta(d, 0.0f);
  std::vector<float> ly(rows * d), mean(rows), rstd(rows);
  rng.FillGaussian(&lx, 1.0);
  kernels.push_back({"layer_norm", shape2(rows, d), 0.0,
                     8.0 * double(rows) * double(d),
                     [&, rows, d] {
                       train::LayerNorm(lx.data(), gamma.data(), beta.data(),
                                        ly.data(), mean.data(), rstd.data(),
                                        rows, d);
                     },
                     [&, rows, d] {
                       train::reference::LayerNorm(
                           lx.data(), gamma.data(), beta.data(), ly.data(),
                           mean.data(), rstd.data(), rows, d);
                     }});

  // layer_norm_bwd: bandwidth-bound; two passes over x and dy plus the dx
  // write = 20 bytes/element.
  std::vector<float> ldy(rows * d), ldx(rows * d), dgamma(d), dbeta(d);
  rng.FillGaussian(&ldy, 1.0);
  train::LayerNorm(lx.data(), gamma.data(), beta.data(), ly.data(),
                   mean.data(), rstd.data(), rows, d);
  kernels.push_back({"layer_norm_bwd", shape2(rows, d), 0.0,
                     20.0 * double(rows) * double(d),
                     [&, rows, d] {
                       train::LayerNormBackward(
                           lx.data(), gamma.data(), ldy.data(), mean.data(),
                           rstd.data(), ldx.data(), dgamma.data(),
                           dbeta.data(), rows, d);
                     },
                     [&, rows, d] {
                       train::reference::LayerNormBackward(
                           lx.data(), gamma.data(), ldy.data(), mean.data(),
                           rstd.data(), ldx.data(), dgamma.data(),
                           dbeta.data(), rows, d);
                     }});

  // softmax_xent: bandwidth-bound at vocab width (logits read twice, grad
  // written once = 12 bytes/element).
  const size_t vocab = 8192;
  std::vector<float> logits(rows * vocab), grad(rows * vocab);
  rng.FillGaussian(&logits, 2.0);
  std::vector<int> labels(rows);
  for (size_t i = 0; i < rows; ++i) labels[i] = int(i % vocab);
  kernels.push_back({"softmax_xent", shape2(rows, vocab), 0.0,
                     12.0 * double(rows) * double(vocab),
                     [&, rows, vocab] {
                       train::SoftmaxCrossEntropy(logits.data(), labels.data(),
                                                  grad.data(), rows, vocab);
                     },
                     [&, rows, vocab] {
                       train::reference::SoftmaxCrossEntropy(
                           logits.data(), labels.data(), grad.data(), rows,
                           vocab);
                     }});

  // adam_update: bandwidth-bound. Reads p/m/v/g, writes p/m/v = 28
  // bytes/element. 16M elements = one optimizer step over a 64 MiB layer,
  // the lock-free updater's per-layer unit of work.
  const size_t count = 64 * 1024 * 1024 / 4;
  std::vector<float> p(count, 0.5f), am(count, 0.1f), av(count, 0.2f),
      ag(count);
  rng.FillGaussian(&ag, 1.0);
  core::AdamConfig config;
  long step = 0;
  kernels.push_back({"adam_update", std::to_string(count) + " elems", 0.0,
                     28.0 * double(count),
                     [&, count] {
                       core::AdamUpdate(config, p.data(), am.data(), av.data(),
                                        ag.data(), count, ++step);
                     },
                     nullptr});

  const int reps = 3;

  // --- Reference (naive, serial) kernels: timed once on one thread. ---
  std::vector<Measurement> reference;
  {
    util::ThreadPool serial(1);
    util::SetComputePoolOverride(&serial);
    std::cout << "reference kernels (serial):\n";
    for (const Kernel& k : kernels) {
      if (!k.reference) continue;
      Measurement m{k.name, k.shape, k.flops, k.bytes,
                    TimeMs(k.reference, reps), 1, ""};
      PrintRow(m);
      reference.push_back(m);
    }
    util::SetComputePoolOverride(nullptr);
    std::cout << "\n";
  }

  // --- The sweep: one block of measurements per thread count. ---
  std::vector<std::vector<Measurement>> blocks;
  bool regression_ok = true;
  for (const int threads : kThreadSweep) {
    util::ThreadPool pool{size_t(threads)};
    util::SetComputePoolOverride(&pool);
    std::cout << threads << " thread(s):\n";
    std::vector<Measurement> block;
    for (const Kernel& k : kernels) {
      Measurement m{k.name, k.shape, k.flops, k.bytes, TimeMs(k.fn, reps),
                    threads, ""};
      PrintRow(m);
      block.push_back(m);
    }
    util::SetComputePoolOverride(nullptr);

    // GEMM-variant regression guard (kernels[0..2] are the GEMM family).
    const double plain = block[0].ms;
    for (int v = 1; v <= 2; ++v) {
      if (block[v].ms > 2.0 * plain) {
        std::cerr << "REGRESSION: " << block[v].name << " is "
                  << std::fixed << std::setprecision(2) << block[v].ms / plain
                  << "x slower than gemm at " << threads
                  << " thread(s) (limit 2x)\n";
        regression_ok = false;
      }
    }
    blocks.push_back(std::move(block));
    std::cout << "\n";
  }

  // --- fp16 codec: every fp16 crossing of a training step (fp16 tensors,
  // the updater's parameter mirror). Single-threaded, timed per SIMD path.
  // Bytes: encode reads 4 and writes 2 per element, decode the reverse.
  const size_t codec_count = 16 * 1024 * 1024;
  std::vector<float> codec_floats(codec_count), codec_decoded(codec_count);
  rng.FillGaussian(&codec_floats, 1.0);
  std::vector<uint16_t> codec_halves(codec_count);
  std::vector<Measurement> codec;
  std::cout << "fp16 codec (1 thread):\n";
  for (const simd::IsaPath path :
       {simd::IsaPath::kScalar, simd::IsaPath::kAvx2}) {
    if (!simd::Supported(path)) continue;
    simd::ScopedForceIsa force(path);
    const std::string shape = std::to_string(codec_count) + " elems";
    const double bytes = 6.0 * double(codec_count);
    Measurement encode{"fp16_encode", shape, 0.0, bytes,
                       TimeMs([&] {
                         simd::FloatsToHalfBits(codec_floats.data(),
                                                codec_halves.data(),
                                                codec_count);
                       }, reps),
                       1, simd::IsaPathName(path)};
    Measurement decode{"fp16_decode", shape, 0.0, bytes,
                       TimeMs([&] {
                         simd::HalfBitsToFloats(codec_halves.data(),
                                                codec_decoded.data(),
                                                codec_count);
                       }, reps),
                       1, simd::IsaPathName(path)};
    for (const Measurement& m : {encode, decode}) {
      PrintRow(m);
      codec.push_back(m);
    }
  }
  std::cout << "\n";

  // --- JSON. ---
  std::ofstream out(out_path);
  out << std::setprecision(6) << std::fixed;
  out << "{\n";
  out << "  \"bench\": \"kernel_bench\",\n";
  out << "  \"gemm_size\": " << gemm << ",\n";
  out << "  \"simd_path\": \"" << simd_path << "\",\n";
  out << "  \"host_cpus\": " << host_cpus << ",\n";
  out << "  \"gemm_regression_ok\": " << (regression_ok ? "true" : "false")
      << ",\n";
  out << "  \"reference\": [\n";
  for (size_t i = 0; i < reference.size(); ++i) {
    JsonEntry(out, reference[i], i + 1 == reference.size());
  }
  out << "  ],\n";
  out << "  \"by_threads\": [\n";
  for (size_t bi = 0; bi < blocks.size(); ++bi) {
    out << "    {\"compute_threads\": " << kThreadSweep[bi]
        << ", \"kernels\": [\n";
    for (size_t i = 0; i < blocks[bi].size(); ++i) {
      JsonEntry(out, blocks[bi][i], i + 1 == blocks[bi].size());
    }
    out << "    ]}" << (bi + 1 == blocks.size() ? "" : ",") << "\n";
  }
  out << "  ],\n";
  out << "  \"fp16_codec\": [\n";
  for (size_t i = 0; i < codec.size(); ++i) {
    JsonEntry(out, codec[i], i + 1 == codec.size());
  }
  out << "  ],\n";
  out << "  \"metrics\": " << bench::MetricsJson() << "\n";
  out << "}\n";
  if (!out.flush()) {
    std::cerr << "error: could not write " << out_path << "\n";
    return 1;
  }

  const double single = blocks.front()[0].Gflops();
  std::cout << "Headline: " << gemm << "^3 GEMM " << std::fixed
            << std::setprecision(1) << single << " GFLOP/s single-thread ("
            << simd_path << " path)\nWrote " << out_path << "\n";
  if (!regression_ok) {
    std::cerr << "GEMM-variant regression guard failed (see above)\n";
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace angelptm

int main(int argc, char** argv) { return angelptm::Main(argc, argv); }
