// Batched cost model throughput: per-candidate CostModel::evaluate (one
// LayerContext rebuilt per call — the pre-batching search inner loop)
// versus CostModel::evaluate_batch at generation-sized batches, on a mixed
// conv / depthwise / pointwise / FC layer set: batched candidates/s plus
// the p50 wall time of one full scoring pass at each batch size. Emits
// BENCH_cost_batch.json with those rates and the bit-identity verdict CI
// asserts: batch vs the per-candidate entry point
// ("batch_identical_to_scalar").

#include "bench_common.hpp"

#include <algorithm>
#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "core/rng.hpp"
#include "core/serialize.hpp"
#include "core/timer.hpp"
#include "mapping/canonical.hpp"
#include "mapping/legality.hpp"

namespace {

using namespace naas;

/// Bench layer set: the shapes that dominate the paper's benchmark
/// networks (early 3x3 conv, mid 1x1 pointwise, depthwise, strided conv,
/// late FC).
std::vector<nn::Workload> bench_layers() {
  return {
      nn::make_conv("conv3x3", 64, 128, 3, 1, 28),
      nn::make_conv("conv1x1", 256, 256, 1, 1, 14),
      nn::make_dwconv("dw3x3", 192, 3, 1, 28),
      nn::make_conv("strided", 32, 64, 3, 2, 56),
      nn::make_fc("fc", 512, 1000),
  };
}

/// One generation of legal candidates per layer: randomized tiles/orders
/// repaired to capacity — the same distribution the CMA decoder feeds the
/// model (grow_to_fit-style tiles vary per genome; repair keeps them all
/// on the evaluable region, so the struct-of-arrays pass runs end to end).
std::vector<mapping::Mapping> make_candidates(core::Rng& rng,
                                              const arch::ArchConfig& arch,
                                              const nn::Workload& layer,
                                              int count) {
  std::vector<nn::Dim> dims;
  for (nn::Dim d : nn::all_dims()) dims.push_back(d);
  std::vector<mapping::Mapping> out;
  out.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    mapping::Mapping m;
    rng.shuffle(dims);
    for (std::size_t p = 0; p < dims.size(); ++p) m.dram.order[p] = dims[p];
    rng.shuffle(dims);
    for (std::size_t p = 0; p < dims.size(); ++p) m.pe.order[p] = dims[p];
    rng.shuffle(dims);
    for (std::size_t p = 0; p < dims.size(); ++p) m.pe_order[p] = dims[p];
    for (nn::Dim d : nn::all_dims())
      mapping::set_tile(m.dram.tile, d,
                        rng.uniform_int(1, layer.dim_size(d)));
    for (nn::Dim d : nn::all_dims())
      mapping::set_tile(m.pe.tile, d, 1);
    out.push_back(mapping::repair(m, layer, arch));
  }
  return out;
}

std::string serialize_report(const cost::CostReport& r) {
  core::ByteWriter w;
  w.u8(r.legal ? 1 : 0);
  w.str(r.illegal_reason);
  for (double v : {r.macs, r.compute_cycles, r.noc_cycles, r.dram_cycles,
                   r.latency_cycles, r.energy.mac_pj, r.energy.l1_pj,
                   r.energy.l2_pj, r.energy.noc_pj, r.energy.dram_pj,
                   r.energy_nj, r.edp, r.pe_utilization, r.dram_bytes,
                   r.l2_read_bytes, r.l2_write_bytes, r.l1_access_bytes,
                   r.noc_delivery_bytes, r.reduction_hop_bytes})
    w.f64(v);
  return w.bytes();
}

struct Workload {
  nn::Workload layer;
  std::vector<mapping::Mapping> candidates;
  cost::LayerContext ctx;
};

struct Rate {
  std::size_t batch_size = 0;
  double candidates_per_sec = 0;
  double speedup = 0;
  double p50_pass_ms = 0;  ///< median wall time of one full scoring pass
};

/// Runs `pass` (which scores every candidate of every workload once)
/// repeatedly for at least `min_seconds`; returns candidates/second and
/// the p50 per-pass wall time (the jitter-resistant latency headline —
/// means absorb scheduler noise, medians don't).
struct Measurement {
  double candidates_per_sec = 0;
  double p50_pass_ms = 0;
};

template <typename Fn>
Measurement measure(const std::vector<Workload>& work, double min_seconds,
                    const Fn& pass) {
  // One warmup pass populates thread-local scratch and caches.
  pass();
  std::size_t per_pass = 0;
  for (const Workload& w : work) per_pass += w.candidates.size();
  std::vector<double> samples;
  core::Timer total;
  while (total.seconds() < min_seconds) {
    core::Timer t;
    pass();
    samples.push_back(t.seconds());
  }
  double sum = 0;
  for (double s : samples) sum += s;
  std::sort(samples.begin(), samples.end());
  Measurement m;
  m.candidates_per_sec =
      sum > 0 ? static_cast<double>(samples.size()) *
                    static_cast<double>(per_pass) / sum
              : 0;
  m.p50_pass_ms =
      samples.empty() ? 0 : samples[samples.size() / 2] * 1000.0;
  return m;
}

/// Measures evaluate_batch candidates/s and p50 pass time for one model
/// at one batch size.
Rate measure_batched(const cost::CostModel& model,
                     const std::vector<Workload>& work, std::size_t bs,
                     double min_seconds) {
  Rate r;
  r.batch_size = bs;
  std::vector<cost::CostReport> reports;
  for (const Workload& w : work)
    reports.resize(std::max(reports.size(), w.candidates.size()));
  const Measurement m = measure(work, min_seconds, [&] {
    for (const Workload& w : work) {
      for (std::size_t lo = 0; lo < w.candidates.size(); lo += bs) {
        const std::size_t len = std::min(bs, w.candidates.size() - lo);
        model.evaluate_batch(
            w.ctx,
            std::span<const mapping::Mapping>(w.candidates).subspan(lo, len),
            std::span<cost::CostReport>(reports).subspan(0, len));
      }
      benchmark::DoNotOptimize(reports.data());
    }
  });
  r.candidates_per_sec = m.candidates_per_sec;
  r.p50_pass_ms = m.p50_pass_ms;
  return r;
}

void reproduce_cost_batch() {
  bench::print_header(
      "Batched cost model: scalar vs struct-of-arrays generation scoring");

  const cost::CostModel model;
  const arch::ArchConfig arch = arch::nvdla_256_arch();
  core::Rng rng(static_cast<std::uint64_t>(core::env_int("NAAS_BENCH_SEED",
                                                         1)));
  constexpr int kCandidatesPerLayer = 192;  // divisible by 64, 8, and 1

  std::vector<Workload> work;
  for (const nn::Workload& layer : bench_layers())
    work.push_back({layer,
                    make_candidates(rng, arch, layer, kCandidatesPerLayer),
                    model.make_context(arch, layer)});

  // Bit-identity first: every batch size must reproduce the per-candidate
  // scalar reports byte for byte.
  bool identical = true;
  const std::size_t batch_sizes[] = {1, 8, 64};
  for (const Workload& w : work) {
    std::vector<std::string> scalar;
    for (const auto& m : w.candidates)
      scalar.push_back(serialize_report(model.evaluate(arch, w.layer, m)));
    for (std::size_t bs : batch_sizes) {
      std::vector<cost::CostReport> reports(w.candidates.size());
      for (std::size_t lo = 0; lo < w.candidates.size(); lo += bs) {
        const std::size_t len = std::min(bs, w.candidates.size() - lo);
        model.evaluate_batch(
            w.ctx,
            std::span<const mapping::Mapping>(w.candidates).subspan(lo, len),
            std::span<cost::CostReport>(reports).subspan(lo, len));
      }
      for (std::size_t i = 0; i < reports.size(); ++i)
        if (serialize_report(reports[i]) != scalar[i]) identical = false;
    }
  }

  const double kMinSeconds = 0.25;
  const Measurement scalar_m = measure(work, kMinSeconds, [&] {
    for (const Workload& w : work) {
      cost::CostReport rep;
      for (const auto& m : w.candidates) {
        rep = model.evaluate(arch, w.layer, m);
        benchmark::DoNotOptimize(rep.edp);
      }
    }
  });
  const double scalar_rate = scalar_m.candidates_per_sec;

  // Batched throughput + p50 pass latency per batch size.
  std::vector<Rate> rates;
  for (std::size_t bs : batch_sizes) {
    Rate r = measure_batched(model, work, bs, kMinSeconds);
    r.speedup = scalar_rate > 0 ? r.candidates_per_sec / scalar_rate : 0;
    rates.push_back(r);
  }

  core::Table t({"Path", "Batch", "Candidates/s", "Speedup", "p50 pass (ms)",
                 "Identical to scalar"});
  t.add_row({"scalar evaluate()", "1",
             core::Table::fmt_int(static_cast<long long>(scalar_rate)),
             "1.00", core::Table::fmt(scalar_m.p50_pass_ms, 3),
             "(reference)"});
  for (const Rate& r : rates)
    t.add_row({"evaluate_batch",
               core::Table::fmt_int(static_cast<long long>(r.batch_size)),
               core::Table::fmt_int(
                   static_cast<long long>(r.candidates_per_sec)),
               core::Table::fmt(r.speedup, 2),
               core::Table::fmt(r.p50_pass_ms, 3),
               identical ? "yes" : "NO (BUG)"});
  std::printf("%s\n", t.to_string().c_str());

  FILE* f = std::fopen("BENCH_cost_batch.json", "w");
  if (!f) {
    std::printf("could not open BENCH_cost_batch.json for writing\n");
    return;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"cost_batch\",\n");
  std::fprintf(f, "  \"arch\": \"%s\",\n", arch.name.c_str());
  std::fprintf(f, "  \"layers\": %d,\n", static_cast<int>(work.size()));
  std::fprintf(f, "  \"candidates_per_layer\": %d,\n", kCandidatesPerLayer);
  std::fprintf(f, "  \"scalar_candidates_per_sec\": %.1f,\n", scalar_rate);
  std::fprintf(f, "  \"batched\": [\n");
  for (std::size_t i = 0; i < rates.size(); ++i) {
    const Rate& r = rates[i];
    std::fprintf(f,
                 "    {\"batch_size\": %d, \"candidates_per_sec\": %.1f, "
                 "\"speedup_vs_scalar\": %.3f, \"p50_pass_ms\": %.4f}%s\n",
                 static_cast<int>(r.batch_size), r.candidates_per_sec,
                 r.speedup, r.p50_pass_ms, i + 1 < rates.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"batch_identical_to_scalar\": %s\n",
               identical ? "true" : "false");
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote BENCH_cost_batch.json\n");
}

void BM_EvaluateScalar(benchmark::State& state) {
  const cost::CostModel model;
  const arch::ArchConfig arch = arch::nvdla_256_arch();
  const nn::Workload layer = nn::make_conv("c", 64, 128, 3, 1, 28);
  core::Rng rng(1);
  const auto cands = make_candidates(rng, arch, layer, 64);
  for (auto _ : state) {
    for (const auto& m : cands) {
      const auto rep = model.evaluate(arch, layer, m);
      benchmark::DoNotOptimize(rep.edp);
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<long long>(cands.size()));
}
BENCHMARK(BM_EvaluateScalar)->Unit(benchmark::kMicrosecond);

void BM_EvaluateBatch(benchmark::State& state) {
  const cost::CostModel model;
  const arch::ArchConfig arch = arch::nvdla_256_arch();
  const nn::Workload layer = nn::make_conv("c", 64, 128, 3, 1, 28);
  core::Rng rng(1);
  const auto cands = make_candidates(rng, arch, layer, 64);
  const cost::LayerContext ctx = model.make_context(arch, layer);
  const std::size_t bs = static_cast<std::size_t>(state.range(0));
  std::vector<cost::CostReport> reports(cands.size());
  for (auto _ : state) {
    for (std::size_t lo = 0; lo < cands.size(); lo += bs) {
      const std::size_t len = std::min(bs, cands.size() - lo);
      model.evaluate_batch(
          ctx, std::span<const mapping::Mapping>(cands).subspan(lo, len),
          std::span<cost::CostReport>(reports).subspan(lo, len));
    }
    benchmark::DoNotOptimize(reports.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<long long>(cands.size()));
}
BENCHMARK(BM_EvaluateBatch)->Arg(1)->Arg(8)->Arg(64)
    ->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  reproduce_cost_batch();
  return naas::bench::run_microbenchmarks(argc, argv);
}
