// Property tests for the batched cost model: CostModel::evaluate_batch
// must be byte-for-byte identical (on serialized reports) to per-candidate
// CostModel::evaluate for any batch size and any mix of legal, illegal,
// and degenerate candidates — the system-wide determinism invariant the
// search, store, and serving layers all rest on.

#include "cost/cost_model.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <span>
#include <string>
#include <vector>

#include "arch/presets.hpp"
#include "core/rng.hpp"
#include "core/serialize.hpp"
#include "mapping/canonical.hpp"
#include "mapping/legality.hpp"
#include "test_seed.hpp"

namespace naas::cost {
namespace {

/// Exact byte image of a report: every double as its IEEE bit pattern,
/// the legality flag, and the reason string. Two reports serialize
/// identically iff they are bit-identical.
std::string serialize_report(const CostReport& r) {
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

nn::Workload random_layer(core::Rng& rng) {
  const int kernel = 1 + 2 * rng.uniform_int(0, 2);  // 1, 3, 5
  const int stride = rng.uniform_int(1, 2);
  const int out_hw = rng.uniform_int(1, 28);
  if (rng.bernoulli(0.35))
    return nn::make_dwconv("dw", rng.uniform_int(1, 96), kernel, stride,
                           out_hw, rng.uniform_int(1, 2));
  return nn::make_conv("cv", rng.uniform_int(1, 64), rng.uniform_int(1, 64),
                       kernel, stride, out_hw, rng.uniform_int(1, 2));
}

arch::ArchConfig random_arch(core::Rng& rng) {
  if (rng.bernoulli(0.25)) {
    const arch::ArchConfig presets[] = {
        arch::nvdla_256_arch(), arch::eyeriss_arch(), arch::shidiannao_arch()};
    return presets[rng.uniform_int(0, 2)];
  }
  arch::ArchConfig cfg;
  cfg.name = "rand";
  cfg.num_array_dims = rng.uniform_int(1, 3);
  const nn::Dim dims[] = {nn::Dim::kK, nn::Dim::kC, nn::Dim::kYp,
                          nn::Dim::kXp, nn::Dim::kR, nn::Dim::kS,
                          nn::Dim::kN};
  std::vector<nn::Dim> pool(dims, dims + 7);
  rng.shuffle(pool);
  for (int a = 0; a < arch::kMaxArrayDims; ++a) {
    cfg.array_dims[static_cast<std::size_t>(a)] = rng.uniform_int(1, 16);
    cfg.parallel_dims[static_cast<std::size_t>(a)] =
        pool[static_cast<std::size_t>(a)];
  }
  cfg.l1_bytes = 1LL << rng.uniform_int(6, 11);
  cfg.l2_bytes = 1LL << rng.uniform_int(12, 18);
  cfg.noc_bandwidth = 1 << rng.uniform_int(2, 6);
  cfg.dram_bandwidth = 1 << rng.uniform_int(2, 6);
  return cfg;
}

mapping::LoopOrder random_order(core::Rng& rng, bool allow_invalid) {
  std::vector<nn::Dim> dims;
  for (nn::Dim d : nn::all_dims()) dims.push_back(d);
  rng.shuffle(dims);
  mapping::LoopOrder order;
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = dims[i];
  if (allow_invalid && rng.bernoulli(0.1)) order[0] = order[1];  // duplicate
  return order;
}

/// Candidate generator mixing repaired-legal, perturbed, out-of-range, and
/// malformed-order mappings so every legality branch is exercised.
mapping::Mapping random_candidate(core::Rng& rng, const arch::ArchConfig& arch,
                                  const nn::Workload& layer) {
  mapping::Mapping m;
  m.dram.order = random_order(rng, true);
  m.pe.order = random_order(rng, true);
  m.pe_order = random_order(rng, true);
  for (nn::Dim d : nn::all_dims()) {
    const int bound = layer.dim_size(d);
    // 0 and 2*bound are deliberately reachable: out-of-range tiles must
    // take the illegal path, not be clamped away.
    mapping::set_tile(m.dram.tile, d, rng.uniform_int(0, 2 * bound));
    mapping::set_tile(m.pe.tile, d, rng.uniform_int(0, bound + 1));
  }
  if (rng.bernoulli(0.5)) m = mapping::repair(m, layer, arch);
  return m;
}

/// The core property: evaluating `candidates` through evaluate_batch in
/// chunks of `batch_size` must reproduce the per-candidate scalar reports
/// byte for byte.
void expect_batch_matches_scalar(const CostModel& model,
                                 const arch::ArchConfig& arch,
                                 const nn::Workload& layer,
                                 const std::vector<mapping::Mapping>& cands,
                                 std::size_t batch_size) {
  std::vector<std::string> scalar;
  scalar.reserve(cands.size());
  for (const auto& m : cands)
    scalar.push_back(serialize_report(model.evaluate(arch, layer, m)));

  const LayerContext ctx = model.make_context(arch, layer);
  std::vector<CostReport> reports(cands.size());
  for (std::size_t lo = 0; lo < cands.size(); lo += batch_size) {
    const std::size_t len = std::min(batch_size, cands.size() - lo);
    model.evaluate_batch(
        ctx, std::span<const mapping::Mapping>(cands).subspan(lo, len),
        std::span<CostReport>(reports).subspan(lo, len));
  }
  for (std::size_t i = 0; i < cands.size(); ++i)
    EXPECT_EQ(scalar[i], serialize_report(reports[i]))
        << "candidate " << i << " diverged at batch size " << batch_size
        << " (legal=" << reports[i].legal << ", reason='"
        << reports[i].illegal_reason << "')";
}

TEST(CostBatch, MatchesScalarForAnyBatchSizeOnRandomWorkloads) {
  const CostModel model;
  core::Rng rng(test::sweep_seed(20260726));
  for (int round = 0; round < 40; ++round) {
    const nn::Workload layer = random_layer(rng);
    const arch::ArchConfig arch = random_arch(rng);
    std::vector<mapping::Mapping> cands;
    for (int i = 0; i < 24; ++i)
      cands.push_back(random_candidate(rng, arch, layer));
    // 1 (the scalar fallback), a population-sized batch, and a prime odd
    // size that never divides the candidate count evenly.
    for (std::size_t batch_size : {std::size_t{1}, std::size_t{12},
                                   std::size_t{7}})
      expect_batch_matches_scalar(model, arch, layer, cands, batch_size);
  }

  // Pinned inputs, 64 candidates each and also scored as one batch of 64:
  // one fixed workload per CNN kind (canonical mapping first), then two
  // degenerate archs whose every candidate must fail the same way in any
  // batch — a PE count that overflows int and a zero DRAM bandwidth.
  const auto check_all_sizes = [&](const arch::ArchConfig& arch,
                                   const nn::Workload& layer,
                                   const std::vector<mapping::Mapping>& cands) {
    for (std::size_t batch_size : {std::size_t{1}, std::size_t{7},
                                   std::size_t{64}})
      expect_batch_matches_scalar(model, arch, layer, cands, batch_size);
  };
  core::Rng pinned_rng(test::sweep_seed(0xBEEF));
  const arch::ArchConfig nvdla = arch::nvdla_256_arch();
  for (const nn::Workload& layer :
       {nn::make_conv("cv", 64, 64, 3, 1, 28, 2),
        nn::make_dwconv("dw", 96, 3, 1, 14, 2),
        nn::make_fc("fc", 512, 1000, 4)}) {
    std::vector<mapping::Mapping> cands = {
        mapping::canonical_mapping(nvdla, layer)};
    for (int i = 0; i < 63; ++i)
      cands.push_back(random_candidate(pinned_rng, nvdla, layer));
    check_all_sizes(nvdla, layer, cands);
  }

  arch::ArchConfig overflow = nvdla;
  overflow.array_dims[0] = 65536;
  overflow.array_dims[1] = 65536;
  arch::ArchConfig zero_bw = nvdla;
  zero_bw.dram_bandwidth = 0;
  core::Rng degenerate_rng(test::sweep_seed(0xDE6E));
  const nn::Workload conv = nn::make_conv("cv", 32, 32, 3, 1, 14);
  for (const arch::ArchConfig& arch : {overflow, zero_bw}) {
    std::vector<mapping::Mapping> cands;
    for (int i = 0; i < 64; ++i)
      cands.push_back(random_candidate(degenerate_rng, arch, conv));
    check_all_sizes(arch, conv, cands);
  }
}

TEST(CostBatch, LegalityReasonsMatchMappingCheck) {
  // The batched legality pass reimplements mapping::check against the
  // context; the two must never drift — same verdicts, same reasons.
  const CostModel model;
  core::Rng rng(test::sweep_seed(4242));
  int illegal_seen = 0;
  for (int round = 0; round < 200; ++round) {
    const nn::Workload layer = random_layer(rng);
    const arch::ArchConfig arch = random_arch(rng);
    if (!arch.valid()) continue;
    const mapping::Mapping m = random_candidate(rng, arch, layer);
    const auto legality = mapping::check(m, layer, arch);
    const CostReport rep = model.evaluate(arch, layer, m);
    EXPECT_EQ(rep.legal, legality.legal);
    EXPECT_EQ(rep.illegal_reason, legality.reason);
    if (!legality.legal) ++illegal_seen;
  }
  EXPECT_GT(illegal_seen, 20) << "generator stopped producing illegal cases";
}

TEST(CostBatch, ScalarEntryPointIsBatchOfOne) {
  const CostModel model;
  const auto arch = arch::nvdla_256_arch();
  const auto layer = nn::make_conv("c", 64, 64, 3, 1, 28);
  const auto m = mapping::canonical_mapping(arch, layer);
  const LayerContext ctx = model.make_context(arch, layer);
  CostReport batch_rep;
  model.evaluate_batch(ctx, {&m, 1}, {&batch_rep, 1});
  EXPECT_EQ(serialize_report(model.evaluate(arch, layer, m)),
            serialize_report(batch_rep));
}

TEST(CostBatch, ReusedReportSlotsAreFullyOverwritten) {
  // Callers recycle report buffers across generations; stale illegal
  // reasons or metrics must never survive into a later batch's results.
  const CostModel model;
  const auto arch = arch::nvdla_256_arch();
  const auto layer = nn::make_conv("c", 32, 32, 3, 1, 14);
  const auto m = mapping::canonical_mapping(arch, layer);
  const LayerContext ctx = model.make_context(arch, layer);
  CostReport stale;
  stale.illegal_reason = "stale reason from a previous batch";
  stale.edp = 123.0;
  model.evaluate_batch(ctx, {&m, 1}, {&stale, 1});
  ASSERT_TRUE(stale.legal);
  EXPECT_TRUE(stale.illegal_reason.empty());
  EXPECT_EQ(serialize_report(stale),
            serialize_report(model.evaluate(arch, layer, m)));
}

TEST(CostBatch, OverflowingPeCountIsIllegalNotNaN) {
  // 65536 x 65536 passes ArchConfig::valid() but its PE count overflows
  // int; the old scalar path fed that into pe_utilization. The context
  // gate must reject it with a reason and leave no NaN/inf leak beyond
  // the legacy illegal edp=+inf convention.
  arch::ArchConfig huge;
  huge.num_array_dims = 2;
  huge.array_dims = {65536, 65536, 1};
  huge.parallel_dims = {nn::Dim::kC, nn::Dim::kK, nn::Dim::kXp};
  ASSERT_TRUE(huge.valid());
  const auto layer = nn::make_conv("c", 8, 8, 1, 1, 8);
  const CostModel model;
  const CostReport rep =
      model.evaluate(huge, layer, mapping::canonical_mapping(huge, layer));
  EXPECT_FALSE(rep.legal);
  EXPECT_NE(rep.illegal_reason.find("degenerate"), std::string::npos)
      << rep.illegal_reason;
  EXPECT_FALSE(std::isnan(rep.pe_utilization));
  EXPECT_FALSE(std::isnan(rep.noc_cycles));
  EXPECT_FALSE(std::isnan(rep.dram_cycles));
}

TEST(CostBatch, ZeroBandwidthIsIllegalNotInf) {
  arch::ArchConfig bad = arch::nvdla_256_arch();
  bad.dram_bandwidth = 0;
  const auto layer = nn::make_conv("c", 8, 8, 1, 1, 8);
  const CostModel model;
  const CostReport rep = model.evaluate(
      bad, layer, mapping::canonical_mapping(arch::nvdla_256_arch(), layer));
  EXPECT_FALSE(rep.legal);
  EXPECT_FALSE(rep.illegal_reason.empty());
  EXPECT_FALSE(std::isinf(rep.dram_cycles));
  EXPECT_FALSE(std::isnan(rep.dram_cycles));
}

}  // namespace
}  // namespace naas::cost
