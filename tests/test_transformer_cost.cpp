// Property and regression tests for the matmul/attention workload kinds:
// the per-kind dim-semantics tables, the GEMM builders' dim map, the
// batched-weight attention footprint, transformer-scale overflow bounds,
// batch==scalar byte-identity on randomized GEMM workloads (the same
// invariant tests/test_cost_batch.cpp pins for conv), legality-reason sync
// vs mapping::check, and warm-start bit-identity on a transformer zoo
// model through the serving stack.

#include "cost/cost_model.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "arch/presets.hpp"
#include "core/rng.hpp"
#include "core/serialize.hpp"
#include "cost/reuse.hpp"
#include "mapping/canonical.hpp"
#include "mapping/footprint.hpp"
#include "mapping/legality.hpp"
#include "nn/model_zoo.hpp"
#include "serve/service.hpp"
#include "test_paths.hpp"
#include "test_seed.hpp"

namespace naas::cost {
namespace {

using nn::Dim;
using nn::LayerKind;
using nn::Workload;

// ---------------------------------------------------- semantics tables

TEST(KindSemantics, AttentionWeightIsBatchIndexed) {
  EXPECT_FALSE(is_relevant(Tensor::kWeight, Dim::kN, LayerKind::kMatmul));
  EXPECT_TRUE(is_relevant(Tensor::kWeight, Dim::kN, LayerKind::kAttention));
  EXPECT_FALSE(semantics(LayerKind::kConv).batched_weight);
  EXPECT_FALSE(semantics(LayerKind::kDepthwiseConv).batched_weight);
  EXPECT_FALSE(semantics(LayerKind::kFullyConnected).batched_weight);
  EXPECT_FALSE(semantics(LayerKind::kMatmul).batched_weight);
  EXPECT_TRUE(semantics(LayerKind::kAttention).batched_weight);
}

TEST(KindSemantics, GemmKindsReduceOverCOnly) {
  for (LayerKind k : {LayerKind::kMatmul, LayerKind::kAttention}) {
    EXPECT_TRUE(is_reduction(Dim::kC, k));
    EXPECT_FALSE(is_reduction(Dim::kR, k));
    EXPECT_FALSE(is_reduction(Dim::kS, k));
    EXPECT_FALSE(is_reduction(Dim::kN, k));
    EXPECT_FALSE(is_reduction(Dim::kK, k));
    // Pinned conv-only dims index no operand.
    for (Tensor t : {Tensor::kInput, Tensor::kWeight, Tensor::kOutput}) {
      EXPECT_FALSE(is_relevant(t, Dim::kXp, k));
      EXPECT_FALSE(is_relevant(t, Dim::kR, k));
      EXPECT_FALSE(is_relevant(t, Dim::kS, k));
    }
  }
}

TEST(KindSemantics, ConvTablesMatchLegacyRules) {
  // Spot checks that the table refactor preserved the old switch logic.
  EXPECT_TRUE(is_relevant(Tensor::kInput, Dim::kC, LayerKind::kConv));
  EXPECT_FALSE(is_relevant(Tensor::kInput, Dim::kK, LayerKind::kConv));
  EXPECT_TRUE(
      is_relevant(Tensor::kInput, Dim::kK, LayerKind::kDepthwiseConv));
  EXPECT_FALSE(
      is_relevant(Tensor::kInput, Dim::kC, LayerKind::kDepthwiseConv));
  EXPECT_TRUE(is_relevant(Tensor::kWeight, Dim::kR, LayerKind::kConv));
  EXPECT_FALSE(is_relevant(Tensor::kWeight, Dim::kN, LayerKind::kConv));
  EXPECT_TRUE(is_reduction(Dim::kC, LayerKind::kFullyConnected));
  EXPECT_FALSE(is_reduction(Dim::kC, LayerKind::kDepthwiseConv));
}

// ---------------------------------------------------- builders / dim map

TEST(TransformerLayer, MatmulDimMap) {
  const Workload l = nn::make_matmul("m", 128, 768, 3072, 4);
  EXPECT_EQ(l.kind, LayerKind::kMatmul);
  EXPECT_EQ(l.dim_size(Dim::kN), 4);
  EXPECT_EQ(l.dim_size(Dim::kYp), 128);   // M rows
  EXPECT_EQ(l.dim_size(Dim::kC), 768);    // reduction depth
  EXPECT_EQ(l.dim_size(Dim::kK), 3072);   // output features
  EXPECT_EQ(l.dim_size(Dim::kXp), 1);
  EXPECT_EQ(l.dim_size(Dim::kR), 1);
  EXPECT_EQ(l.dim_size(Dim::kS), 1);
  EXPECT_EQ(l.macs(), 4LL * 128 * 768 * 3072);
  EXPECT_EQ(l.input_elems(), 4LL * 128 * 768);
  EXPECT_EQ(l.weight_elems(), 768LL * 3072);  // shared across the batch
  EXPECT_EQ(l.output_elems(), 4LL * 128 * 3072);
}

TEST(TransformerLayer, AttentionScoresAndContextAreTransposes) {
  // QK^T: [seq_q x head_dim] x [head_dim x seq_kv] per (batch x head).
  const Workload qk = nn::make_attention_scores("qk", 128, 96, 64, 12, 2);
  EXPECT_EQ(qk.kind, LayerKind::kAttention);
  EXPECT_EQ(qk.batch, 24);                 // batch x heads
  EXPECT_EQ(qk.dim_size(Dim::kYp), 128);   // seq_q
  EXPECT_EQ(qk.dim_size(Dim::kC), 64);     // head_dim (reduction)
  EXPECT_EQ(qk.dim_size(Dim::kK), 96);     // seq_kv
  // The "weight" (K^T) is per batch x head: scaled by N.
  EXPECT_EQ(qk.weight_elems(), 96LL * 64 * 24);

  // scores x V: [seq_q x seq_kv] x [seq_kv x head_dim].
  const Workload av = nn::make_attention_context("av", 128, 96, 64, 12, 2);
  EXPECT_EQ(av.dim_size(Dim::kC), 96);     // seq_kv (reduction)
  EXPECT_EQ(av.dim_size(Dim::kK), 64);     // head_dim
  EXPECT_EQ(av.macs(), qk.macs());         // same MAC volume, swapped dims
}

TEST(TransformerLayer, ToStringUsesGemmView) {
  const std::string s = nn::make_matmul("ffn_up", 128, 768, 3072).to_string();
  EXPECT_NE(s.find("matmul"), std::string::npos);
  EXPECT_NE(s.find("m128"), std::string::npos);
  EXPECT_NE(s.find("k768"), std::string::npos);
  EXPECT_NE(s.find("n3072"), std::string::npos);
}

TEST(TransformerLayer, ShapeHashDiscriminatesKinds) {
  // A matmul and an attention layer with identical extents must never
  // alias a cache/store entry: kind participates in hash and equality.
  Workload mm = nn::make_matmul("x", 64, 128, 128, 8);
  Workload at = mm;
  at.kind = LayerKind::kAttention;
  EXPECT_FALSE(nn::LayerShapeEq{}(mm, at));
  EXPECT_NE(nn::LayerShapeHash{}(mm), nn::LayerShapeHash{}(at));
}

// ---------------------------------------------------- overflow audit

TEST(TransformerLayer, InputExtentMathSurvivesIntBoundary) {
  // (out_rows - 1) * min(stride, kernel) + kernel at out_rows past
  // INT_MAX/2 overflowed when the intermediates were int; the widened
  // signature must produce the exact value.
  const Workload l = nn::make_conv("c", 3, 8, 3, 2, 10);
  EXPECT_EQ(l.input_rows_for(1'200'000'000LL), 2'400'000'001LL);
  EXPECT_EQ(l.input_cols_for(1'200'000'000LL), 2'400'000'001LL);
}

TEST(TransformerLayer, WeightElemsSurviveIntBoundary) {
  // 65536 x 65536 weight = 2^32 elements: overflows int, exact in the
  // widened math.
  const Workload l = nn::make_matmul("big", 1, 65536, 65536);
  EXPECT_EQ(l.weight_elems(), 1LL << 32);
  EXPECT_EQ(l.macs(), 1LL << 32);
}

TEST(TransformerLayer, LlmDecodeScaleCountsAreExact) {
  // LLaMA-7B-class decode against an 8k KV cache: per-head K^T slices are
  // seq_kv x head_dim x (batch x heads) with no sharing.
  const Workload qk = nn::make_attention_scores("qk", 1, 8192, 128, 32, 1);
  EXPECT_EQ(qk.weight_elems(), 8192LL * 128 * 32);
  EXPECT_EQ(qk.macs(), 32LL * 8192 * 128);
  EXPECT_EQ(qk.input_elems(), 32LL * 1 * 128);
}

// ---------------------------------------------------- footprints

TEST(TransformerFootprint, AttentionWeightTileScalesWithBatchTile) {
  const Workload mm = nn::make_matmul("m", 64, 128, 256, 8);
  Workload at = mm;
  at.kind = LayerKind::kAttention;
  mapping::TileSizes tile{};
  for (Dim d : nn::all_dims()) mapping::set_tile(tile, d, 1);
  mapping::set_tile(tile, Dim::kN, 4);
  mapping::set_tile(tile, Dim::kK, 16);
  mapping::set_tile(tile, Dim::kC, 32);
  mapping::set_tile(tile, Dim::kYp, 8);

  const auto fp_mm = mapping::tile_footprint(mm, tile);
  const auto fp_at = mapping::tile_footprint(at, tile);
  EXPECT_EQ(fp_mm.weight, 16LL * 32 * mapping::kBytesPerElement);
  EXPECT_EQ(fp_at.weight, 4LL * 16 * 32 * mapping::kBytesPerElement);
  // Input and output bytes are kind-independent between the two.
  EXPECT_EQ(fp_mm.input, fp_at.input);
  EXPECT_EQ(fp_mm.output, fp_at.output);
  // Unit kernel/stride degenerate the halo formula to exact rows.
  EXPECT_EQ(fp_mm.input, 4LL * 32 * 8 * mapping::kBytesPerElement);
}

// ---------------------------------------------------- batch == scalar

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

/// Random transformer-shaped GEMM workload: projection/FFN matmuls and
/// decode/prefill attention slices, batch x heads folded into N.
Workload random_gemm_layer(core::Rng& rng) {
  const int rows = rng.bernoulli(0.3) ? 1 : rng.uniform_int(1, 64);  // decode
  if (rng.bernoulli(0.5)) {
    return nn::make_matmul("mm", rows, rng.uniform_int(1, 96),
                           rng.uniform_int(1, 96), rng.uniform_int(1, 8));
  }
  return rng.bernoulli(0.5)
             ? nn::make_attention_scores("qk", rows, rng.uniform_int(1, 64),
                                         rng.uniform_int(1, 32),
                                         rng.uniform_int(1, 4),
                                         rng.uniform_int(1, 2))
             : nn::make_attention_context("av", rows, rng.uniform_int(1, 64),
                                          rng.uniform_int(1, 32),
                                          rng.uniform_int(1, 4),
                                          rng.uniform_int(1, 2));
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
  const Dim dims[] = {Dim::kK, Dim::kC,  Dim::kYp, Dim::kXp,
                      Dim::kR, Dim::kS, Dim::kN};
  std::vector<Dim> pool(dims, dims + 7);
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
  std::vector<Dim> dims;
  for (Dim d : nn::all_dims()) dims.push_back(d);
  rng.shuffle(dims);
  mapping::LoopOrder order;
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = dims[i];
  if (allow_invalid && rng.bernoulli(0.1)) order[0] = order[1];  // duplicate
  return order;
}

mapping::Mapping random_candidate(core::Rng& rng, const arch::ArchConfig& arch,
                                  const Workload& layer) {
  mapping::Mapping m;
  m.dram.order = random_order(rng, true);
  m.pe.order = random_order(rng, true);
  m.pe_order = random_order(rng, true);
  for (Dim d : nn::all_dims()) {
    const int bound = layer.dim_size(d);
    mapping::set_tile(m.dram.tile, d, rng.uniform_int(0, 2 * bound));
    mapping::set_tile(m.pe.tile, d, rng.uniform_int(0, bound + 1));
  }
  if (rng.bernoulli(0.5)) m = mapping::repair(m, layer, arch);
  return m;
}

TEST(TransformerCostBatch, MatchesScalarByteForByteOnRandomGemms) {
  const CostModel model;
  core::Rng rng(test::sweep_seed(20260808));
  for (int round = 0; round < 40; ++round) {
    const Workload layer = random_gemm_layer(rng);
    const arch::ArchConfig arch = random_arch(rng);
    std::vector<mapping::Mapping> cands;
    for (int i = 0; i < 24; ++i)
      cands.push_back(random_candidate(rng, arch, layer));

    std::vector<std::string> scalar;
    for (const auto& m : cands)
      scalar.push_back(serialize_report(model.evaluate(arch, layer, m)));

    const LayerContext ctx = model.make_context(arch, layer);
    for (std::size_t batch_size : {std::size_t{1}, std::size_t{12},
                                   std::size_t{7}}) {
      std::vector<CostReport> reports(cands.size());
      for (std::size_t lo = 0; lo < cands.size(); lo += batch_size) {
        const std::size_t len = std::min(batch_size, cands.size() - lo);
        model.evaluate_batch(
            ctx, std::span<const mapping::Mapping>(cands).subspan(lo, len),
            std::span<CostReport>(reports).subspan(lo, len));
      }
      for (std::size_t i = 0; i < cands.size(); ++i)
        EXPECT_EQ(scalar[i], serialize_report(reports[i]))
            << layer.to_string() << " candidate " << i << " at batch size "
            << batch_size << " (reason='" << reports[i].illegal_reason
            << "')";
    }
  }
}

TEST(TransformerCostBatch, LegalityReasonsMatchMappingCheck) {
  const CostModel model;
  core::Rng rng(test::sweep_seed(808));
  int illegal_seen = 0;
  for (int round = 0; round < 200; ++round) {
    const Workload layer = random_gemm_layer(rng);
    const arch::ArchConfig arch = random_arch(rng);
    if (!arch.valid()) continue;
    const mapping::Mapping m = random_candidate(rng, arch, layer);
    const auto legality = mapping::check(m, layer, arch);
    const CostReport rep = model.evaluate(arch, layer, m);
    EXPECT_EQ(rep.legal, legality.legal) << layer.to_string();
    EXPECT_EQ(rep.illegal_reason, legality.reason) << layer.to_string();
    if (!legality.legal) ++illegal_seen;
  }
  EXPECT_GT(illegal_seen, 20) << "generator stopped producing illegal cases";
}

// ---------------------------------------------------- warm-start identity

TEST(TransformerWarmStart, BertEncoderAnswersBitIdenticalWithZeroSearches) {
  const std::string store = test::unique_temp_path("transformer_warm.bin");
  std::remove(store.c_str());
  serve::ServeOptions opts;
  opts.mapping.population = 6;
  opts.mapping.iterations = 3;
  opts.store_path = store;

  serve::Json req = serve::Json::object();
  req.set("id", serve::Json::integer(1));
  req.set("method", serve::Json::string("evaluate_network"));
  serve::Json arch = serve::Json::object();
  arch.set("preset", serve::Json::string("nvdla256"));
  req.set("arch", std::move(arch));
  req.set("network", serve::Json::string("bert_base_encoder"));
  const std::string line = req.dump();

  std::string cold;
  {
    serve::EvalService service(opts);
    cold = service.handle_line(line);
    EXPECT_GT(service.evaluator().mapping_searches(), 0);
  }  // destructor flushes the store
  serve::EvalService warm(opts);
  const std::string warm_response = warm.handle_line(line);
  EXPECT_EQ(cold, warm_response);
  EXPECT_EQ(warm.evaluator().mapping_searches(), 0)
      << "warm transformer run re-ran mapping searches";
  std::remove(store.c_str());
}

}  // namespace
}  // namespace naas::cost
