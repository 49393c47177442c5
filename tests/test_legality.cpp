#include "mapping/legality.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "arch/presets.hpp"
#include "core/rng.hpp"
#include "mapping/footprint.hpp"
#include "test_seed.hpp"

namespace naas::mapping {
namespace {

nn::Workload conv() { return nn::make_conv("c", 64, 128, 3, 1, 28); }

Mapping full_tiles(const nn::Workload& l) {
  Mapping m;
  for (nn::Dim d : nn::all_dims()) {
    set_tile(m.dram.tile, d, l.dim_size(d));
    set_tile(m.pe.tile, d, l.dim_size(d));
  }
  return m;
}

TEST(Legality, PeShareDividesByParallelExtent) {
  const auto arch = arch::nvdla_256_arch();  // 16x16 C x K
  const nn::Workload l = conv();
  TileSizes t2{};
  for (nn::Dim d : nn::all_dims()) set_tile(t2, d, l.dim_size(d));
  EXPECT_EQ(pe_share(l, arch, t2, nn::Dim::kC), 4);   // 64/16
  EXPECT_EQ(pe_share(l, arch, t2, nn::Dim::kK), 8);   // 128/16
  EXPECT_EQ(pe_share(l, arch, t2, nn::Dim::kYp), 28); // not parallel
}

TEST(Legality, PeShareCeils) {
  const auto arch = arch::eyeriss_arch();  // 12 x 14, R x Y'
  const nn::Workload l = conv();          // R=3, Yp=28
  TileSizes t2{};
  for (nn::Dim d : nn::all_dims()) set_tile(t2, d, l.dim_size(d));
  EXPECT_EQ(pe_share(l, arch, t2, nn::Dim::kR), 1);   // ceil(3/12)
  EXPECT_EQ(pe_share(l, arch, t2, nn::Dim::kYp), 2);  // ceil(28/14)
}

TEST(Legality, CheckRejectsBadOrder) {
  const auto arch = arch::nvdla_256_arch();
  const nn::Workload l = conv();
  Mapping m = repair(full_tiles(l), l, arch);
  m.dram.order[0] = m.dram.order[1];
  const auto rep = check(m, l, arch);
  EXPECT_FALSE(rep.legal);
  EXPECT_NE(rep.reason.find("permutation"), std::string::npos);
}

TEST(Legality, CheckRejectsOversizedDramTile) {
  const auto arch = arch::nvdla_256_arch();
  const nn::Workload l = conv();
  Mapping m = repair(full_tiles(l), l, arch);
  set_tile(m.dram.tile, nn::Dim::kK, l.out_channels + 1);
  EXPECT_FALSE(check(m, l, arch).legal);
}

TEST(Legality, CheckRejectsPeTileBeyondShare) {
  const auto arch = arch::nvdla_256_arch();
  const nn::Workload l = conv();
  Mapping m = repair(full_tiles(l), l, arch);
  set_tile(m.pe.tile, nn::Dim::kK,
           pe_share(l, arch, m.dram.tile, nn::Dim::kK) + 1);
  EXPECT_FALSE(check(m, l, arch).legal);
}

TEST(Legality, CheckRejectsL1Overflow) {
  auto arch = arch::nvdla_256_arch();
  arch.l1_bytes = 4;  // nothing fits
  const nn::Workload l = conv();
  Mapping m = full_tiles(l);
  set_tile(m.pe.tile, nn::Dim::kYp, 4);
  const auto rep = check(m, l, arch);
  EXPECT_FALSE(rep.legal);
}

TEST(Legality, RepairProducesLegalMappingFromGarbage) {
  const auto arch = arch::eyeriss_arch();
  const nn::Workload l = conv();
  Mapping garbage;
  garbage.dram.order[0] = garbage.dram.order[3];  // invalid order
  for (nn::Dim d : nn::all_dims()) {
    set_tile(garbage.dram.tile, d, 100000);
    set_tile(garbage.pe.tile, d, -5);
  }
  const Mapping fixed = repair(garbage, l, arch);
  const auto rep = check(fixed, l, arch);
  EXPECT_TRUE(rep.legal) << rep.reason;
}

TEST(Legality, RepairKeepsAlreadyLegalMappingIntact) {
  const auto arch = arch::nvdla_256_arch();
  const nn::Workload l = conv();
  Mapping m;
  for (nn::Dim d : nn::all_dims()) {
    set_tile(m.dram.tile, d, 1);
    set_tile(m.pe.tile, d, 1);
  }
  set_tile(m.dram.tile, nn::Dim::kK, 16);
  const Mapping fixed = repair(m, l, arch);
  EXPECT_EQ(tile_of(fixed.dram.tile, nn::Dim::kK), 16);
}

TEST(Legality, RepairRespectsShrinkPriority) {
  auto arch = arch::nvdla_256_arch();
  arch.l1_bytes = 64;
  const nn::Workload l = conv();
  Mapping m = full_tiles(l);
  // Priority shrinks X' first: after repair X' should be the most reduced.
  ShrinkPriority prio{nn::Dim::kXp, nn::Dim::kYp, nn::Dim::kN, nn::Dim::kK,
                      nn::Dim::kC,  nn::Dim::kS,  nn::Dim::kR};
  const Mapping fixed = repair(m, l, arch, prio);
  EXPECT_TRUE(check(fixed, l, arch).legal);
  EXPECT_LE(tile_of(fixed.pe.tile, nn::Dim::kXp),
            tile_of(fixed.pe.tile, nn::Dim::kR) * 3);
}

TEST(Legality, RepairHandlesTinyBuffers) {
  auto arch = arch::nvdla_256_arch();
  arch.l1_bytes = 3;   // exactly one element of each operand
  arch.l2_bytes = 16;
  const nn::Workload l = conv();
  const Mapping fixed = repair(full_tiles(l), l, arch);
  EXPECT_TRUE(check(fixed, l, arch).legal);
}

TEST(Legality, RepairReclampsPeTileAfterL2Shrink) {
  auto arch = arch::nvdla_256_arch();
  arch.l2_bytes = 2048;  // force heavy L2 shrinking
  const nn::Workload l = conv();
  const Mapping fixed = repair(full_tiles(l), l, arch);
  const auto rep = check(fixed, l, arch);
  EXPECT_TRUE(rep.legal) << rep.reason;
  for (nn::Dim d : nn::all_dims()) {
    EXPECT_LE(tile_of(fixed.pe.tile, d),
              pe_share(l, arch, fixed.dram.tile, d));
  }
}

TEST(GrowToFit, FillsBuffersWithoutOverflow) {
  const auto arch = arch::nvdla_256_arch();
  const nn::Workload l = conv();
  Mapping m;  // all-ones tiles: trivially legal, massively undersized
  const Mapping grown = grow_to_fit(m, l, arch, default_shrink_priority(),
                                    default_shrink_priority());
  EXPECT_TRUE(check(grown, l, arch).legal);
  // The grown L2 tile should use most of the buffer (> half).
  EXPECT_GT(tile_footprint(l, grown.dram.tile).total(), arch.l2_bytes / 2);
  EXPECT_GT(tile_footprint(l, grown.pe.tile).total(), arch.l1_bytes / 4);
}

TEST(GrowToFit, RespectsPriorityOrder) {
  auto arch = arch::nvdla_256_arch();
  arch.l2_bytes = 8 * 1024;  // tight: only the first-priority dims grow
  const nn::Workload l = conv();
  Mapping m;
  ShrinkPriority k_first{nn::Dim::kK, nn::Dim::kC, nn::Dim::kYp,
                         nn::Dim::kXp, nn::Dim::kN, nn::Dim::kR, nn::Dim::kS};
  ShrinkPriority y_first{nn::Dim::kYp, nn::Dim::kXp, nn::Dim::kK,
                         nn::Dim::kC, nn::Dim::kN, nn::Dim::kR, nn::Dim::kS};
  const Mapping mk = grow_to_fit(m, l, arch, k_first, k_first);
  const Mapping my = grow_to_fit(m, l, arch, y_first, y_first);
  EXPECT_GE(tile_of(mk.dram.tile, nn::Dim::kK),
            tile_of(my.dram.tile, nn::Dim::kK));
  EXPECT_GE(tile_of(my.dram.tile, nn::Dim::kYp),
            tile_of(mk.dram.tile, nn::Dim::kYp));
}

TEST(GrowToFit, NeverShrinksTiles) {
  const auto arch = arch::eyeriss_arch();
  const nn::Workload l = conv();
  Mapping m = repair(full_tiles(l), l, arch);
  const Mapping grown = grow_to_fit(m, l, arch, default_shrink_priority(),
                                    default_shrink_priority());
  for (nn::Dim d : nn::all_dims()) {
    EXPECT_GE(tile_of(grown.dram.tile, d), tile_of(m.dram.tile, d));
    EXPECT_GE(tile_of(grown.pe.tile, d), tile_of(m.pe.tile, d));
  }
  EXPECT_TRUE(check(grown, l, arch).legal);
}

TEST(GrowToFit, PeTilesStayWithinShares) {
  const auto arch = arch::shidiannao_arch();
  const nn::Workload l = nn::make_conv("big", 256, 512, 3, 1, 56);
  Mapping m;
  const Mapping grown = grow_to_fit(m, l, arch, default_shrink_priority(),
                                    default_shrink_priority());
  for (nn::Dim d : nn::all_dims()) {
    EXPECT_LE(tile_of(grown.pe.tile, d),
              pe_share(l, arch, grown.dram.tile, d));
  }
}

/// grow_to_fit as first written: every trial size re-derives the whole
/// clamped three-operand footprint. The differential test below holds the
/// production version to this reference.
Mapping reference_grow_to_fit(Mapping m, const nn::Workload& layer,
                              const arch::ArchConfig& arch,
                              const ShrinkPriority& dram_priority,
                              const ShrinkPriority& pe_priority) {
  auto grow = [&layer](TileSizes& tiles, const ShrinkPriority& prio,
                       auto bound_fn, long long cap) {
    for (nn::Dim d : prio) {
      const int bound = std::max(1, bound_fn(d));
      int cur = tile_of(tiles, d);
      if (cur >= bound) continue;
      set_tile(tiles, d, bound);
      if (tile_footprint(layer, tiles).total() <= cap) continue;
      set_tile(tiles, d, cur);
      while (cur < bound) {
        const int next = std::min(bound, cur * 2);
        set_tile(tiles, d, next);
        if (tile_footprint(layer, tiles).total() > cap) {
          set_tile(tiles, d, cur);
          break;
        }
        cur = next;
      }
    }
  };
  grow(m.dram.tile, dram_priority,
       [&](nn::Dim d) { return layer.dim_size(d); }, arch.l2_bytes);
  grow(m.pe.tile, pe_priority,
       [&](nn::Dim d) { return pe_share(layer, arch, m.dram.tile, d); },
       arch.l1_bytes);
  return m;
}

/// Log-uniform integer in [lo, hi].
long long log_uniform(core::Rng& rng, long long lo, long long hi) {
  const double v = std::exp(rng.uniform(std::log(static_cast<double>(lo)),
                                        std::log(static_cast<double>(hi))));
  return std::clamp(static_cast<long long>(v), lo, hi);
}

/// A random array with 1-3 active axes over distinct dims, and buffers
/// from a few bytes (everything shrinks to ones) to far past any tile.
arch::ArchConfig random_arch(core::Rng& rng) {
  arch::ArchConfig a = arch::nvdla_256_arch();
  a.num_array_dims = rng.uniform_int(1, 3);
  const auto all = nn::all_dims();
  std::vector<nn::Dim> dims(all.begin(), all.end());
  rng.shuffle(dims);
  for (std::size_t i = 0; i < 3; ++i) {
    a.array_dims[i] = i < static_cast<std::size_t>(a.num_array_dims)
                          ? 2 * rng.uniform_int(1, 32)
                          : 1;
    a.parallel_dims[i] = dims[i];
  }
  a.l1_bytes = log_uniform(rng, 3, 1LL << 16);
  a.l2_bytes = log_uniform(rng, 16, 1LL << 36);
  return a;
}

ShrinkPriority random_priority(core::Rng& rng) {
  const auto all = nn::all_dims();
  std::vector<nn::Dim> dims(all.begin(), all.end());
  rng.shuffle(dims);
  ShrinkPriority p{};
  std::copy(dims.begin(), dims.end(), p.begin());
  return p;
}

TEST(GrowToFit, MatchesFullRecomputeReference) {
  const nn::Workload layers[] = {
      nn::make_conv("c", 64, 128, 3, 1, 28),
      nn::make_conv("s2k1", 32, 64, 1, 2, 28),      // stride > kernel
      nn::make_conv("s4k3", 16, 32, 3, 4, 14, 2),   // stride > kernel, N=2
      nn::make_dwconv("dw", 96, 3, 2, 56),
      nn::make_fc("fc", 1280, 1000, 4),
      nn::make_matmul("mm", 128, 768, 3072),
      nn::make_attention_scores("qk", 8192, 8192, 128, 64),  // > 2^31 B tiles
      nn::make_attention_context("av", 128, 128, 64, 12, 2),
  };
  core::Rng rng(test::sweep_seed(61));
  int compared = 0;
  for (const nn::Workload& layer : layers) {
    for (int i = 0; i < 2600; ++i) {
      const arch::ArchConfig arch = random_arch(rng);
      Mapping m;
      for (nn::Dim d : nn::all_dims()) {
        set_tile(m.dram.tile, d,
                 static_cast<int>(log_uniform(rng, 1, layer.dim_size(d))));
        set_tile(m.pe.tile, d,
                 static_cast<int>(log_uniform(rng, 1, layer.dim_size(d))));
      }
      m = repair(m, layer, arch, random_priority(rng));
      ASSERT_TRUE(check(m, layer, arch).legal);
      const ShrinkPriority dram_prio = random_priority(rng);
      const ShrinkPriority pe_prio = random_priority(rng);
      const Mapping want =
          reference_grow_to_fit(m, layer, arch, dram_prio, pe_prio);
      const Mapping got = grow_to_fit(m, layer, arch, dram_prio, pe_prio);
      ASSERT_EQ(got.dram.tile, want.dram.tile) << layer.name << " #" << i;
      ASSERT_EQ(got.pe.tile, want.pe.tile) << layer.name << " #" << i;
      ASSERT_EQ(got.dram.order, want.dram.order);
      ASSERT_EQ(got.pe.order, want.pe.order);
      ASSERT_EQ(got.pe_order, want.pe_order);
      ++compared;
    }
  }
  EXPECT_GE(compared, 20000);
}

}  // namespace
}  // namespace naas::mapping
