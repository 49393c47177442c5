#include "cost/cost_model.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "mapping/footprint.hpp"
#include "mapping/legality.hpp"

namespace naas::cost {
namespace {

using mapping::TileSizes;
using mapping::tile_of;

constexpr std::size_t kD = static_cast<std::size_t>(nn::kNumDims);

long long ceil_div(long long a, long long b) { return (a + b - 1) / b; }

/// Workspace for one evaluate_batch call. Per-dimension geometry arrays
/// (tiles, shares, trip counts) are candidate-major — slot j's seven dims
/// share a cache line, matching the per-candidate scans of stage 2 — while
/// every stage-3 operand is one flat slot-indexed column, the
/// struct-of-arrays layout the arithmetic pass streams through.
/// Thread-local so the search fan-out reuses one allocation per worker
/// across every generation; all slots consumed by a call are written by
/// that call first, so reuse never leaks state between batches
/// (determinism is preserved).
struct BatchScratch {
  // Geometry (stage 1): clamped tiles, per-PE shares, trip counts.
  std::vector<int> t2, t1, shr;      // kD * n ints
  std::vector<double> n2, n1;        // kD * n doubles
  // Tile footprints as the doubles the traffic formulas consume.
  std::vector<double> fp2_in, fp2_w, fp2_out, fp2_tot;
  std::vector<double> fp1_in, fp1_w, fp1_out;
  std::vector<double> used;          // kMaxArrayDims * n active-PE counts
  // Order-dependent factors (stage 2).
  std::vector<double> phases, per_pe_iters;
  std::vector<double> in_f2, w_f2, out_f2, out_d2;
  std::vector<double> in_f1, w_f1, out_f1, out_d1;
  std::vector<double> in_rr, w_rr, out_rr;
  std::vector<double> in_mult, w_mult, out_mult, red_extent, fanout;
  // Flat arithmetic outputs (stage 3).
  std::vector<double> dram_bytes, l2_read, l2_write, l1_access;
  std::vector<double> noc_delivery, red_hops;
  std::vector<double> compute_cyc, noc_cyc, dram_cyc, latency, util;
  std::vector<double> e_l1, e_l2, e_noc, e_dram, e_total_nj, edp;
  std::vector<std::size_t> live;     // slot -> original candidate index

  void reserve(std::size_t n) {
    t2.resize(kD * n);
    t1.resize(kD * n);
    shr.resize(kD * n);
    n2.resize(kD * n);
    n1.resize(kD * n);
    for (auto* v : {&fp2_in, &fp2_w, &fp2_out, &fp2_tot, &fp1_in, &fp1_w,
                    &fp1_out, &phases, &per_pe_iters, &in_f2, &w_f2, &out_f2,
                    &out_d2, &in_f1, &w_f1, &out_f1, &out_d1, &in_rr, &w_rr,
                    &out_rr, &in_mult, &w_mult, &out_mult, &red_extent,
                    &fanout, &dram_bytes, &l2_read, &l2_write, &l1_access,
                    &noc_delivery, &red_hops, &compute_cyc, &noc_cyc,
                    &dram_cyc, &latency, &util, &e_l1, &e_l2, &e_noc, &e_dram,
                    &e_total_nj, &edp})
      v->resize(n);
    used.resize(static_cast<std::size_t>(arch::kMaxArrayDims) * n);
    live.clear();
    live.reserve(n);
  }
};

thread_local BatchScratch tls_scratch;

/// reload_factor (reuse.cpp) for all three tensors of one temporal level
/// in a single scan, with relevance pre-reduced to bit masks. Each tensor
/// keeps its own accumulator and multiplies exactly the trips the scalar
/// routine would, in the same innermost-to-outermost sequence — fusing the
/// scans changes nothing about any tensor's rounding order. `ord` lists
/// the level's loops outermost first.
void reload_factors_masked(const mapping::LoopOrder& ord, const double* trips,
                           std::uint8_t in_mask, std::uint8_t w_mask,
                           std::uint8_t out_mask, double* in_f, double* w_f,
                           double* out_f) {
  double fi = 1.0, fw = 1.0, fo = 1.0;
  bool si = false, sw = false, so = false;  // seen-relevant per tensor
  for (int i = static_cast<int>(kD) - 1; i >= 0; --i) {
    const auto d = static_cast<std::size_t>(ord[i]);
    const double trip = trips[d];
    if (trip <= 1.0) continue;  // a single-trip loop is no loop at all
    const auto bit = static_cast<std::uint8_t>(1u << d);
    // Relevant loops refetch; irrelevant loops refetch only when a
    // relevant loop sits deeper inside (otherwise: temporal reuse).
    if (in_mask & bit) {
      fi *= trip;
      si = true;
    } else if (si) {
      fi *= trip;
    }
    if (w_mask & bit) {
      fw *= trip;
      sw = true;
    } else if (sw) {
      fw *= trip;
    }
    if (out_mask & bit) {
      fo *= trip;
      so = true;
    } else if (so) {
      fo *= trip;
    }
  }
  *in_f = fi;
  *w_f = fw;
  *out_f = fo;
}

/// distinct_tiles (reuse.cpp) over staged trips: product of relevant trips
/// in canonical dim order.
double distinct_tiles_masked(const double* trips, std::uint8_t mask) {
  double n = 1.0;
  for (std::size_t d = 0; d < kD; ++d)
    if ((mask >> d) & 1u) n *= trips[d];
  return n;
}

/// register_reuse (reuse.cpp) for all three tensors in one scan over the
/// L1 tile sizes: a tensor accumulates trips until its first relevant
/// loop, then stops — per-tensor multiplication order is untouched.
void register_reuse_masked(const mapping::LoopOrder& ord, const int* t1,
                           std::uint8_t in_mask, std::uint8_t w_mask,
                           std::uint8_t out_mask, double* in_r, double* w_r,
                           double* out_r) {
  double ri = 1.0, rw = 1.0, ro = 1.0;
  bool di = false, dw = false, dout = false;  // hit the relevant barrier
  for (int i = static_cast<int>(kD) - 1; i >= 0; --i) {
    const auto d = static_cast<std::size_t>(ord[i]);
    const double trip = static_cast<double>(t1[d]);
    if (trip <= 1.0) continue;  // degenerate loop: neither reuse nor barrier
    const auto bit = static_cast<std::uint8_t>(1u << d);
    if (!di) {
      if (in_mask & bit) di = true; else ri *= trip;
    }
    if (!dw) {
      if (w_mask & bit) dw = true; else rw *= trip;
    }
    if (!dout) {
      if (out_mask & bit) dout = true; else ro *= trip;
    }
    if (di && dw && dout) break;
  }
  *in_r = ri;
  *w_r = rw;
  *out_r = ro;
}

/// Stage-2 reuse scans for slot `j`, which holds mapping `m`.
void reuse_slot(const LayerContext& ctx, const mapping::Mapping& m,
                BatchScratch& s, std::size_t j) {
  const double* n2_row = &s.n2[j * kD];
  const double* n1_row = &s.n1[j * kD];
  reload_factors_masked(m.dram.order, n2_row, ctx.input_mask,
                        ctx.weight_mask, ctx.output_mask, &s.in_f2[j],
                        &s.w_f2[j], &s.out_f2[j]);
  s.out_d2[j] = distinct_tiles_masked(n2_row, ctx.output_mask);
  reload_factors_masked(m.pe.order, n1_row, ctx.input_mask,
                        ctx.weight_mask, ctx.output_mask, &s.in_f1[j],
                        &s.w_f1[j], &s.out_f1[j]);
  s.out_d1[j] = distinct_tiles_masked(n1_row, ctx.output_mask);
  register_reuse_masked(m.pe_order, &s.t1[j * kD], ctx.input_mask,
                        ctx.weight_mask, ctx.output_mask, &s.in_rr[j],
                        &s.w_rr[j], &s.out_rr[j]);
}

/// Stage-3 traffic/latency/energy arithmetic for one slot. Each line is
/// the scalar evaluator's formula verbatim (left-associated exactly as
/// written), so per-candidate rounding order never depends on the batch.
void arith_slot(const LayerContext& ctx, BatchScratch& s, std::size_t j) {
  // Level 1: DRAM <-> L2.
  const double in_dram = s.in_f2[j] * s.fp2_in[j];
  const double w_dram = s.w_f2[j] * s.fp2_w[j];
  const double out_writes_dram = s.out_f2[j] * s.fp2_out[j];
  const double out_reads_dram = (s.out_f2[j] - s.out_d2[j]) * s.fp2_out[j];
  s.dram_bytes[j] = in_dram + w_dram + out_writes_dram + out_reads_dram;
  const double l2_fill_writes = in_dram + w_dram + out_reads_dram;
  const double l2_drain_reads = out_writes_dram;

  // Level 2: L2 <-> PE array (per phase, per PE, then scaled).
  const double per_pe_in = s.in_f1[j] * s.fp1_in[j];
  const double per_pe_w = s.w_f1[j] * s.fp1_w[j];
  const double per_pe_out_w = s.out_f1[j] * s.fp1_out[j];
  const double per_pe_out_r = (s.out_f1[j] - s.out_d1[j]) * s.fp1_out[j];

  const double l2_in_reads = s.phases[j] * per_pe_in * s.in_mult[j];
  const double l2_w_reads = s.phases[j] * per_pe_w * s.w_mult[j];
  const double l2_out_writes = s.phases[j] * per_pe_out_w * s.out_mult[j];
  const double l2_out_reads = s.phases[j] * per_pe_out_r * s.out_mult[j];

  s.l2_read[j] = l2_in_reads + l2_w_reads + l2_out_reads + l2_drain_reads;
  s.l2_write[j] = l2_out_writes + l2_fill_writes;

  // NoC delivery energy: every active PE receives its operand stream;
  // psum reduction adds (red_extent - 1) hops per reduced output byte.
  s.noc_delivery[j] = s.phases[j] *
                      (per_pe_in + per_pe_w + per_pe_out_r + per_pe_out_w) *
                      s.fanout[j];
  s.red_hops[j] = l2_out_writes * (s.red_extent[j] - 1.0);

  // Level 3: registers inside the PE.
  const double l1_in_reads = ctx.macs / s.in_rr[j];
  const double l1_w_reads = ctx.macs / s.w_rr[j];
  const double l1_out_rw = 2.0 * ctx.macs / s.out_rr[j];
  const double l1_fill =
      s.phases[j] * (per_pe_in + per_pe_w + per_pe_out_r) * s.fanout[j];
  const double l1_drain = s.phases[j] * per_pe_out_w * s.fanout[j];
  s.l1_access[j] = l1_in_reads + l1_w_reads + l1_out_rw + l1_fill + l1_drain;

  // Latency: padded per-PE iteration space at 1 MAC/cycle vs the two
  // port occupancies, plus pipeline fill.
  s.compute_cyc[j] = s.phases[j] * s.per_pe_iters[j];
  s.noc_cyc[j] = (s.l2_read[j] + s.l2_write[j]) / ctx.noc_bw;
  s.dram_cyc[j] = s.dram_bytes[j] / ctx.dram_bw;
  const double fill_cycles = s.fp2_tot[j] / ctx.dram_bw + ctx.array_depth;
  s.latency[j] =
      std::max({s.compute_cyc[j], s.noc_cyc[j], s.dram_cyc[j]}) + fill_cycles;
  s.util[j] = ctx.macs / (ctx.pes * s.compute_cyc[j]);

  // Energy (per-byte coefficients precomputed in the context).
  s.e_l1[j] = s.l1_access[j] * ctx.l1_access_pj;
  s.e_l2[j] = (s.l2_read[j] + s.l2_write[j]) * ctx.l2_access_pj;
  s.e_noc[j] = (s.noc_delivery[j] + s.red_hops[j]) * ctx.noc_hop_pj;
  s.e_dram[j] = s.dram_bytes[j] * ctx.dram_pj_per_byte;
  s.e_total_nj[j] =
      (ctx.mac_energy_pj + s.e_l1[j] + s.e_l2[j] + s.e_noc[j] + s.e_dram[j]) /
      1000.0;
  s.edp[j] = s.e_total_nj[j] * s.latency[j];
}

void fill_illegal(CostReport& rep, std::string reason) {
  rep = CostReport{};
  rep.illegal_reason = std::move(reason);
  rep.edp = std::numeric_limits<double>::infinity();
}

/// is_valid_order (mapping.cpp) as a branch-light bitmask: seven in-range
/// entries OR to exactly 0x7f iff they are a permutation.
bool order_is_permutation(const mapping::LoopOrder& order) {
  unsigned mask = 0;
  for (nn::Dim dim : order) {
    const auto i = static_cast<unsigned>(static_cast<int>(dim));
    if (i >= kD) return false;
    mask |= 1u << i;
  }
  return mask == (1u << kD) - 1u;
}

/// Distinct input rows/cols read for `out` outputs with `kr` kernel rows —
/// the extent lambda of the scalar input_axis_multiplier.
double halo_extent(int stride, int out, int kr) {
  return static_cast<double>((out - 1) * std::min(stride, kr) + kr);
}

/// input_axis_multiplier (scalar path) for the four halo kinds — the
/// caller resolves kOne/kUsed inline and only dispatches here when an
/// axis splits a spatial or kernel dimension.
double input_multiplier(const LayerContext& ctx, const AxisContext& ax,
                        const int* t2_row, const int* shr_row, double used) {
  const auto at = [](const int* row, nn::Dim d) {
    return row[static_cast<std::size_t>(static_cast<int>(d))];
  };
  switch (ax.input_kind) {
    case AxisInputKind::kHaloYp: {
      const double union_rows =
          halo_extent(ctx.stride, at(t2_row, nn::Dim::kYp), at(t2_row, nn::Dim::kR));
      const double pe_rows =
          halo_extent(ctx.stride, at(shr_row, nn::Dim::kYp), at(t2_row, nn::Dim::kR));
      return std::clamp(union_rows / pe_rows, 1.0, used);
    }
    case AxisInputKind::kHaloXp: {
      const double union_cols =
          halo_extent(ctx.stride, at(t2_row, nn::Dim::kXp), at(t2_row, nn::Dim::kS));
      const double pe_cols =
          halo_extent(ctx.stride, at(shr_row, nn::Dim::kXp), at(t2_row, nn::Dim::kS));
      return std::clamp(union_cols / pe_cols, 1.0, used);
    }
    case AxisInputKind::kHaloR: {
      const double union_rows =
          halo_extent(ctx.stride, at(t2_row, nn::Dim::kYp), at(t2_row, nn::Dim::kR));
      const double pe_rows =
          halo_extent(ctx.stride, at(t2_row, nn::Dim::kYp), at(shr_row, nn::Dim::kR));
      return std::clamp(union_rows / pe_rows, 1.0, used);
    }
    case AxisInputKind::kHaloS: {
      const double union_cols =
          halo_extent(ctx.stride, at(t2_row, nn::Dim::kXp), at(t2_row, nn::Dim::kS));
      const double pe_cols =
          halo_extent(ctx.stride, at(t2_row, nn::Dim::kXp), at(shr_row, nn::Dim::kS));
      return std::clamp(union_cols / pe_cols, 1.0, used);
    }
    default: break;  // kOne/kUsed never reach here (caller fast path)
  }
  return used;
}

/// Legality + geometry for one candidate: the mapping::check sequence with
/// the arch-invariant work (dim bounds, parallel extents, buffer caps)
/// read from the context, fused with the clamp/share/trip-count setup of
/// the scalar evaluator so footprints are computed once, not twice.
/// On success stage-1 columns of slot `j` are filled and true is returned;
/// on failure `rep` carries the same reason string mapping::check builds.
bool stage_geometry(const LayerContext& ctx, const mapping::Mapping& m,
                    std::size_t j, BatchScratch& s, CostReport& rep) {
  if (!order_is_permutation(m.dram.order)) {
    fill_illegal(rep, mapping::kReasonDramOrder);
    return false;
  }
  if (!order_is_permutation(m.pe.order)) {
    fill_illegal(rep, mapping::kReasonPeOrder);
    return false;
  }
  if (!order_is_permutation(m.pe_order)) {
    fill_illegal(rep, mapping::kReasonRegisterOrder);
    return false;
  }
  int t2l[kD], t1l[kD], shrl[kD];
  for (nn::Dim dim : nn::all_dims()) {
    const auto d = static_cast<std::size_t>(static_cast<int>(dim));
    const int size = ctx.dim_size[d];
    // TileSizes is indexed by the dim's enum value (tile_of's contract);
    // direct indexing keeps the 14 hottest loads of the pass call-free.
    const int t2_raw = m.dram.tile[d];
    if (t2_raw < 1 || t2_raw > size) {
      fill_illegal(rep, mapping::reason_dram_tile_range(dim));
      return false;
    }
    const int t1_raw = m.pe.tile[d];
    // pe_share(layer, arch, m.dram.tile, dim) with the clamp a no-op
    // (t2_raw is in range) and the extent a context lookup. The trivial
    // operand cases skip the integer division (the dominant ALU cost of
    // this pass) with exactly the value ceil_div would produce: most dims
    // have extent 1, and grown tiles sit at 1 or at the bound.
    const long long ext = ctx.par_extent[d];
    const long long share =
        ext == 1 ? t2_raw : std::max<long long>(1, ceil_div(t2_raw, ext));
    if (t1_raw < 1 || t1_raw > share) {
      fill_illegal(rep, mapping::reason_pe_tile_share(dim));
      return false;
    }
    // Range-checked raw tiles equal their clamped values, so the scalar
    // evaluator's re-clamp is the identity here.
    t2l[d] = t2_raw;
    shrl[d] = static_cast<int>(share);
    t1l[d] = t1_raw;
    s.n2[j * kD + d] = static_cast<double>(
        t2_raw == size ? 1
        : t2_raw == 1  ? size
                       : ceil_div(size, t2_raw));
    s.n1[j * kD + d] = static_cast<double>(
        t1_raw == share ? 1
        : t1_raw == 1   ? share
                        : ceil_div(share, t1_raw));
  }

  // Tile footprints, once per level (the scalar path derives them twice:
  // in mapping::check and again in the traffic section). In-range tiles
  // make tile_footprint's internal clamp a no-op, so the bytes are
  // identical to both of the scalar computations.
  const auto footprint = [&](const int* tiles, double* in, double* w,
                             double* out_fp) {
    const auto at = [&](nn::Dim d) {
      return static_cast<long long>(
          tiles[static_cast<std::size_t>(static_cast<int>(d))]);
    };
    const long long tn = at(nn::Dim::kN);
    const long long tk = at(nn::Dim::kK);
    const long long tc = at(nn::Dim::kC);
    const long long typ = at(nn::Dim::kYp);
    const long long txp = at(nn::Dim::kXp);
    const long long tr = at(nn::Dim::kR);
    const long long ts = at(nn::Dim::kS);
    const long long in_rows =
        (typ - 1) * std::min<long long>(ctx.stride, tr) + tr;
    const long long in_cols =
        (txp - 1) * std::min<long long>(ctx.stride, ts) + ts;
    const long long in_ch = ctx.depthwise ? tk : tc;
    const long long fi = tn * in_ch * in_rows * in_cols *
                         mapping::kBytesPerElement;
    // Attention's weight operand is batch-indexed (see KindSemantics), so
    // its tile scales with the batch tile; every other kind multiplies by 1
    // and stays integer-identical to the pre-refactor formula.
    const long long fw = (ctx.batched_weight ? tn : 1) * tk * tc * tr * ts *
                         mapping::kBytesPerElement;
    const long long fo = tn * tk * typ * txp * mapping::kBytesPerElement;
    *in = static_cast<double>(fi);
    *w = static_cast<double>(fw);
    *out_fp = static_cast<double>(fo);
    return fi + fw + fo;
  };

  const long long fp1_total =
      footprint(t1l, &s.fp1_in[j], &s.fp1_w[j], &s.fp1_out[j]);
  if (fp1_total > ctx.l1_bytes) {
    fill_illegal(rep, mapping::reason_l1_overflow(fp1_total, ctx.l1_bytes));
    return false;
  }
  const long long fp2_total =
      footprint(t2l, &s.fp2_in[j], &s.fp2_w[j], &s.fp2_out[j]);
  if (fp2_total > ctx.l2_bytes) {
    fill_illegal(rep, mapping::reason_l2_overflow(fp2_total, ctx.l2_bytes));
    return false;
  }
  s.fp2_tot[j] = static_cast<double>(fp2_total);

  for (std::size_t d = 0; d < kD; ++d) {
    s.t2[j * kD + d] = t2l[d];
    s.shr[j * kD + d] = shrl[d];
    s.t1[j * kD + d] = t1l[d];
  }

  // Active PEs per axis for a full L2 tile (share 1 ⇒ every PE slice is
  // one element wide ⇒ used == t2, no division).
  for (int a = 0; a < ctx.num_axes; ++a) {
    const std::size_t d = ctx.axes[a].dim_index;
    s.used[j * static_cast<std::size_t>(arch::kMaxArrayDims) +
           static_cast<std::size_t>(a)] =
        static_cast<double>(shrl[d] == 1 ? t2l[d]
                                         : ceil_div(t2l[d], shrl[d]));
  }
  return true;
}

}  // namespace

void CostModel::evaluate_batch(const LayerContext& ctx,
                               std::span<const mapping::Mapping> mappings,
                               std::span<CostReport> reports) const {
  assert(mappings.size() == reports.size());
  const std::size_t n = mappings.size();
  BatchScratch& s = tls_scratch;
  s.reserve(n);

  // ---- Stage 1: legality + tile geometry (per candidate, short-circuit
  // order identical to mapping::check; survivors are compacted into live
  // slots so the later passes touch contiguous memory) -------------------
  for (std::size_t i = 0; i < n; ++i) {
    CostReport& rep = reports[i];
    if (!ctx.arch_valid) {
      fill_illegal(rep, "invalid accelerator configuration");
      continue;
    }
    if (ctx.degenerate) {
      fill_illegal(rep, ctx.degenerate_reason);
      continue;
    }
    const std::size_t j = s.live.size();
    if (stage_geometry(ctx, mappings[i], j, s, rep)) s.live.push_back(i);
  }
  const std::size_t m = s.live.size();

  // ---- Stage 2: candidate-local products and spatial multipliers (they
  // index context axis metadata and tile geometry) -----------------------
  for (std::size_t j = 0; j < m; ++j) {
    const double* n2_row = &s.n2[j * kD];
    const double* n1_row = &s.n1[j * kD];
    const int* t1_row = &s.t1[j * kD];
    const int* t2_row = &s.t2[j * kD];
    const int* shr_row = &s.shr[j * kD];

    double phases = 1.0;
    double iters = 1.0;
    for (std::size_t d = 0; d < kD; ++d) {
      phases *= n2_row[d];
      iters *= n1_row[d] * static_cast<double>(t1_row[d]);
    }
    s.phases[j] = phases;
    s.per_pe_iters[j] = iters;

    // Spatial multipliers: unicast axes multiply unique L2 reads, broadcast
    // axes do not; inputs get the halo-aware multiplier.
    double in_mult = 1.0, w_mult = 1.0, out_mult = 1.0;
    double fanout = 1.0;      // total active PEs (delivery energy)
    double red_extent = 1.0;  // PEs combined by in-network reduction
    for (int a = 0; a < ctx.num_axes; ++a) {
      const AxisContext& ax = ctx.axes[a];
      const double used =
          s.used[j * static_cast<std::size_t>(arch::kMaxArrayDims) +
                 static_cast<std::size_t>(a)];
      fanout *= used;
      // Broadcast/unicast axes resolve without touching tile data; only
      // the four halo kinds (spatial/kernel axes) need the full formula.
      if (ax.input_kind == AxisInputKind::kUsed) {
        in_mult *= used;
      } else if (ax.input_kind != AxisInputKind::kOne) {
        in_mult *= input_multiplier(ctx, ax, t2_row, shr_row, used);
      }
      w_mult *= ax.weight_relevant ? used : 1.0;
      if (ax.output_relevant) {
        out_mult *= used;
      } else if (ax.reduction) {
        red_extent *= used;
      }
    }
    s.in_mult[j] = in_mult;
    s.w_mult[j] = w_mult;
    s.out_mult[j] = out_mult;
    s.red_extent[j] = red_extent;
    s.fanout[j] = fanout;
  }

  // ---- Stages 2b + 3: mask-driven reuse scans, then the flat
  // traffic/latency/energy arithmetic, one live slot at a time. ---------
  for (std::size_t j = 0; j < m; ++j) {
    reuse_slot(ctx, mappings[s.live[j]], s, j);
    arith_slot(ctx, s, j);
  }

  // ---- Stage 4: scatter into the report structs ------------------------
  for (std::size_t j = 0; j < m; ++j) {
    CostReport& rep = reports[s.live[j]];
    // compute_cycles >= 1 by construction (every factor is >= 1); keep the
    // no-NaN invariant guarded locally anyway so a degenerate evaluation
    // surfaces as an illegal reason, never as NaN utilization.
    if (!(s.compute_cyc[j] > 0.0)) {
      fill_illegal(rep, "degenerate evaluation (zero compute cycles)");
      continue;
    }
    rep.legal = true;
    rep.illegal_reason.clear();  // report slots may be reused across batches
    rep.macs = ctx.macs;
    rep.compute_cycles = s.compute_cyc[j];
    rep.noc_cycles = s.noc_cyc[j];
    rep.dram_cycles = s.dram_cyc[j];
    rep.latency_cycles = s.latency[j];
    rep.energy.mac_pj = ctx.mac_energy_pj;
    rep.energy.l1_pj = s.e_l1[j];
    rep.energy.l2_pj = s.e_l2[j];
    rep.energy.noc_pj = s.e_noc[j];
    rep.energy.dram_pj = s.e_dram[j];
    rep.energy_nj = s.e_total_nj[j];
    rep.edp = s.edp[j];
    rep.pe_utilization = s.util[j];
    rep.dram_bytes = s.dram_bytes[j];
    rep.l2_read_bytes = s.l2_read[j];
    rep.l2_write_bytes = s.l2_write[j];
    rep.l1_access_bytes = s.l1_access[j];
    rep.noc_delivery_bytes = s.noc_delivery[j];
    rep.reduction_hop_bytes = s.red_hops[j];
  }
}

CostReport CostModel::evaluate(const arch::ArchConfig& arch,
                               const nn::Workload& layer,
                               const mapping::Mapping& m) const {
  // The scalar path is the batch path at size one: same legality sequence,
  // same arithmetic, same rounding — there is exactly one implementation.
  const LayerContext ctx(arch, layer, energy_);
  CostReport rep;
  evaluate_batch(ctx, {&m, 1}, {&rep, 1});
  return rep;
}

}  // namespace naas::cost
