#include "cost/layer_context.hpp"

#include <limits>

#include "cost/reuse.hpp"

namespace naas::cost {
namespace {

/// Resolves the input_axis_multiplier switch for a fixed axis binding,
/// reading the per-kind semantics table: dims outside the kind's input mask
/// broadcast (kOne); spatial/kernel dims inside it use the sliding-window
/// halo forms; everything else unicasts. For matmul/attention the mask
/// drops X'/R/S, so those axes classify as kOne and Y' keeps the halo form,
/// which degenerates to the exact row-partition ratio at kernel=stride=1.
AxisInputKind classify_input_axis(nn::Dim d, nn::LayerKind kind) {
  if (!is_relevant(Tensor::kInput, d, kind)) return AxisInputKind::kOne;
  switch (d) {
    case nn::Dim::kYp: return AxisInputKind::kHaloYp;
    case nn::Dim::kXp: return AxisInputKind::kHaloXp;
    case nn::Dim::kR: return AxisInputKind::kHaloR;
    case nn::Dim::kS: return AxisInputKind::kHaloS;
    default: return AxisInputKind::kUsed;
  }
}

}  // namespace

LayerContext::LayerContext(const arch::ArchConfig& arch,
                           const nn::Workload& layer,
                           const EnergyModel& energy) {
  arch_valid = arch.valid();
  kind = layer.kind;
  depthwise = kind == nn::LayerKind::kDepthwiseConv;
  batched_weight = semantics(kind).batched_weight;
  stride = layer.stride;
  for (nn::Dim d : nn::all_dims())
    dim_size[static_cast<std::size_t>(static_cast<int>(d))] =
        layer.dim_size(d);
  macs = static_cast<double>(layer.macs());

  for (int t = 0; t < 3; ++t) {
    const auto tensor = static_cast<Tensor>(t);
    std::uint8_t mask = 0;
    for (nn::Dim d : nn::all_dims())
      if (is_relevant(tensor, d, kind))
        mask |= static_cast<std::uint8_t>(1u << static_cast<int>(d));
    if (tensor == Tensor::kInput) input_mask = mask;
    if (tensor == Tensor::kWeight) weight_mask = mask;
    if (tensor == Tensor::kOutput) output_mask = mask;
  }

  num_axes = arch.num_array_dims;
  pes = 1.0;
  array_depth = 0.0;
  if (arch_valid) {
    for (int a = 0; a < num_axes; ++a) {
      AxisContext& ax = axes[a];
      ax.dim = arch.parallel_dims[static_cast<std::size_t>(a)];
      ax.dim_index = static_cast<std::size_t>(static_cast<int>(ax.dim));
      ax.size = arch.array_dims[static_cast<std::size_t>(a)];
      ax.input_kind = classify_input_axis(ax.dim, kind);
      ax.weight_relevant = is_relevant(Tensor::kWeight, ax.dim, kind);
      ax.output_relevant = is_relevant(Tensor::kOutput, ax.dim, kind);
      ax.reduction = !ax.output_relevant && is_reduction(ax.dim, kind);
      pes *= static_cast<double>(ax.size);
      array_depth += static_cast<double>(ax.size);
      // parallel_dims are distinct for a valid arch, so each dimension's
      // extent is a single axis size (never a product that could overflow).
      par_extent[ax.dim_index] = ax.size;
    }
    // A PE count beyond int range would overflow arch.num_pes() and poison
    // pe_utilization; reject the config instead of computing with garbage.
    if (!(pes >= 1.0 &&
          pes <= static_cast<double>(std::numeric_limits<int>::max()))) {
      degenerate = true;
      degenerate_reason =
          "degenerate accelerator configuration (PE count overflows)";
    }
  }

  l1_bytes = arch.l1_bytes;
  l2_bytes = arch.l2_bytes;
  noc_bw = static_cast<double>(arch.noc_bandwidth);
  dram_bw = static_cast<double>(arch.dram_bandwidth);
  // valid() already requires positive bandwidths; this guard keeps the
  // no-NaN invariant local so a future valid() change cannot silently
  // reintroduce division by zero in noc_cycles/dram_cycles.
  if (arch_valid && !degenerate && (noc_bw <= 0.0 || dram_bw <= 0.0)) {
    degenerate = true;
    degenerate_reason =
        "degenerate accelerator configuration (non-positive bandwidth)";
  }

  mac_energy_pj = macs * energy.mac_pj;
  l1_access_pj = energy.l1_access_pj(arch.l1_bytes);
  l2_access_pj = energy.l2_access_pj(arch.l2_bytes);
  noc_hop_pj = energy.noc_hop_pj;
  dram_pj_per_byte = energy.dram_pj_per_byte;
}

}  // namespace naas::cost
