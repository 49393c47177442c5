#pragma once

#include <cstdint>

#include "arch/accelerator.hpp"
#include "cost/energy_model.hpp"
#include "nn/layer.hpp"

namespace naas::cost {

/// Which closed form the input-tensor spatial multiplier takes for one
/// array axis. The switch in input_axis_multiplier depends only on the
/// axis binding and the layer kind — both fixed per (arch, layer) — so the
/// batched evaluator resolves it once per context instead of once per
/// candidate.
enum class AxisInputKind : std::uint8_t {
  kOne,     ///< broadcast (multiplier 1)
  kUsed,    ///< unicast (multiplier = active PEs on the axis)
  kHaloYp,  ///< sliding-window overlap along output rows
  kHaloXp,  ///< sliding-window overlap along output columns
  kHaloR,   ///< kernel rows split across PEs
  kHaloS,   ///< kernel columns split across PEs
};

/// One active array axis with every per-candidate-invariant property the
/// traffic formulas consult pre-resolved.
struct AxisContext {
  nn::Dim dim = nn::Dim::kK;     ///< dimension this axis parallelizes
  std::size_t dim_index = 0;     ///< static_cast index of `dim`
  int size = 1;                  ///< physical PEs along the axis
  AxisInputKind input_kind = AxisInputKind::kUsed;
  bool weight_relevant = false;  ///< unicast axis for the weight tensor
  bool output_relevant = false;  ///< unicast axis for the output tensor
  bool reduction = false;        ///< axis combines psums in-network
};

/// Precomputed per-(accelerator, layer) invariants of the cost model: the
/// shared "row" of a whole CMA generation's evaluations. Everything a
/// candidate mapping does NOT control is resolved here once — clamped
/// dimension bounds, spatial partitioning extents, tensor relevance masks,
/// axis classifications, energy coefficients (the only transcendental
/// math, two sqrt calls, lives here, keeping the per-candidate loops
/// transcendental-free) — so CostModel::evaluate_batch runs pure
/// arithmetic over the candidates.
///
/// Self-contained: the context copies what it needs and holds no pointers
/// into the arch/layer it was built from.
struct LayerContext {
  /// Binds (arch, layer) under `energy`'s coefficients. Prefer
  /// CostModel::make_context, which passes the model's energy parameters.
  LayerContext(const arch::ArchConfig& arch, const nn::Workload& layer,
               const EnergyModel& energy);

  // ---- Validity gates (checked before any per-candidate work) ----------
  /// arch.valid() — false short-circuits every candidate to the legacy
  /// "invalid accelerator configuration" report.
  bool arch_valid = false;
  /// Structurally valid but numerically unusable: overflowing PE count or
  /// non-positive bandwidth would turn pe_utilization / noc_cycles /
  /// dram_cycles into NaN/inf garbage. Such configs now yield an illegal
  /// report (`degenerate_reason`) instead of leaking NaNs.
  bool degenerate = false;
  const char* degenerate_reason = "";

  // ---- Layer shape ------------------------------------------------------
  nn::LayerKind kind = nn::LayerKind::kConv;
  bool depthwise = false;
  /// Weight operand indexed by N (attention): the weight tile footprint
  /// scales by the batch tile and gets no cross-batch reuse.
  bool batched_weight = false;
  int stride = 1;
  int dim_size[nn::kNumDims] = {1, 1, 1, 1, 1, 1, 1};
  double macs = 0;  ///< layer MACs as double (the model's working type)

  // ---- Spatial partitioning --------------------------------------------
  /// parallel_extent(d) per dimension, widened so a hostile config cannot
  /// overflow int before the degenerate gate rejects it.
  long long par_extent[nn::kNumDims] = {1, 1, 1, 1, 1, 1, 1};
  int num_axes = 0;
  AxisContext axes[arch::kMaxArrayDims];
  double pes = 1;          ///< total PEs (== double(arch.num_pes()))
  double array_depth = 0;  ///< sum of axis sizes (pipeline fill term)

  // ---- Buffers and bandwidths ------------------------------------------
  long long l1_bytes = 1;
  long long l2_bytes = 1;
  double noc_bw = 1;   ///< words/cycle, as the division operand
  double dram_bw = 1;

  // ---- Tensor relevance masks (bit d => dim d relevant to the tensor;
  // reduction is pre-resolved per axis in AxisContext) -------------------
  std::uint8_t input_mask = 0;
  std::uint8_t weight_mask = 0;
  std::uint8_t output_mask = 0;

  // ---- Energy coefficients (pJ) ----------------------------------------
  double mac_energy_pj = 0;      ///< macs * mac_pj, fully precomputed
  double l1_access_pj = 0;       ///< per byte, capacity-dependent
  double l2_access_pj = 0;
  double noc_hop_pj = 0;
  double dram_pj_per_byte = 0;
};

}  // namespace naas::cost
