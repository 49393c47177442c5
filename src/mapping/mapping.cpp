#include "mapping/mapping.hpp"

#include <sstream>

namespace naas::mapping {

std::string order_to_string(const LoopOrder& order) {
  std::ostringstream os;
  for (std::size_t i = 0; i < order.size(); ++i) {
    if (i) os << '>';
    os << nn::dim_name(order[i]);
  }
  return os.str();
}

std::string Mapping::to_string() const {
  std::ostringstream os;
  auto tiles = [](const TileSizes& t) {
    std::ostringstream ts;
    for (nn::Dim d : nn::all_dims())
      ts << nn::dim_name(d) << ':' << tile_of(t, d) << ' ';
    return ts.str();
  };
  os << "dram order " << order_to_string(dram.order) << " tiles "
     << tiles(dram.tile) << '\n';
  os << "pe   order " << order_to_string(pe.order) << " tiles "
     << tiles(pe.tile) << '\n';
  os << "reg  order " << order_to_string(pe_order);
  return os.str();
}

}  // namespace naas::mapping
