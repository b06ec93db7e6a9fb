// Plain-text grid description format (reader/writer).
//
// A minimal CAD exchange format for grounding designs:
//
//   # comment
//   soil uniform <conductivity>
//   soil layer <conductivity> <thickness>       (repeatable; last = infinite)
//   conductor <ax> <ay> <az> <bx> <by> <bz> <radius>
//   rod <x> <y> <depth> <length> <radius>
//
// Used by the examples so designs can be edited without recompiling.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "src/geom/conductor.hpp"
#include "src/soil/soil_model.hpp"

namespace ebem::io {

struct GridDescription {
  std::vector<geom::Conductor> conductors;
  std::vector<soil::Layer> soil_layers;

  [[nodiscard]] soil::LayeredSoil soil() const { return soil::LayeredSoil(soil_layers); }
};

/// Parse a grid description; throws ebem::InvalidArgument with a line number
/// on malformed input.
[[nodiscard]] GridDescription read_grid(std::istream& is);
[[nodiscard]] GridDescription read_grid_file(const std::string& path);

void write_grid(std::ostream& os, const GridDescription& description);

}  // namespace ebem::io
