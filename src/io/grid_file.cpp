#include "src/io/grid_file.hpp"

#include <fstream>
#include <sstream>

#include "src/common/error.hpp"

namespace ebem::io {

GridDescription read_grid(std::istream& is) {
  GridDescription description;
  std::string line;
  std::size_t line_number = 0;
  while (std::getline(is, line)) {
    ++line_number;
    const auto fail = [&](const std::string& what) {
      EBEM_EXPECT(false, "grid file line " + std::to_string(line_number) + ": " + what);
    };
    // Strip comments.
    if (const auto hash = line.find('#'); hash != std::string::npos) line.resize(hash);
    std::istringstream ls(line);
    std::string keyword;
    if (!(ls >> keyword)) continue;  // blank line

    if (keyword == "soil") {
      std::string kind;
      if (!(ls >> kind)) fail("expected 'uniform' or 'layer' after 'soil'");
      if (kind == "uniform") {
        double conductivity = 0.0;
        if (!(ls >> conductivity)) fail("expected conductivity");
        description.soil_layers.push_back({conductivity, 0.0});
      } else if (kind == "layer") {
        double conductivity = 0.0;
        double thickness = 0.0;
        if (!(ls >> conductivity >> thickness)) fail("expected conductivity and thickness");
        description.soil_layers.push_back({conductivity, thickness});
      } else {
        fail("unknown soil kind '" + kind + "'");
      }
    } else if (keyword == "conductor") {
      geom::Conductor c;
      if (!(ls >> c.a.x >> c.a.y >> c.a.z >> c.b.x >> c.b.y >> c.b.z >> c.radius)) {
        fail("expected 7 numbers after 'conductor'");
      }
      description.conductors.push_back(c);
    } else if (keyword == "rod") {
      double x = 0.0, y = 0.0, depth = 0.0, length = 0.0, radius = 0.0;
      if (!(ls >> x >> y >> depth >> length >> radius)) {
        fail("expected 5 numbers after 'rod'");
      }
      description.conductors.push_back(
          {{x, y, -depth}, {x, y, -(depth + length)}, radius});
    } else {
      fail("unknown keyword '" + keyword + "'");
    }
  }
  EBEM_EXPECT(!description.soil_layers.empty(), "grid file declares no soil model");
  EBEM_EXPECT(!description.conductors.empty(), "grid file declares no conductors");
  return description;
}

GridDescription read_grid_file(const std::string& path) {
  std::ifstream is(path);
  EBEM_EXPECT(is.good(), "cannot open grid file '" + path + "'");
  return read_grid(is);
}

void write_grid(std::ostream& os, const GridDescription& description) {
  os << "# EarthBEM grid description\n";
  for (std::size_t i = 0; i < description.soil_layers.size(); ++i) {
    const soil::Layer& layer = description.soil_layers[i];
    if (description.soil_layers.size() == 1) {
      os << "soil uniform " << layer.conductivity << '\n';
    } else {
      os << "soil layer " << layer.conductivity << ' ' << layer.thickness << '\n';
    }
  }
  for (const geom::Conductor& c : description.conductors) {
    os << "conductor " << c.a.x << ' ' << c.a.y << ' ' << c.a.z << ' ' << c.b.x << ' ' << c.b.y
       << ' ' << c.b.z << ' ' << c.radius << '\n';
  }
}

}  // namespace ebem::io
