// Congruence keys from element frames against a pair-at-a-time reference:
// every lattice word and transposed flag must be the one canonicalizing the
// raw pair gives, on the grids the library keys in practice (uniform,
// damaged, skew, and with vertical rods, whose frames are degenerate).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "src/bem/assembly.hpp"
#include "src/bem/congruence_cache.hpp"
#include "src/bem/pair_signature.hpp"
#include "src/cad/cases.hpp"
#include "src/cad/grounding_system.hpp"
#include "src/campaign/damage_ensemble.hpp"
#include "src/geom/grid_builder.hpp"
#include "src/geom/mesh.hpp"

namespace ebem::bem {
namespace {

using Lattice = std::array<std::int64_t, 13>;

// ---------------------------------------------------------------------------
// Reference: the pair canonicalization applied to the raw pair, one pair at
// a time, with no per-element precomputation.
// ---------------------------------------------------------------------------

struct Vec2 {
  double x = 0.0;
  double y = 0.0;
};

constexpr double kFrameTol = 1e-9;

std::int64_t quantize(double value, double quantum) { return std::llround(value / quantum); }

Lattice reference_lattice(const BemElement& field, const BemElement& source, double quantum) {
  Vec2 u{field.b.x - field.a.x, field.b.y - field.a.y};
  Vec2 v{source.b.x - source.a.x, source.b.y - source.a.y};
  Vec2 w{source.a.x - field.a.x, source.a.y - field.a.y};
  Vec2* const vectors[3] = {&u, &v, &w};

  for (Vec2* reference : vectors) {
    const double length = std::hypot(reference->x, reference->y);
    if (length <= kFrameTol) continue;
    const double c = reference->x / length;
    const double s = reference->y / length;
    for (Vec2* vec : vectors) {
      const double x = c * vec->x + s * vec->y;
      const double y = -s * vec->x + c * vec->y;
      vec->x = x;
      vec->y = y;
    }
    break;
  }
  for (Vec2* reference : vectors) {
    if (std::abs(reference->y) <= kFrameTol) continue;
    if (reference->y < 0.0) {
      for (Vec2* vec : vectors) vec->y = -vec->y;
    }
    break;
  }
  return {
      quantize(u.x, quantum),          quantize(u.y, quantum),
      quantize(v.x, quantum),          quantize(v.y, quantum),
      quantize(w.x, quantum),          quantize(w.y, quantum),
      quantize(field.a.z, quantum),    quantize(field.b.z, quantum),
      quantize(source.a.z, quantum),   quantize(source.b.z, quantum),
      quantize(field.radius, quantum), quantize(source.radius, quantum),
      static_cast<std::int64_t>(field.layer) << 32 | static_cast<std::int64_t>(source.layer),
  };
}

struct ReferenceKey {
  Lattice q{};
  bool transposed = false;
};

ReferenceKey reference_canonical(const BemElement& field, const BemElement& source,
                                 double quantum) {
  ReferenceKey key{reference_lattice(field, source, quantum), false};
  const geom::Vec3 field_mid = 0.5 * (field.a + field.b);
  const geom::Vec3 source_mid = 0.5 * (source.a + source.b);
  const double separation = geom::distance(field_mid, source_mid);
  if (!transpose_separated(separation, std::max(field.length, source.length))) return key;
  const Lattice swapped = reference_lattice(source, field, quantum);
  if (std::lexicographical_compare(swapped.begin(), swapped.end(), key.q.begin(), key.q.end())) {
    key = {swapped, true};
  }
  return key;
}

// ---------------------------------------------------------------------------
// Grids and points
// ---------------------------------------------------------------------------

soil::LayeredSoil campaign_soil() { return soil::LayeredSoil::two_layer(0.005, 0.016, 1.0); }

std::vector<geom::Conductor> campaign_conductors() {
  geom::RectGridSpec spec;
  spec.length_x = 50.0;
  spec.length_y = 50.0;
  spec.cells_x = 10;
  spec.cells_y = 10;
  return geom::make_rect_grid(spec);
}

struct KeyedGrid {
  std::string name;
  BemModel model;
};

std::vector<KeyedGrid> keyed_grids() {
  std::vector<KeyedGrid> grids;
  grids.push_back({"campaign", BemModel(geom::Mesh::build(campaign_conductors()), campaign_soil())});
  const campaign::DamageEnsemble damage(campaign_conductors(), campaign_soil(),
                                        campaign::DamageOptions{}, 4, 42);
  grids.push_back({"damage scenario", damage.scenario_model(1)});
  const cad::BarberaCase barbera = cad::barbera_case();
  grids.push_back(
      {"barbera", cad::GroundingSystem(barbera.conductors, barbera.two_layer_soil).model()});
  // GroundingSystem splits the rods at the soil C interface.
  const cad::BalaidosCase balaidos = cad::balaidos_case();
  grids.push_back(
      {"balaidos C", cad::GroundingSystem(balaidos.conductors, balaidos.soil_c).model()});
  geom::TriangularGridSpec triangle;
  triangle.leg_x = 60.0;
  triangle.leg_y = 40.0;
  triangle.cells_x = 6;
  triangle.cells_y = 5;
  grids.push_back({"triangular", BemModel(geom::Mesh::build(geom::make_triangular_grid(triangle)),
                                          campaign_soil())});
  return grids;
}

/// A 6 x 6 surface patch over the grid's footprint with +1 m step probes in
/// x and y (the safety patch layout), plus a point above every rod top.
std::vector<geom::Vec3> keyed_points(const BemModel& model) {
  double x0 = 1e300, x1 = -1e300, y0 = 1e300, y1 = -1e300;
  std::vector<geom::Vec3> points;
  for (const BemElement& element : model.elements()) {
    for (const geom::Vec3& end : {element.a, element.b}) {
      x0 = std::min(x0, end.x);
      x1 = std::max(x1, end.x);
      y0 = std::min(y0, end.y);
      y1 = std::max(y1, end.y);
    }
    if (element.a.x == element.b.x && element.a.y == element.b.y) {
      points.push_back({element.a.x, element.a.y, 0.0});
    }
  }
  for (std::size_t j = 0; j < 6; ++j) {
    for (std::size_t i = 0; i < 6; ++i) {
      const double x = x0 + (x1 - x0) * static_cast<double>(i) / 5.0;
      const double y = y0 + (y1 - y0) * static_cast<double>(j) / 5.0;
      points.push_back({x, y, 0.0});
      points.push_back({x + 1.0, y, 0.0});
      points.push_back({x, y + 1.0, 0.0});
    }
  }
  return points;
}

TEST(PairSignature, FrameKeysMatchReference) {
  for (const KeyedGrid& grid : keyed_grids()) {
    const auto& elements = grid.model.elements();
    const std::vector<ElementFrame> frames =
        make_element_frames(elements, kDefaultCongruenceQuantum);
    std::size_t mismatches = 0;
    std::size_t degenerate = 0;
    for (std::size_t beta = 0; beta < elements.size(); ++beta) {
      degenerate += frames[beta].degenerate ? 1 : 0;
      for (std::size_t alpha = beta; alpha < elements.size(); ++alpha) {
        const ReferenceKey reference =
            reference_canonical(elements[beta], elements[alpha], kDefaultCongruenceQuantum);
        const CanonicalPairSignature key =
            make_canonical_pair_signature(frames[beta], frames[alpha]);
        const PairSignature ordered = make_pair_signature(frames[beta], frames[alpha]);
        const bool match =
            key.signature.q == reference.q && key.transposed == reference.transposed &&
            ordered.q ==
                reference_lattice(elements[beta], elements[alpha], kDefaultCongruenceQuantum);
        if (!match && mismatches++ < 5) {
          ADD_FAILURE() << grid.name << ": pair (" << beta << ", " << alpha << ")";
        }
      }
    }
    EXPECT_EQ(mismatches, 0u) << grid.name;
    if (grid.name == "balaidos C") EXPECT_GT(degenerate, 0u);  // the rods

    std::size_t point_mismatches = 0;
    for (const geom::Vec3& point : keyed_points(grid.model)) {
      const std::size_t layer = grid.model.soil().layer_of(point.z);
      const ElementFrame point_frame = make_point_frame(point, layer, kDefaultCongruenceQuantum);
      const BemElement as_element{point, point, 0.0, 0.0, 0, 0, layer};
      for (std::size_t e = 0; e < elements.size(); ++e) {
        if (make_pair_signature(point_frame, frames[e]).q !=
                reference_lattice(as_element, elements[e], kDefaultCongruenceQuantum) &&
            point_mismatches++ < 5) {
          ADD_FAILURE() << grid.name << ": point (" << point.x << ", " << point.y
                        << ") element " << e;
        }
      }
    }
    EXPECT_EQ(point_mismatches, 0u) << grid.name;
  }
}

TEST(PairSignature, KeyHashSpreadsOverShards) {
  // CongruenceCache::shard_of picks one of its 64 shards by hash >> 58, so a
  // hash whose top bits clump would serialize the workers on a few shard
  // mutexes. Over Barbera's canonical classes the fullest shard must stay
  // within 1.3x the mean.
  const cad::BarberaCase barbera = cad::barbera_case();
  const BemModel model = cad::GroundingSystem(barbera.conductors, barbera.two_layer_soil).model();
  const std::vector<ElementFrame> frames =
      make_element_frames(model.elements(), kDefaultCongruenceQuantum);
  std::set<Lattice> classes;
  std::set<std::uint64_t> hashes;
  std::array<std::size_t, 64> shards{};
  for (std::size_t beta = 0; beta < frames.size(); ++beta) {
    for (std::size_t alpha = beta; alpha < frames.size(); ++alpha) {
      const PairSignature key = make_canonical_pair_signature(frames[beta], frames[alpha]).signature;
      if (!classes.insert(key.q).second) continue;
      hashes.insert(key.hash);
      ++shards[key.hash >> 58];
    }
  }
  EXPECT_EQ(classes.size(), 13954u);
  EXPECT_EQ(hashes.size(), classes.size());  // no 64-bit collision either
  const double mean = static_cast<double>(classes.size()) / 64.0;
  const std::size_t fullest = *std::max_element(shards.begin(), shards.end());
  EXPECT_LE(static_cast<double>(fullest), 1.3 * mean);
}

TEST(CongruenceCache, CampaignGridHitsAndMissesArePinned) {
  // A one-thread cache-on assembly of the campaign grid: 24,310 pairs in
  // 338 role-canonical classes. The count pins the keys, not just their
  // parity: any change to a lattice word would move it.
  const BemModel model(geom::Mesh::build(campaign_conductors()), campaign_soil());
  CongruenceCache cache(model.soil());
  const AssemblyResult result = assemble(model, {}, {.cache = &cache});
  EXPECT_EQ(result.cache_stats.hits, 23972u);
  EXPECT_EQ(result.cache_stats.misses, 338u);
}

}  // namespace
}  // namespace ebem::bem
