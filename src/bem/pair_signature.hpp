// Canonical geometric signature of an element pair, the key of the
// congruence cache (ROADMAP: "geometric congruence caching").
//
// Every soil kernel in the library is a layered-medium Green's function and
// therefore invariant under horizontal rigid motions: translating, rotating
// (about the vertical axis) or reflecting (through a vertical plane) *both*
// elements of a pair leaves the Galerkin block R^{beta alpha} unchanged —
// the images move with the sources and every source/image-to-field distance
// is preserved. z is special (the surface and layer interfaces are physical
// planes), so vertical coordinates enter the signature verbatim.
//
// The signature is the pair's geometry expressed in a canonical horizontal
// frame — translate the field start point to the origin, rotate the first
// non-degenerate direction onto +x, reflect the first off-axis direction to
// y > 0 — and quantized to an integer lattice. Two pairs congruent up to
// the quantum map to the same key; on a uniform rectangular grid the
// M(M+1)/2 pairs collapse into O(M) classes, which is what lets assembly
// skip almost every integration.
//
// Element frames. Every key is formed from two precomputed ElementFrames,
// one per element (or point), built once per assembly or evaluation — O(M)
// work. A frame holds everything about its element that a key needs and
// that does not depend on the partner: the horizontal direction and its
// unit vector (the canonical rotation whenever this element's direction is
// the reference), that direction already rotated and quantized, the start
// point, the midpoint (the transpose gate) and the quantized z, radius and
// layer words. A pair key then costs two rotated difference vectors, the
// reflection test and four quantizations; the six per-element lattice words
// are copied. The frame arithmetic is the same expression for expression as
// rotating the raw pair, so every lattice word is the one a pair-at-a-time
// canonicalization produces. The degenerate cases (a vertical rod or a
// point as field) fall back to the source direction, then to the offset,
// inside the same function.
//
// Cost model, measured on the campaign grid (220 elements, 24,310 pairs,
// one thread): building the frames and keying every pair takes 1.4-2.3 ms
// (bench_cache's seconds_keys), ~60-95 ns per role-canonical key, where
// canonicalizing both raw orientations and hashing each took ~200-300 ns.
// The cache lookup that follows costs ~20 ns and the integration a hit
// saves ~7 us. A well-separated pair computes both orientations' lattice
// words but hashes only the winner, once.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "src/bem/element.hpp"

namespace ebem::bem {

/// Default signature quantization step [m]. Chosen so that two pairs mapped
/// to the same key have geometries equal to well below the 1e-12 relative
/// parity tolerance expected between cache-on and cache-off assembly, while
/// still absorbing the ~1e-14 float noise of the canonicalization itself.
inline constexpr double kDefaultCongruenceQuantum = 1e-12;

/// Quantized canonical pair geometry plus its precomputed hash.
struct PairSignature {
  /// Canonical-frame coordinates on the quantum lattice:
  /// [0..5]  horizontal field direction u, source direction v and relative
  ///         offset w (two lattice coordinates each),
  /// [6..9]  vertical endpoint coordinates z_Fa, z_Fb, z_Sa, z_Sb,
  /// [10..11] field and source radii,
  /// [12]    packed (field layer, source layer).
  std::array<std::int64_t, 13> q{};
  std::uint64_t hash = 0;

  friend bool operator==(const PairSignature&, const PairSignature&) = default;
};

struct PairSignatureHash {
  [[nodiscard]] std::size_t operator()(const PairSignature& s) const noexcept {
    return static_cast<std::size_t>(s.hash);
  }
};

/// One element's (or point's) share of every congruence key it enters —
/// see "Element frames" above. Built for one quantum; the two frames of a
/// key must share it.
struct ElementFrame {
  double quantum = kDefaultCongruenceQuantum;
  double dx = 0.0;  ///< horizontal direction b - a
  double dy = 0.0;
  /// Direction too short to define a rotation: a vertical rod or a point.
  bool degenerate = true;
  double c = 1.0;  ///< unit horizontal direction (unused when degenerate)
  double s = 0.0;
  double ux = 0.0;  ///< (dx, dy) rotated into its own frame
  double uy = 0.0;
  std::int64_t qux = 0;  ///< ... and quantized
  std::int64_t quy = 0;
  double x = 0.0;  ///< start point a
  double y = 0.0;
  geom::Vec3 mid;  ///< midpoint, for the transpose separation gate
  double length = 0.0;
  std::int64_t qaz = 0;  ///< quantized a.z, b.z and radius
  std::int64_t qbz = 0;
  std::int64_t qradius = 0;
  std::int64_t layer = 0;
};

[[nodiscard]] ElementFrame make_element_frame(const BemElement& element,
                                              double quantum = kDefaultCongruenceQuantum);

/// The frame of point `x` of soil layer `layer`: a zero-length, zero-radius
/// element, so its keys never equal an element pair's.
[[nodiscard]] ElementFrame make_point_frame(geom::Vec3 x, std::size_t layer,
                                            double quantum = kDefaultCongruenceQuantum);

/// Frames of every element, in order — the O(M) set-up of an assembly or
/// an evaluation.
[[nodiscard]] std::vector<ElementFrame> make_element_frames(std::span<const BemElement> elements,
                                                            double quantum);

/// Signature of the ordered pair (field, source). The ordering matters: the
/// cached block is reused verbatim, and endpoint/DoF labels follow the
/// canonical isometry, so only pairs with matching role and endpoint order
/// may share a key. Swapped roles are related by a transpose — exploited
/// separately by make_canonical_pair_signature below.
[[nodiscard]] PairSignature make_pair_signature(const ElementFrame& field,
                                                const ElementFrame& source);

/// Element form: builds both frames and forwards (tests, one-off keys).
[[nodiscard]] PairSignature make_pair_signature(const BemElement& field,
                                                const BemElement& source,
                                                double quantum = kDefaultCongruenceQuantum);

/// Signature of the influence of `source` at point `x` of soil layer
/// `field_layer`: the pair signature of the point's frame and the source's.
[[nodiscard]] PairSignature make_point_signature(geom::Vec3 x, std::size_t field_layer,
                                                 const BemElement& source,
                                                 double quantum = kDefaultCongruenceQuantum);

/// The canonical geometry a point signature encodes, rebuilt from its
/// lattice coordinates: the source starts at the origin (along +x whenever
/// it has a horizontal extent) and the point sits at the rotated, reflected
/// negative offset -w. The source depends on the source's words only, so
/// every point key of one element decodes to the same source, and the
/// misses of one element share one image sweep.
struct PointSourceGeometry {
  geom::Vec3 point;
  std::size_t field_layer = 0;
  BemElement source;
};

[[nodiscard]] PointSourceGeometry decode_point_signature(const PairSignature& signature,
                                                         double quantum);

/// Whether two point signatures decode to the same source and field layer
/// (their source lattice words agree).
[[nodiscard]] bool same_point_source(const PairSignature& a, const PairSignature& b);

/// Galerkin reciprocity: with identical test and trial families the block of
/// the swapped ordered pair is the transpose, R^{alpha beta} = (R^{beta
/// alpha})^T. That is exact in exact arithmetic; numerically the outer-Gauss
/// / inner-analytic split breaks it by the outer quadrature error, which on
/// the bench grids measures ~1e-4 relative for pairs closer than two element
/// lengths, ~4e-13 at two-to-three lengths, and <= 6e-14 beyond three. Only
/// past this ratio may a cached block be replayed transposed without
/// violating the 1e-12 cache-on/cache-off parity contract.
inline constexpr double kTransposeSeparationRatio = 3.0;

/// The measured-decay separation predicate behind that ratio: true when a
/// separation distance is at least kTransposeSeparationRatio times the
/// longest element length involved. Shared by the congruence cache's
/// role-canonical gate (midpoint separation of one pair) and the far-field
/// admissibility partition (bounding-box separation of two element
/// clusters, which lower-bounds every crossing pair's midpoint separation),
/// so the two gates cannot drift apart.
[[nodiscard]] inline bool transpose_separated(double separation, double longest_element_length) {
  return separation >= kTransposeSeparationRatio * longest_element_length;
}

/// Role-canonical signature: the lexicographically smaller of the (field,
/// source) and (source, field) ordered signatures, so both orientations of a
/// congruence class share one cache entry. `transposed` records whether the
/// swapped order won — the stored block is then kept in canonical
/// orientation and transposed back on replay. Pairs closer than
/// kTransposeSeparationRatio element lengths keep the ordered signature
/// (transposed == false): for them the transpose identity only holds to
/// quadrature accuracy, far above the cache parity tolerance.
struct CanonicalPairSignature {
  PairSignature signature;
  bool transposed = false;
};

[[nodiscard]] CanonicalPairSignature make_canonical_pair_signature(const ElementFrame& field,
                                                                   const ElementFrame& source);

/// Element form: builds both frames and forwards (tests, one-off keys).
[[nodiscard]] CanonicalPairSignature make_canonical_pair_signature(
    const BemElement& field, const BemElement& source,
    double quantum = kDefaultCongruenceQuantum);

}  // namespace ebem::bem
