#include "src/bem/pair_signature.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "src/common/error.hpp"
#include "src/common/hash.hpp"

namespace ebem::bem {

namespace {

struct Vec2 {
  double x = 0.0;
  double y = 0.0;
};

/// Degeneracy threshold [m] for choosing the canonical frame: vectors
/// shorter than this cannot define the rotation, components smaller than
/// this cannot pin the reflection. Far below any physical element length
/// or spacing, far above quantization noise — and a borderline choice is
/// only ever a missed hit, never a wrong one, because any frame built from
/// the actual geometry yields a faithful key.
constexpr double kFrameTol = 1e-9;

[[nodiscard]] std::int64_t quantize(double value, double quantum) {
  const double scaled = value / quantum;
  EBEM_EXPECT(std::abs(scaled) < 9.0e18, "coordinate overflows the congruence lattice; "
                                         "increase the congruence quantum");
  // std::llround, inline: truncate, then round the exact remainder half
  // away from zero. x - trunc(x) is exact in binary floating point, so the
  // result equals llround bitwise, without the library call.
  const auto truncated = static_cast<std::int64_t>(scaled);
  const double remainder = scaled - static_cast<double>(truncated);
  return truncated + (remainder >= 0.5 ? 1 : 0) - (remainder <= -0.5 ? 1 : 0);
}

[[nodiscard]] Vec2 rotate(double c, double s, Vec2 vec) {
  return {c * vec.x + s * vec.y, -s * vec.x + c * vec.y};
}

using Lattice = std::array<std::int64_t, 13>;

/// The 13 lattice words of the ordered pair (field, source), unhashed: the
/// pair canonicalization with every per-element part read from a frame.
/// Each double is the same expression as rotating the raw pair vectors
/// u = F.b - F.a, v = S.b - S.a and w = S.a - F.a, so the words are those
/// of canonicalizing the pair in hand.
[[nodiscard]] Lattice pair_lattice(const ElementFrame& field, const ElementFrame& source) {
  // The pair's horizontal geometry is fully described by three 2D vectors:
  // field direction u, source direction v, field-start-to-source-start
  // offset w. (With the z coordinates kept verbatim this reconstructs all
  // four endpoints up to a horizontal rigid motion.)
  Vec2 u{field.dx, field.dy};
  Vec2 v{source.dx, source.dy};
  Vec2 w{source.x - field.x, source.y - field.y};

  // Rotation: align the first non-degenerate of u, v, w with +x. A field or
  // source direction that is the reference comes rotated in its own frame.
  if (!field.degenerate) {
    u = {field.ux, field.uy};
    v = rotate(field.c, field.s, v);
    w = rotate(field.c, field.s, w);
  } else if (!source.degenerate) {
    u = rotate(source.c, source.s, u);
    v = {source.ux, source.uy};
    w = rotate(source.c, source.s, w);
  } else if (const double length = std::hypot(w.x, w.y); length > kFrameTol) {
    const double c = w.x / length;
    const double s = w.y / length;
    u = rotate(c, s, u);
    v = rotate(c, s, v);
    w = rotate(c, s, w);
  }

  // Reflection: flip y so the first off-axis vector points to y > 0.
  bool flip = false;
  for (const Vec2* reference : {&u, &v, &w}) {
    if (std::abs(reference->y) <= kFrameTol) continue;
    flip = reference->y < 0.0;
    break;
  }

  const double quantum = field.quantum;
  const auto lattice_x = [&](const Vec2& vec) { return quantize(vec.x, quantum); };
  const auto lattice_y = [&](const Vec2& vec) { return quantize(flip ? -vec.y : vec.y, quantum); };
  Lattice q{
      0, 0, 0, 0, lattice_x(w), lattice_y(w),
      field.qaz, field.qbz, source.qaz, source.qbz,
      field.qradius, source.qradius, field.layer << 32 | source.layer,
  };
  // The reference direction's words are the frame's (quantize(-y) ==
  // -quantize(y) exactly); the other direction is quantized here.
  if (!field.degenerate) {
    q[0] = field.qux;
    q[1] = flip ? -field.quy : field.quy;
  } else {
    q[0] = lattice_x(u);
    q[1] = lattice_y(u);
  }
  if (field.degenerate && !source.degenerate) {
    q[2] = source.qux;
    q[3] = flip ? -source.quy : source.quy;
  } else {
    q[2] = lattice_x(v);
    q[3] = lattice_y(v);
  }
  return q;
}

/// Hash of a key's lattice words. Two independent multiply lanes (even and
/// odd words) halve the serial dependency chain of a word-at-a-time hash,
/// and one splitmix64 finalizer spreads the result over all 64 bits — the
/// top 6 pick the cache shard, the low bits the bucket.
[[nodiscard]] std::uint64_t hash_lattice(const Lattice& q) {
  constexpr std::uint64_t kEven = 0x9e3779b97f4a7c15ULL;
  constexpr std::uint64_t kOdd = 0xc2b2ae3d27d4eb4fULL;
  std::uint64_t even = 0x243f6a8885a308d3ULL;
  std::uint64_t odd = 0x13198a2e03707344ULL;
  std::size_t i = 0;
  for (; i + 1 < q.size(); i += 2) {
    even = std::rotl((even ^ static_cast<std::uint64_t>(q[i])) * kEven, 29);
    odd = std::rotl((odd ^ static_cast<std::uint64_t>(q[i + 1])) * kOdd, 31);
  }
  even = std::rotl((even ^ static_cast<std::uint64_t>(q[i])) * kEven, 29);
  return splitmix64(even ^ std::rotl(odd, 32));
}

[[nodiscard]] PairSignature hashed(const Lattice& q) {
  PairSignature signature;
  signature.q = q;
  signature.hash = hash_lattice(q);
  return signature;
}

}  // namespace

ElementFrame make_element_frame(const BemElement& element, double quantum) {
  EBEM_EXPECT(quantum > 0.0, "congruence quantum must be positive");
  ElementFrame frame;
  frame.quantum = quantum;
  frame.dx = element.b.x - element.a.x;
  frame.dy = element.b.y - element.a.y;
  const double length = std::hypot(frame.dx, frame.dy);
  frame.degenerate = length <= kFrameTol;
  if (!frame.degenerate) {
    frame.c = frame.dx / length;
    frame.s = frame.dy / length;
    const Vec2 own = rotate(frame.c, frame.s, {frame.dx, frame.dy});
    frame.ux = own.x;
    frame.uy = own.y;
    frame.qux = quantize(own.x, quantum);
    frame.quy = quantize(own.y, quantum);
  }
  frame.x = element.a.x;
  frame.y = element.a.y;
  frame.mid = 0.5 * (element.a + element.b);
  frame.length = element.length;
  frame.qaz = quantize(element.a.z, quantum);
  frame.qbz = quantize(element.b.z, quantum);
  frame.qradius = quantize(element.radius, quantum);
  frame.layer = static_cast<std::int64_t>(element.layer);
  return frame;
}

ElementFrame make_point_frame(geom::Vec3 x, std::size_t layer, double quantum) {
  return make_element_frame(BemElement{x, x, 0.0, 0.0, 0, 0, layer}, quantum);
}

std::vector<ElementFrame> make_element_frames(std::span<const BemElement> elements,
                                              double quantum) {
  std::vector<ElementFrame> frames;
  frames.reserve(elements.size());
  for (const BemElement& element : elements) frames.push_back(make_element_frame(element, quantum));
  return frames;
}

PairSignature make_pair_signature(const ElementFrame& field, const ElementFrame& source) {
  return hashed(pair_lattice(field, source));
}

PairSignature make_pair_signature(const BemElement& field, const BemElement& source,
                                  double quantum) {
  return make_pair_signature(make_element_frame(field, quantum),
                             make_element_frame(source, quantum));
}

PairSignature make_point_signature(geom::Vec3 x, std::size_t field_layer,
                                   const BemElement& source, double quantum) {
  return make_pair_signature(make_point_frame(x, field_layer, quantum),
                             make_element_frame(source, quantum));
}

PointSourceGeometry decode_point_signature(const PairSignature& signature, double quantum) {
  // u is zero: v is the source direction and w the point-to-source offset,
  // so the point sits at -w from a source that starts at the origin.
  const auto& q = signature.q;
  const auto at = [&](std::size_t i) { return static_cast<double>(q[i]) * quantum; };
  PointSourceGeometry geometry;
  geometry.point = {-at(4), -at(5), at(6)};
  geometry.field_layer = static_cast<std::size_t>(q[12] >> 32);
  BemElement& source = geometry.source;
  source.a = {0.0, 0.0, at(8)};
  source.b = {at(2), at(3), at(9)};
  source.radius = at(11);
  source.length = geom::norm(source.b - source.a);
  source.layer = static_cast<std::size_t>(q[12] & 0xffffffff);
  return geometry;
}

bool same_point_source(const PairSignature& a, const PairSignature& b) {
  for (const std::size_t i : {2, 3, 8, 9, 11, 12}) {
    if (a.q[i] != b.q[i]) return false;
  }
  return true;
}

CanonicalPairSignature make_canonical_pair_signature(const ElementFrame& field,
                                                     const ElementFrame& source) {
  Lattice q = pair_lattice(field, source);
  bool transposed = false;

  // Separation gate: midpoint distance over the longer element length. Both
  // quantities are invariant under the horizontal isometries and symmetric
  // under the role swap, so every member of a congruence class makes the
  // same choice. A borderline pair that lands on the other side of the gate
  // than a congruent copy merely misses a replay — never replays wrongly.
  const double separation = geom::distance(field.mid, source.mid);
  if (transpose_separated(separation, std::max(field.length, source.length))) {
    // Both orientations are keyed and the smaller lattice wins; only the
    // winner is hashed. The merged classes pay for the second orientation
    // many times over (warm assembly 47x -> 61x when it was introduced),
    // and from frames it is cheap: ~60-95 ns per key for both on the
    // campaign grid, one thread, against ~20 ns for the lookup and ~7 us
    // for the integration a hit saves (see the header's cost model).
    const Lattice swapped = pair_lattice(source, field);
    if (std::lexicographical_compare(swapped.begin(), swapped.end(), q.begin(), q.end())) {
      q = swapped;
      transposed = true;
    }
  }
  return {hashed(q), transposed};
}

CanonicalPairSignature make_canonical_pair_signature(const BemElement& field,
                                                     const BemElement& source, double quantum) {
  return make_canonical_pair_signature(make_element_frame(field, quantum),
                                       make_element_frame(source, quantum));
}

}  // namespace ebem::bem
