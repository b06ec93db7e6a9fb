#include "src/bem/segment_integrals.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/common/error.hpp"
#include "src/common/math_utils.hpp"
#include "src/common/simd.hpp"

namespace ebem::bem {

namespace {

/// Branch-free lane kernel (header notes derive the formulation). The
/// selects compile to blends under SIMD; on an on-axis lane (perp2 == 0 with
/// t0 inside the segment) the result is inf/nan, which the callers turn
/// into the documented exception via the perp2 minimum they track.
struct Lane {
  double i0, i1;
};

inline Lane lane_kernel(double t0, double perp2, double length) {
  const double u1 = length - t0;
  const double r0 = std::sqrt(t0 * t0 + perp2);
  const double r1 = std::sqrt(u1 * u1 + perp2);
  const double s = r0 + r1;
  // A and C in fraction form (all four parts positive, no cancellation):
  // A = an/ad, C = cn/cd. One reciprocal then serves both integrals —
  // y = L(A+C)/(sA) clears to L(an cd + cn ad)/(cd s an), and
  // 1/s = cd an inv — cutting the per-lane divisions from four to one
  // (division throughput dominates this loop on wide vectors).
  const double an = t0 > 0.0 ? perp2 : r0 - t0;
  const double ad = t0 > 0.0 ? r0 + t0 : 1.0;
  const double cn = u1 < 0.0 ? perp2 : r1 + u1;
  const double cd = u1 < 0.0 ? r1 - u1 : 1.0;
  const double inv = 1.0 / (cd * s * an);
  Lane lane;
  lane.i0 = simd_log1p(length * (an * cd + cn * ad) * inv);
  lane.i1 = length * (length - 2.0 * t0) * (cd * an * inv) + t0 * lane.i0;
  return lane;
}

/// Per-thread SoA workspace of the short-sweep path: the field points'
/// hoisted horizontal products (term-independent across the image loop).
struct SweepScratch {
  std::vector<double> points;  // wx | wy | txy | cz2, `count` each
};

/// Sweeps at least this long vectorize over the *terms* (one register
/// reduction per field point) instead of over the points: the integrator's
/// batches are one Gauss row (~8 points), which is too short to reach the
/// autovectorizer's unrolled main loop, while a layered-soil image series
/// runs to O(100) terms and amortizes the vector setup perfectly.
constexpr std::size_t kTermVectorThreshold = 16;

constexpr const char* kOnAxisMessage = "field point lies on the (unregularized) source axis";

// The multiversioned cores below never throw: GCC's target_clones dispatch
// cannot unwind an exception (the process terminates instead of reaching the
// caller's handler), so each core returns the minimum perp2 it saw and the
// thin un-cloned wrappers turn a non-positive minimum into the documented
// InvalidArgument.

EBEM_SIMD_MULTIVERSION
double segment_potentials_batch_core(const SegmentFrame& frame, const double* EBEM_RESTRICT xs,
                                     const double* EBEM_RESTRICT ys,
                                     const double* EBEM_RESTRICT zs, std::size_t count,
                                     double* EBEM_RESTRICT out_i0,
                                     double* EBEM_RESTRICT out_i1) {
  const double ax = frame.a.x, ay = frame.a.y, az = frame.a.z;
  const double ux = frame.u.x, uy = frame.u.y, uz = frame.u.z;
  const double length = frame.length;
  const double radius2 = frame.radius2;
  double pmin = std::numeric_limits<double>::infinity();
  EBEM_SIMD_LOOP_REDUCE(min : pmin)
  for (std::size_t q = 0; q < count; ++q) {
    const double wx = xs[q] - ax;
    const double wy = ys[q] - ay;
    const double wz = zs[q] - az;
    const double t0 = wx * ux + wy * uy + wz * uz;
    // Squared axis distance as |w x u|^2: exact zero on the axis, no
    // cancellation of large |w|^2 against t0^2 off it.
    const double cx = wy * uz - wz * uy;
    const double cy = wz * ux - wx * uz;
    const double cz = wx * uy - wy * ux;
    const double perp2 = cx * cx + cy * cy + cz * cz + radius2;
    pmin = std::min(pmin, perp2);
    const Lane lane = lane_kernel(t0, perp2, length);
    out_i0[q] = lane.i0;
    out_i1[q] = lane.i1;
  }
  return pmin;
}

}  // namespace

SegmentFrame make_segment_frame(geom::Vec3 a, geom::Vec3 b, double radius) {
  const geom::Vec3 axis = b - a;
  const double length = geom::norm(axis);
  EBEM_EXPECT(length > 0.0, "source segment must have positive length");
  return {a, axis / length, length, square(radius)};
}

void segment_potentials_batch(const SegmentFrame& frame, const double* xs, const double* ys,
                              const double* zs, std::size_t count, double* out_i0,
                              double* out_i1) {
  const double pmin = segment_potentials_batch_core(frame, xs, ys, zs, count, out_i0, out_i1);
  EBEM_EXPECT(pmin > 0.0, kOnAxisMessage);
}

SegmentPotentials segment_potentials(const SegmentFrame& frame, geom::Vec3 p) {
  SegmentPotentials result;
  segment_potentials_batch(frame, &p.x, &p.y, &p.z, 1, &result.i0, &result.i1);
  return result;
}

SegmentPotentials segment_potentials(geom::Vec3 p, geom::Vec3 a, geom::Vec3 b, double radius) {
  return segment_potentials(make_segment_frame(a, b, radius), p);
}

SegmentPotentials segment_potentials_reference(const SegmentFrame& frame, geom::Vec3 p) {
  const geom::Vec3 w = p - frame.a;
  const double t0 = geom::dot(w, frame.u);  // foot of the perpendicular
  // Squared distance from p to the segment axis, plus the wire radius.
  const double perp2 = std::max(geom::dot(w, w) - t0 * t0, 0.0) + frame.radius2;
  EBEM_EXPECT(perp2 > 0.0, kOnAxisMessage);
  const double h = std::sqrt(perp2);

  // I0 = asinh((L - t0)/h) - asinh(-t0/h).
  const double s1 = (frame.length - t0) / h;
  const double s0 = -t0 / h;
  SegmentPotentials result;
  result.i0 = std::asinh(s1) - std::asinh(s0);
  // I1 = sqrt((L-t0)^2 + h^2) - sqrt(t0^2 + h^2) + t0 * I0.
  result.i1 = std::sqrt(square(frame.length - t0) + perp2) -
              std::sqrt(square(t0) + perp2) + t0 * result.i0;
  return result;
}

namespace {

EBEM_SIMD_MULTIVERSION
double accumulate_image_sweep_core(const ImageSegmentSweep& sweep,
                                   const double* EBEM_RESTRICT xs,
                                   const double* EBEM_RESTRICT ys,
                                   const double* EBEM_RESTRICT zs, std::size_t count,
                                   bool linear_basis, double* EBEM_RESTRICT acc0,
                                   double* EBEM_RESTRICT acc1) {
  double pmin = std::numeric_limits<double>::infinity();
  const std::size_t terms = sweep.size();
  if (count == 0 || terms == 0) return pmin;

  const double ax = sweep.ax, ay = sweep.ay;
  const double ux = sweep.ux, uy = sweep.uy;
  const double length = sweep.length;
  const double radius2 = sweep.radius2;
  const double inv_length = 1.0 / length;
  const double* EBEM_RESTRICT az = sweep.az.data();
  const double* EBEM_RESTRICT muz = sweep.muz.data();
  const double* EBEM_RESTRICT weight = sweep.weight.data();

  if (terms >= kTermVectorThreshold) {
    // Long sweep: vectorize over the image terms. Each field point hoists
    // its term-independent products into registers and reduces its whole
    // series with register accumulators — no per-term loads or stores of
    // the accumulator arrays, and a trip count long enough that the
    // vectorized main loop actually runs.
    for (std::size_t q = 0; q < count; ++q) {
      const double wxq = xs[q] - ax;
      const double wyq = ys[q] - ay;
      const double zq = zs[q];
      const double txyq = wxq * ux + wyq * uy;
      const double czq = wxq * uy - wyq * ux;
      const double cz2q = czq * czq + radius2;
      double a0 = 0.0, a1 = 0.0;
      if (linear_basis) {
        EBEM_SIMD_LOOP_CLAUSES(reduction(min : pmin) reduction(+ : a0, a1))
        for (std::size_t t = 0; t < terms; ++t) {
          const double wz = zq - az[t];
          const double t0 = txyq + wz * muz[t];
          const double cx = wyq * muz[t] - wz * uy;
          const double cy = wz * ux - wxq * muz[t];
          const double perp2 = cx * cx + cy * cy + cz2q;
          pmin = std::min(pmin, perp2);
          const Lane lane = lane_kernel(t0, perp2, length);
          const double end = lane.i1 * inv_length;
          a0 += weight[t] * (lane.i0 - end);
          a1 += weight[t] * end;
        }
      } else {
        EBEM_SIMD_LOOP_CLAUSES(reduction(min : pmin) reduction(+ : a0))
        for (std::size_t t = 0; t < terms; ++t) {
          const double wz = zq - az[t];
          const double t0 = txyq + wz * muz[t];
          const double cx = wyq * muz[t] - wz * uy;
          const double cy = wz * ux - wxq * muz[t];
          const double perp2 = cx * cx + cy * cy + cz2q;
          pmin = std::min(pmin, perp2);
          a0 += weight[t] * lane_kernel(t0, perp2, length).i0;
        }
      }
      acc0[q] += a0;
      if (linear_basis) acc1[q] += a1;
    }
  } else {
    // Short sweep (uniform soil runs just the source and its mirror):
    // vectorize over the field points, hoisting what the images share —
    // the horizontal offset, its axis projection and the vertical cross
    // component (the image maps only z, so these never change per term).
    thread_local SweepScratch scratch;
    scratch.points.resize(4 * count);
    double* EBEM_RESTRICT wx = scratch.points.data();
    double* EBEM_RESTRICT wy = wx + count;
    double* EBEM_RESTRICT txy = wy + count;
    double* EBEM_RESTRICT cz2 = txy + count;
    EBEM_SIMD_LOOP
    for (std::size_t q = 0; q < count; ++q) {
      wx[q] = xs[q] - ax;
      wy[q] = ys[q] - ay;
      txy[q] = wx[q] * ux + wy[q] * uy;
      const double cz = wx[q] * uy - wy[q] * ux;
      cz2[q] = cz * cz;
    }
    for (std::size_t t = 0; t < terms; ++t) {
      const double azt = az[t];
      const double muzt = muz[t];
      const double w = weight[t];
      if (linear_basis) {
        EBEM_SIMD_LOOP_REDUCE(min : pmin)
        for (std::size_t q = 0; q < count; ++q) {
          const double wz = zs[q] - azt;
          const double t0 = txy[q] + wz * muzt;
          const double cx = wy[q] * muzt - wz * uy;
          const double cy = wz * ux - wx[q] * muzt;
          const double perp2 = cx * cx + cy * cy + cz2[q] + radius2;
          pmin = std::min(pmin, perp2);
          const Lane lane = lane_kernel(t0, perp2, length);
          const double end = lane.i1 * inv_length;
          acc0[q] += w * (lane.i0 - end);
          acc1[q] += w * end;
        }
      } else {
        EBEM_SIMD_LOOP_REDUCE(min : pmin)
        for (std::size_t q = 0; q < count; ++q) {
          const double wz = zs[q] - azt;
          const double t0 = txy[q] + wz * muzt;
          const double cx = wy[q] * muzt - wz * uy;
          const double cy = wz * ux - wx[q] * muzt;
          const double perp2 = cx * cx + cy * cy + cz2[q] + radius2;
          pmin = std::min(pmin, perp2);
          acc0[q] += w * lane_kernel(t0, perp2, length).i0;
        }
      }
    }
  }

  return pmin;
}

}  // namespace

void accumulate_image_sweep(const ImageSegmentSweep& sweep, const double* xs, const double* ys,
                            const double* zs, std::size_t count, bool linear_basis,
                            double* acc0, double* acc1) {
  const double pmin =
      accumulate_image_sweep_core(sweep, xs, ys, zs, count, linear_basis, acc0, acc1);
  EBEM_EXPECT(pmin > 0.0, kOnAxisMessage);
}

void accumulate_image_sweep_reference(const ImageSegmentSweep& sweep, const double* xs,
                                      const double* ys, const double* zs, std::size_t count,
                                      bool linear_basis, double* acc0, double* acc1) {
  const double inv_length = sweep.length > 0.0 ? 1.0 / sweep.length : 0.0;
  for (std::size_t t = 0; t < sweep.size(); ++t) {
    const SegmentFrame frame{{sweep.ax, sweep.ay, sweep.az[t]},
                             {sweep.ux, sweep.uy, sweep.muz[t]},
                             sweep.length,
                             sweep.radius2};
    const double w = sweep.weight[t];
    for (std::size_t q = 0; q < count; ++q) {
      const SegmentPotentials s = segment_potentials_reference(frame, {xs[q], ys[q], zs[q]});
      if (linear_basis) {
        const double end = s.i1 * inv_length;
        acc0[q] += w * (s.i0 - end);
        acc1[q] += w * end;
      } else {
        acc0[q] += w * s.i0;
      }
    }
  }
}

}  // namespace ebem::bem
