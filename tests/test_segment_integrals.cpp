// Analytic inner segment integrals vs high-order numeric quadrature.
#include <gtest/gtest.h>

#include <cmath>

#include "src/bem/segment_integrals.hpp"
#include "src/common/error.hpp"
#include "src/common/math_utils.hpp"
#include "src/quad/gauss.hpp"

namespace ebem::bem {
namespace {

using geom::Vec3;

struct Geometry {
  Vec3 p;
  Vec3 a;
  Vec3 b;
  double radius;
  const char* name;
};

class SegmentGeometry : public ::testing::TestWithParam<Geometry> {};

TEST_P(SegmentGeometry, MatchesNumericQuadrature) {
  const Geometry& g = GetParam();
  const double length = geom::distance(g.a, g.b);
  const auto r = [&](double t) {
    const Vec3 xi = g.a + (t / length) * (g.b - g.a);
    return std::sqrt(square(geom::distance(g.p, xi)) + square(g.radius));
  };
  // Composite high-order quadrature as the reference (the integrand is
  // smooth after regularization but can be sharply peaked).
  double i0 = 0.0;
  double i1 = 0.0;
  const std::size_t panels = 200;
  for (std::size_t k = 0; k < panels; ++k) {
    const double t0 = length * static_cast<double>(k) / panels;
    const double t1 = length * static_cast<double>(k + 1) / panels;
    i0 += quad::integrate([&](double t) { return 1.0 / r(t); }, t0, t1, 12);
    i1 += quad::integrate([&](double t) { return t / r(t); }, t0, t1, 12);
  }
  const SegmentPotentials s = segment_potentials(g.p, g.a, g.b, g.radius);
  EXPECT_NEAR(s.i0, i0, 1e-10 * std::abs(i0)) << g.name;
  EXPECT_NEAR(s.i1, i1, 1e-10 * std::abs(i1)) << g.name;
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, SegmentGeometry,
    ::testing::Values(
        Geometry{{0, 1, 0}, {-1, 0, 0}, {1, 0, 0}, 0.0, "broadside"},
        Geometry{{2, 0, 0}, {-1, 0, 0}, {1, 0, 0}, 0.01, "collinear_off_end"},
        Geometry{{0.5, 0, 0}, {0, 0, 0}, {1, 0, 0}, 0.006, "on_axis_regularized"},
        Geometry{{0, 0, 0}, {0, 0, 0}, {1, 0, 0}, 0.01, "at_start_regularized"},
        Geometry{{3, 4, 5}, {0, 0, -1}, {0, 0, -3}, 0.007, "vertical_rod_far"},
        Geometry{{0.1, 0.05, -0.8}, {0, 0, -0.8}, {5, 0, -0.8}, 0.006, "near_buried_bar"},
        Geometry{{-2, 7, 1}, {1, 1, 1}, {2, 3, 5}, 0.0, "skew_far"}),
    [](const auto& info) { return info.param.name; });

TEST(SegmentPotentials, SelfIntegralLogarithmicForm) {
  // Field point at the segment midpoint on the axis, radius a << L:
  // I0 = 2 asinh(L / (2a)) ~ 2 ln(L/a).
  const double length = 2.0;
  const double a = 1e-3;
  const SegmentPotentials s =
      segment_potentials({1, 0, 0}, {0, 0, 0}, {2, 0, 0}, a);
  EXPECT_NEAR(s.i0, 2.0 * std::asinh(length / (2.0 * a)), 1e-12);
  // Midpoint symmetry: I1 = (L/2) I0.
  EXPECT_NEAR(s.i1, 0.5 * length * s.i0, 1e-10);
}

TEST(SegmentPotentials, SymmetryUnderSegmentReversal) {
  // Reversing the segment swaps the roles of the endpoints:
  // I0 invariant, I1 -> L*I0 - I1.
  const Vec3 p{0.3, 1.2, -0.4};
  const Vec3 a{0, 0, 0};
  const Vec3 b{2, 0.5, -1};
  const double length = geom::distance(a, b);
  const SegmentPotentials fwd = segment_potentials(p, a, b, 0.01);
  const SegmentPotentials rev = segment_potentials(p, b, a, 0.01);
  EXPECT_NEAR(fwd.i0, rev.i0, 1e-12 * std::abs(fwd.i0));
  EXPECT_NEAR(rev.i1, length * fwd.i0 - fwd.i1, 1e-10);
}

TEST(SegmentPotentials, ShapeIntegralsPartitionI0) {
  // N_start + N_end = 1, so the two shape integrals must sum to I0.
  const SegmentPotentials s =
      segment_potentials({1, 2, 0}, {0, 0, 0}, {3, 0, 0}, 0.01);
  EXPECT_NEAR(shape_start_integral(s, 3.0) + shape_end_integral(s, 3.0), s.i0, 1e-12);
}

TEST(SegmentPotentials, FarFieldApproachesLengthOverDistance) {
  // From far away the segment acts as a point: I0 ~ L / r.
  const Vec3 p{100, 0, 0};
  const SegmentPotentials s = segment_potentials(p, {0, -0.5, 0}, {0, 0.5, 0}, 0.0);
  EXPECT_NEAR(s.i0, 1.0 / 100.0, 1e-5);
}

TEST(SegmentPotentials, DegenerateSegmentRejected) {
  EXPECT_THROW((void)segment_potentials({1, 0, 0}, {0, 0, 0}, {0, 0, 0}, 0.01),
               ebem::InvalidArgument);
}

TEST(SegmentPotentials, UnregularizedOnAxisRejected) {
  EXPECT_THROW((void)segment_potentials({0.5, 0, 0}, {0, 0, 0}, {1, 0, 0}, 0.0),
               ebem::InvalidArgument);
}

}  // namespace
}  // namespace ebem::bem
