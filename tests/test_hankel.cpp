// Numerical Hankel-transform kernel: uniform limits and multi-layer support.
#include <gtest/gtest.h>

#include <cmath>

#include "src/common/error.hpp"
#include "src/common/math_utils.hpp"
#include "src/soil/hankel_kernel.hpp"
#include "src/soil/image_series.hpp"

namespace ebem::soil {
namespace {

using geom::Vec3;

TEST(HankelKernel, UniformSoilMatchesMirrorFormula) {
  const double gamma = 0.02;
  const HankelKernel kernel(LayeredSoil::uniform(gamma));
  const Vec3 xi{0, 0, -1.0};
  for (const Vec3 x : {Vec3{2, 0, -0.5}, Vec3{0, 3, -2.0}, Vec3{4, 0, 0.0}}) {
    const double direct =
        std::sqrt(square(x.x - xi.x) + square(x.y - xi.y) + square(x.z - xi.z));
    const double mirror =
        std::sqrt(square(x.x - xi.x) + square(x.y - xi.y) + square(x.z + xi.z));
    const double expected = (1.0 / direct + 1.0 / mirror) / (4.0 * kPi * gamma);
    EXPECT_NEAR(kernel.evaluate(x, xi), expected, 1e-7 * expected);
  }
}

TEST(HankelKernel, DegenerateThreeLayerMatchesTwoLayerImages) {
  // Split the lower layer of a two-layer model into two identical layers:
  // the 3-layer Hankel solve must agree with the 2-layer image series.
  const LayeredSoil two = LayeredSoil::two_layer(0.005, 0.016, 1.0);
  const LayeredSoil three({Layer{0.005, 1.0}, Layer{0.016, 2.0}, Layer{0.016, 0.0}});
  const ImageKernel image(two, {1e-13, 8192});
  const HankelKernel hankel(three);
  for (const auto& [x, xi] :
       {std::pair{Vec3{2, 0, -0.5}, Vec3{0, 0, -0.8}}, {Vec3{2, 0, -2.0}, Vec3{0, 0, -0.8}},
        {Vec3{2, 0, -4.0}, Vec3{0, 0, -3.5}}, {Vec3{3, 0, 0.0}, Vec3{0, 0, -0.8}}}) {
    const double expected = image.evaluate(x, xi);
    EXPECT_NEAR(hankel.evaluate(x, xi), expected, 5e-6 * expected) << "x.z=" << x.z;
  }
}

TEST(HankelKernel, DegenerateEqualLayersMatchUniform) {
  const LayeredSoil three({Layer{0.01, 0.7}, Layer{0.01, 1.3}, Layer{0.01, 0.0}});
  const HankelKernel kernel(three);
  const ImageKernel uniform(LayeredSoil::uniform(0.01));
  const Vec3 xi{0, 0, -1.0};
  const Vec3 x{2.5, 0, -0.4};
  const double expected = uniform.evaluate(x, xi);
  EXPECT_NEAR(kernel.evaluate(x, xi), expected, 1e-6 * expected);
}

TEST(HankelKernel, ThreeLayerReciprocity) {
  const LayeredSoil soil({Layer{0.02, 0.8}, Layer{0.004, 1.2}, Layer{0.04, 0.0}});
  const HankelKernel kernel(soil);
  const Vec3 a{1.5, 0, -0.5};   // layer 0
  const Vec3 b{0, 0.5, -1.5};   // layer 1
  const Vec3 c{0.5, 1, -2.8};   // layer 2
  EXPECT_NEAR(kernel.evaluate(a, b), kernel.evaluate(b, a), 1e-5 * kernel.evaluate(a, b));
  EXPECT_NEAR(kernel.evaluate(a, c), kernel.evaluate(c, a), 1e-5 * kernel.evaluate(a, c));
  EXPECT_NEAR(kernel.evaluate(b, c), kernel.evaluate(c, b), 1e-5 * kernel.evaluate(b, c));
}

TEST(HankelKernel, ThreeLayerPotentialContinuity) {
  const LayeredSoil soil({Layer{0.02, 0.8}, Layer{0.004, 1.2}, Layer{0.04, 0.0}});
  const HankelKernel kernel(soil);
  const Vec3 xi{0, 0, -0.4};
  for (double depth : {0.8, 2.0}) {
    const double above = kernel.evaluate({2, 0, -depth + 1e-7}, xi);
    const double below = kernel.evaluate({2, 0, -depth - 1e-7}, xi);
    EXPECT_NEAR(above, below, 1e-4 * std::abs(above)) << depth;
  }
}

TEST(HankelKernel, MiddleLayerShieldsWhenResistive) {
  // A very resistive middle layer suppresses the potential transmitted to
  // the bottom layer compared to a conductive middle layer.
  const LayeredSoil resistive({Layer{0.02, 0.8}, Layer{0.0005, 1.0}, Layer{0.02, 0.0}});
  const LayeredSoil conductive({Layer{0.02, 0.8}, Layer{0.2, 1.0}, Layer{0.02, 0.0}});
  const HankelKernel shielded(resistive);
  const HankelKernel open(conductive);
  const Vec3 xi{0, 0, -0.4};
  const Vec3 deep{0.5, 0, -3.0};
  EXPECT_GT(shielded.evaluate(deep, xi), 0.0);
  EXPECT_LT(shielded.evaluate(deep, xi) / shielded.evaluate({0.5, 0, -0.4}, xi),
            open.evaluate(deep, xi) / open.evaluate({0.5, 0, -0.4}, xi));
}

TEST(HankelKernel, RejectsAirPoints) {
  const HankelKernel kernel(LayeredSoil::uniform(0.01));
  EXPECT_THROW((void)kernel.evaluate({0, 0, 1.0}, {0, 0, -1.0}), ebem::InvalidArgument);
}

}  // namespace
}  // namespace ebem::soil
