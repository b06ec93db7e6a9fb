// Property tests of the batched SIMD kernel path: batch-vs-scalar parity at
// every batch size, the log1p formulation vs the asinh reference, the
// branch-free transcendentals vs libm, the fused image sweep vs its
// term-by-term reference across series lengths (both sides of the
// vectorize-over-terms threshold), and congruence-cache replay through the
// batched entry points down to the far-field sampling counters.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <limits>
#include <span>
#include <vector>

#include "src/bem/assembly.hpp"
#include "src/bem/congruence_cache.hpp"
#include "src/bem/integrator.hpp"
#include "src/bem/segment_integrals.hpp"
#include "src/common/error.hpp"
#include "src/common/simd.hpp"
#include "src/geom/grid_builder.hpp"
#include "src/geom/mesh.hpp"
#include "src/soil/image_series.hpp"
#include "src/soil/soil_model.hpp"

namespace ebem::bem {
namespace {

using geom::Vec3;

/// Deterministic off-axis point cloud around a segment (no RNG: the tests
/// must be reproducible bit-for-bit across runs and sanitizers).
std::vector<Vec3> field_cloud(std::size_t count) {
  std::vector<Vec3> points;
  points.reserve(count);
  for (std::size_t k = 0; k < count; ++k) {
    const double s = static_cast<double>(k);
    points.push_back({0.37 * s - 2.0, 1.1 + 0.23 * std::cos(1.7 * s), -0.4 - 0.31 * s});
  }
  return points;
}

struct Soa {
  std::vector<double> xs, ys, zs;
  explicit Soa(const std::vector<Vec3>& points) {
    for (const Vec3& p : points) {
      xs.push_back(p.x);
      ys.push_back(p.y);
      zs.push_back(p.z);
    }
  }
};

TEST(BatchedKernels, BatchAgreesWithScalarAtEveryCount) {
  // Covers: radius 0 (off axis), thin-wire radius, and a tilted segment;
  // batch sizes straddling every vector width and epilogue combination.
  const SegmentFrame frames[] = {
      make_segment_frame({0, 0, -0.8}, {3, 0, -0.8}, 0.0),
      make_segment_frame({0, 0, -0.8}, {3, 0, -0.8}, 0.006),
      make_segment_frame({-1, 0.5, -0.3}, {2, 1.5, -2.3}, 0.01),
  };
  for (const SegmentFrame& frame : frames) {
    for (const std::size_t count : {1u, 2u, 3u, 7u, 8u, 9u, 16u, 31u, 32u, 33u}) {
      const std::vector<Vec3> points = field_cloud(count);
      const Soa soa(points);
      std::vector<double> i0(count), i1(count);
      segment_potentials_batch(frame, soa.xs.data(), soa.ys.data(), soa.zs.data(), count,
                               i0.data(), i1.data());
      for (std::size_t q = 0; q < count; ++q) {
        const SegmentPotentials one = segment_potentials(frame, points[q]);
        EXPECT_NEAR(i0[q], one.i0, 1e-14 * (std::abs(one.i0) + 1.0)) << "count " << count;
        EXPECT_NEAR(i1[q], one.i1, 1e-14 * (std::abs(one.i1) + 1.0)) << "count " << count;
      }
    }
  }
}

TEST(BatchedKernels, MatchesAsinhReference) {
  const SegmentFrame frame = make_segment_frame({-1, 0.5, -0.3}, {2, 1.5, -2.3}, 0.008);
  for (const Vec3& p : field_cloud(24)) {
    const SegmentPotentials batched = segment_potentials(frame, p);
    const SegmentPotentials reference = segment_potentials_reference(frame, p);
    EXPECT_NEAR(batched.i0, reference.i0, 1e-12 * (std::abs(reference.i0) + 1.0));
    EXPECT_NEAR(batched.i1, reference.i1, 1e-12 * (std::abs(reference.i1) + 1.0));
  }
}

TEST(BatchedKernels, OnAxisLaneThrowsAnywhereInBatch) {
  // The multiversioned core cannot throw (target_clones dispatch cannot
  // unwind); the wrapper must still surface the documented exception even
  // when the offending lane sits mid-batch.
  const SegmentFrame frame = make_segment_frame({0, 0, -1}, {2, 0, -1}, 0.0);
  std::vector<Vec3> points = field_cloud(8);
  points[5] = {1.0, 0.0, -1.0};  // on the unregularized axis
  const Soa soa(points);
  std::vector<double> i0(points.size()), i1(points.size());
  EXPECT_THROW(segment_potentials_batch(frame, soa.xs.data(), soa.ys.data(), soa.zs.data(),
                                        points.size(), i0.data(), i1.data()),
               ebem::InvalidArgument);
}

TEST(SimdMath, Log1pMatchesStd) {
  // The kernels only pass y > 0; sweep 24 decades of it.
  for (double y = 1e-12; y < 1e12; y *= 3.7) {
    const double reference = std::log1p(y);
    EXPECT_NEAR(simd_log1p(y), reference, 1e-14 * (std::abs(reference) + 1e-300)) << y;
  }
}

TEST(SimdMath, ExpMatchesStdAndSaturates) {
  for (double x = -700.0; x <= 700.0; x += 13.7) {
    const double reference = std::exp(x);
    EXPECT_NEAR(simd_exp(x), reference, 1e-13 * reference) << x;
  }
  EXPECT_EQ(simd_exp(-800.0), 0.0);
  EXPECT_EQ(simd_exp(720.0), std::numeric_limits<double>::infinity());
  EXPECT_EQ(simd_exp(0.0), 1.0);
}

/// A synthetic mirrored-image sweep of `terms` terms over the segment
/// a->b: alternating mirrors, geometrically decaying weights — the shape
/// (not the values) of a two-layer image series.
ImageSegmentSweep synthetic_sweep(std::size_t terms, double decay) {
  const Vec3 a{0.4, -0.2, -0.7};
  const Vec3 b{2.9, 0.8, -1.4};
  const SegmentFrame frame = make_segment_frame(a, b, 0.006);
  ImageSegmentSweep sweep;
  sweep.ax = frame.a.x;
  sweep.ay = frame.a.y;
  sweep.ux = frame.u.x;
  sweep.uy = frame.u.y;
  sweep.length = frame.length;
  sweep.radius2 = frame.radius2;
  double weight = 1.0;
  for (std::size_t t = 0; t < terms; ++t) {
    const double mirror = (t % 2 == 0) ? 1.0 : -1.0;
    const double offset = (t % 2 == 0) ? -0.37 * static_cast<double>(t)
                                       : 0.41 * static_cast<double>(t) + 0.8;
    sweep.az.push_back(mirror * frame.a.z + offset);
    sweep.muz.push_back(mirror * frame.u.z);
    sweep.weight.push_back(weight);
    weight *= -decay;
  }
  return sweep;
}

TEST(ImageSweep, MatchesReferenceAcrossSeriesLengths) {
  // Series lengths straddle the vectorize-over-terms threshold (16): both
  // the point-vectorized short path and the term-vectorized long path must
  // honor the same parity contract, at every batch size and basis.
  for (const std::size_t terms : {1u, 2u, 8u, 15u, 16u, 17u, 64u, 130u}) {
    const ImageSegmentSweep sweep = synthetic_sweep(terms, 0.82);
    for (const std::size_t count : {1u, 3u, 8u, 9u, 33u}) {
      const Soa soa(field_cloud(count));
      for (const bool linear : {true, false}) {
        std::vector<double> acc0(count, 0.0), acc1(count, 0.0);
        std::vector<double> ref0(count, 0.0), ref1(count, 0.0);
        accumulate_image_sweep(sweep, soa.xs.data(), soa.ys.data(), soa.zs.data(), count,
                               linear, acc0.data(), acc1.data());
        accumulate_image_sweep_reference(sweep, soa.xs.data(), soa.ys.data(), soa.zs.data(),
                                         count, linear, ref0.data(), ref1.data());
        for (std::size_t q = 0; q < count; ++q) {
          EXPECT_NEAR(acc0[q], ref0[q], 1e-12 * (std::abs(ref0[q]) + 1.0))
              << "terms " << terms << " count " << count << " linear " << linear;
          EXPECT_NEAR(acc1[q], ref1[q], 1e-12 * (std::abs(ref1[q]) + 1.0));
        }
      }
    }
  }
}

bem::BemModel grid_model(std::size_t cells_x, std::size_t cells_y,
                         const soil::LayeredSoil& soil) {
  geom::RectGridSpec spec;
  spec.length_x = 5.0 * static_cast<double>(cells_x);
  spec.length_y = 5.0 * static_cast<double>(cells_y);
  spec.cells_x = cells_x;
  spec.cells_y = cells_y;
  return bem::BemModel(geom::Mesh::build(geom::make_rect_grid(spec)), soil);
}

BemElement make_element(Vec3 a, Vec3 b, double radius = 0.006) {
  BemElement element;
  element.a = a;
  element.b = b;
  element.radius = radius;
  element.length = geom::distance(a, b);
  element.layer = 0;
  return element;
}

TEST(CongruenceCache, BatchedEntryReplaysCongruentFields) {
  const soil::LayeredSoil soil = soil::LayeredSoil::two_layer(0.005, 0.016, 1.0);
  const soil::ImageKernel kernel(soil);
  const Integrator integrator(kernel, IntegratorOptions{});

  // The source lies on y = 0, so the y-mirror maps the (first field, source)
  // pair onto the (second field, source) pair: congruent within one batch.
  // The third field's orientation is incongruent with both.
  const BemElement source = make_element({0, 0, -0.6}, {5, 0, -0.6});
  std::vector<BemElement> storage;
  storage.push_back(make_element({0, 10.0, -0.6}, {5, 10.0, -0.6}));
  storage.push_back(make_element({0, -10.0, -0.6}, {5, -10.0, -0.6}));
  storage.push_back(make_element({3.0, 9.0, -0.6}, {3.0, 14.0, -0.6}));
  std::vector<const BemElement*> fields;
  for (const BemElement& e : storage) fields.push_back(&e);

  std::vector<LocalMatrix> plain(fields.size());
  integrator.element_pair_batch(source, fields, plain.data());

  CongruenceCache cache(soil);
  std::vector<LocalMatrix> cold(fields.size());
  std::size_t cold_replays = 0;
  integrator.element_pair_batch(source, fields, cold.data(), &cache, &cold_replays);
  // The mirror copy replays within the very first batch.
  EXPECT_EQ(cold_replays, 1u);

  std::vector<LocalMatrix> warm(fields.size());
  std::size_t warm_replays = 0;
  integrator.element_pair_batch(source, fields, warm.data(), &cache, &warm_replays);
  EXPECT_EQ(warm_replays, fields.size());

  for (std::size_t k = 0; k < fields.size(); ++k) {
    for (std::size_t p = 0; p < 2; ++p) {
      for (std::size_t q = 0; q < 2; ++q) {
        EXPECT_EQ(cold[k].value[p][q], plain[k].value[p][q]);
        EXPECT_EQ(warm[k].value[p][q], plain[k].value[p][q]);
      }
    }
  }
}

TEST(CongruenceCache, FarFieldSamplingReplaysOnOrderedGrid) {
  // End to end: compressed assembly over a translation-invariant grid with a
  // warm cache must serve part of its ACA sampling bill from the cache (the
  // exact bill is pairs_near + pairs_sampled - pairs_replayed).
  const BemModel model = grid_model(4, 60, soil::LayeredSoil::uniform(0.01));
  CongruenceCache cache(model.soil());
  AssemblyExecution execution;
  execution.cache = &cache;
  execution.storage.tile_size = 32;
  execution.storage.compression = {
      .epsilon = 1e-8, .min_block = 32, .max_rank = 64, .min_rank_budget = 8};
  const AssemblyResult result = assemble(model, {}, execution);
  ASSERT_GT(result.far_field.pairs_sampled, 0u);
  EXPECT_GT(result.far_field.pairs_replayed, 0u);
  EXPECT_LE(result.far_field.pairs_replayed, result.far_field.pairs_sampled);
}

}  // namespace
}  // namespace ebem::bem
