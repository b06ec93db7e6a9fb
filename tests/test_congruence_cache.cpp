// Congruence cache subsystem: signature invariance under the horizontal
// isometries the layered-soil kernels admit, discrimination of incongruent
// pairs, no-collision safety on graded grids, hit/miss statistics, and
// cache-on == cache-off parity across every parallel assembly mode.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/bem/analysis.hpp"
#include "src/bem/assembly.hpp"
#include "src/bem/congruence_cache.hpp"
#include "src/bem/pair_signature.hpp"
#include "src/common/error.hpp"
#include "src/geom/grid_builder.hpp"
#include "src/geom/mesh.hpp"
#include "src/parallel/thread_pool.hpp"

namespace ebem::bem {
namespace {

BemElement make_element(geom::Vec3 a, geom::Vec3 b, double radius = 0.006,
                        std::size_t layer = 0) {
  BemElement element;
  element.a = a;
  element.b = b;
  element.radius = radius;
  element.length = geom::distance(a, b);
  element.layer = layer;
  return element;
}

/// A generic (skew, depth-varying) pair with no accidental symmetry.
std::pair<BemElement, BemElement> generic_pair() {
  return {make_element({0.3, 0.2, -0.8}, {2.3, 1.2, -0.8}),
          make_element({4.1, -0.7, -0.8}, {5.0, 2.0, -1.4})};
}

/// Loose quantum for the invariance unit tests: the rotations below produce
/// irrational canonical coordinates, and a lattice fine enough for assembly
/// parity would make the pass/fail of an exact-equality assertion depend on
/// ~1e-15 libm rounding landing next to a quantum boundary.
constexpr double kLooseQuantum = 1e-9;

TEST(PairSignature, InvariantUnderHorizontalTranslation) {
  const auto [field, source] = generic_pair();
  const geom::Vec3 shift{13.5, -7.25, 0.0};
  const BemElement field_t = make_element(field.a + shift, field.b + shift);
  const BemElement source_t = make_element(source.a + shift, source.b + shift);

  const PairSignature base = make_pair_signature(field, source, kLooseQuantum);
  const PairSignature translated = make_pair_signature(field_t, source_t, kLooseQuantum);
  EXPECT_EQ(base, translated);
}

TEST(PairSignature, VerticalTranslationChangesSignature) {
  // z is physical (surface and interface planes): burial depth must be part
  // of the key even though horizontal position is not.
  const auto [field, source] = generic_pair();
  const geom::Vec3 shift{0.0, 0.0, -0.5};
  const BemElement field_t = make_element(field.a + shift, field.b + shift);
  const BemElement source_t = make_element(source.a + shift, source.b + shift);
  EXPECT_NE(make_pair_signature(field, source, kLooseQuantum),
            make_pair_signature(field_t, source_t, kLooseQuantum));
}

TEST(PairSignature, InvariantUnderRotationAboutVerticalAxis) {
  const auto [field, source] = generic_pair();
  const double theta = 0.7;
  const double c = std::cos(theta);
  const double s = std::sin(theta);
  const geom::Vec3 center{1.0, -2.0, 0.0};
  const auto rotate = [&](geom::Vec3 p) {
    const double x = p.x - center.x;
    const double y = p.y - center.y;
    return geom::Vec3{center.x + c * x - s * y, center.y + s * x + c * y, p.z};
  };
  const BemElement field_r = make_element(rotate(field.a), rotate(field.b));
  const BemElement source_r = make_element(rotate(source.a), rotate(source.b));
  EXPECT_EQ(make_pair_signature(field, source, kLooseQuantum),
            make_pair_signature(field_r, source_r, kLooseQuantum));
}

TEST(PairSignature, InvariantUnderReflection) {
  const auto [field, source] = generic_pair();
  const auto mirror = [](geom::Vec3 p) { return geom::Vec3{-p.x, p.y, p.z}; };
  const BemElement field_m = make_element(mirror(field.a), mirror(field.b));
  const BemElement source_m = make_element(mirror(source.a), mirror(source.b));
  EXPECT_EQ(make_pair_signature(field, source, kLooseQuantum),
            make_pair_signature(field_m, source_m, kLooseQuantum));
}

TEST(PairSignature, DiscriminatesIncongruentPairs) {
  const auto [field, source] = generic_pair();
  const PairSignature base = make_pair_signature(field, source, kLooseQuantum);

  // Longer source.
  EXPECT_NE(base, make_pair_signature(
                      field, make_element(source.a, source.b + geom::Vec3{0.5, 0.0, 0.0}),
                      kLooseQuantum));
  // Shifted source (different relative displacement).
  const geom::Vec3 shift{1.0, 0.0, 0.0};
  EXPECT_NE(base, make_pair_signature(
                      field, make_element(source.a + shift, source.b + shift), kLooseQuantum));
  // Different radius.
  EXPECT_NE(base,
            make_pair_signature(field, make_element(source.a, source.b, 0.009), kLooseQuantum));
  // Different layer tag.
  EXPECT_NE(base, make_pair_signature(
                      field, make_element(source.a, source.b, 0.006, 1), kLooseQuantum));
  // Swapped roles are a transpose, not the same block: the ordered signature
  // must not identify them.
  EXPECT_NE(base, make_pair_signature(source, field, kLooseQuantum));
}

/// Two elements a comfortable ~5 element lengths apart: inside the
/// transpose-replay regime (>= kTransposeSeparationRatio).
std::pair<BemElement, BemElement> separated_pair() {
  return {make_element({0.0, 0.0, -0.8}, {1.0, 0.2, -0.8}),
          make_element({6.0, 1.0, -0.8}, {7.0, 1.5, -1.2})};
}

TEST(PairSignature, CanonicalSignatureMergesSwappedRolesWhenSeparated) {
  const auto [field, source] = separated_pair();
  const CanonicalPairSignature fs = make_canonical_pair_signature(field, source, kLooseQuantum);
  const CanonicalPairSignature sf = make_canonical_pair_signature(source, field, kLooseQuantum);
  // One cache key for both orientations; exactly one of them is the
  // transposed view of the stored canonical block.
  EXPECT_EQ(fs.signature, sf.signature);
  EXPECT_NE(fs.transposed, sf.transposed);
  // The ordered signatures still discriminate the orientations.
  EXPECT_NE(make_pair_signature(field, source, kLooseQuantum),
            make_pair_signature(source, field, kLooseQuantum));
}

TEST(PairSignature, CanonicalSignatureIsInvariantUnderIsometryPlusSwap) {
  // The full claimed invariance group: horizontal isometry composed with a
  // role swap must land on the same key.
  const auto [field, source] = separated_pair();
  const double c = std::cos(1.1);
  const double s = std::sin(1.1);
  const auto rotate_shift = [&](geom::Vec3 p) {
    return geom::Vec3{c * p.x - s * p.y + 11.0, s * p.x + c * p.y - 3.5, p.z};
  };
  const BemElement field_t = make_element(rotate_shift(field.a), rotate_shift(field.b));
  const BemElement source_t = make_element(rotate_shift(source.a), rotate_shift(source.b));

  const CanonicalPairSignature base = make_canonical_pair_signature(field, source, kLooseQuantum);
  const CanonicalPairSignature moved_swapped =
      make_canonical_pair_signature(source_t, field_t, kLooseQuantum);
  EXPECT_EQ(base.signature, moved_swapped.signature);
  EXPECT_NE(base.transposed, moved_swapped.transposed);
}

TEST(PairSignature, NearPairsKeepTheOrderedKey) {
  // Adjacent elements (shared node): the transpose identity only holds to
  // quadrature accuracy (~1e-4 relative), so canonicalization must not
  // merge the orientations there.
  const BemElement left = make_element({0.0, 0.0, -0.8}, {1.0, 0.0, -0.8});
  const BemElement right = make_element({1.0, 0.0, -0.8}, {2.0, 0.0, -0.8});
  const CanonicalPairSignature lr = make_canonical_pair_signature(left, right, kLooseQuantum);
  const CanonicalPairSignature rl = make_canonical_pair_signature(right, left, kLooseQuantum);
  EXPECT_FALSE(lr.transposed);
  EXPECT_FALSE(rl.transposed);
  EXPECT_EQ(lr.signature, make_pair_signature(left, right, kLooseQuantum));
  EXPECT_EQ(rl.signature, make_pair_signature(right, left, kLooseQuantum));
  EXPECT_NE(lr.signature, rl.signature);
}

TEST(CongruenceCache, TransposedReplayReturnsTheTransposedBlock) {
  const auto [field, source] = separated_pair();
  CongruenceCache cache(soil::LayeredSoil::uniform(0.01), {}, kLooseQuantum);

  LocalMatrix block;
  block.value = {{{1.0, 2.0}, {3.0, 4.0}}};
  cache.insert(make_canonical_pair_signature(field, source, kLooseQuantum), block);

  LocalMatrix replay;
  ASSERT_TRUE(cache.lookup(make_canonical_pair_signature(source, field, kLooseQuantum), replay));
  for (std::size_t p = 0; p < 2; ++p) {
    for (std::size_t q = 0; q < 2; ++q) {
      EXPECT_DOUBLE_EQ(replay.value[p][q], block.value[q][p]) << p << q;
    }
  }
  // Same orientation replays verbatim.
  ASSERT_TRUE(cache.lookup(make_canonical_pair_signature(field, source, kLooseQuantum), replay));
  for (std::size_t p = 0; p < 2; ++p) {
    for (std::size_t q = 0; q < 2; ++q) {
      EXPECT_DOUBLE_EQ(replay.value[p][q], block.value[p][q]) << p << q;
    }
  }
}

TEST(PairSignature, CanonicalKeysCollapseClassesOnTheUniformGrid) {
  // The point of the exercise: role canonicalization must merge a
  // substantial share of the ordered congruence classes (the ROADMAP's
  // "~2x more hits" follow-up), because every merged class is one saved
  // integration on the warm path.
  geom::RectGridSpec spec;
  spec.length_x = 30.0;
  spec.length_y = 30.0;
  spec.cells_x = 6;
  spec.cells_y = 6;
  const auto soil = soil::LayeredSoil::two_layer(0.005, 0.016, 1.0);
  const BemModel model(geom::Mesh::build(geom::make_rect_grid(spec)), soil);
  const auto& elements = model.elements();
  const std::size_t m = elements.size();

  std::unordered_map<PairSignature, int, PairSignatureHash> ordered;
  std::unordered_map<PairSignature, int, PairSignatureHash> canonical;
  for (std::size_t beta = 0; beta < m; ++beta) {
    for (std::size_t alpha = beta; alpha < m; ++alpha) {
      ++ordered[make_pair_signature(elements[beta], elements[alpha])];
      ++canonical[make_canonical_pair_signature(elements[beta], elements[alpha]).signature];
    }
  }
  EXPECT_LT(canonical.size(), ordered.size());
  // At least a quarter of the classes must merge; measured on this grid the
  // reduction is ~1.8x (474 vs 870 on the 12-cell bench grid).
  EXPECT_LT(static_cast<double>(canonical.size()), 0.75 * static_cast<double>(ordered.size()));
}

TEST(PairSignature, NoCollisionsOnGradedGrid) {
  // The adversarial case: geometric grading makes most pair geometries
  // distinct. Group all pairs by signature at the default (parity-grade)
  // quantum and verify that every pair mapped to an occupied key has the
  // same elemental block as the key's first occupant — i.e. a signature
  // match never glues genuinely different geometries together.
  geom::GradedRectGridSpec spec;
  spec.length_x = 20.0;
  spec.length_y = 20.0;
  spec.cells_x = 4;
  spec.cells_y = 4;
  spec.grading = 2.0;
  const auto soil = soil::LayeredSoil::two_layer(0.005, 0.016, 1.0);
  const BemModel model(geom::Mesh::build(geom::make_graded_rect_grid(spec)), soil);

  const soil::ImageKernel kernel(soil);
  const Integrator integrator(kernel, IntegratorOptions{});
  const auto& elements = model.elements();
  const std::size_t m = elements.size();

  std::unordered_map<PairSignature, LocalMatrix, PairSignatureHash> seen;
  std::size_t replays = 0;
  for (std::size_t beta = 0; beta < m; ++beta) {
    for (std::size_t alpha = beta; alpha < m; ++alpha) {
      const PairSignature sig = make_pair_signature(elements[beta], elements[alpha]);
      const LocalMatrix block = integrator.element_pair(elements[beta], elements[alpha]);
      const auto [it, inserted] = seen.try_emplace(sig, block);
      if (inserted) continue;
      ++replays;
      for (std::size_t p = 0; p < 2; ++p) {
        for (std::size_t q = 0; q < 2; ++q) {
          EXPECT_NEAR(block.value[p][q], it->second.value[p][q],
                      1e-12 * std::abs(block.value[p][q]) + 1e-15)
              << "pair (" << beta << "," << alpha << ") local " << p << q;
        }
      }
    }
  }
  // The symmetric graded partition still has mirror copies, so some keys
  // must repeat — otherwise this test exercised nothing.
  EXPECT_GT(replays, 0u);
  // But grading must keep far more keys alive than the uniform grid's few
  // hundred classes (graceful low hit rate, not accidental gluing).
  EXPECT_GT(seen.size(), m * (m + 1) / 2 / 10);
}

BemModel uniform_model(std::size_t cells) {
  geom::RectGridSpec spec;
  spec.length_x = 5.0 * static_cast<double>(cells);
  spec.length_y = 5.0 * static_cast<double>(cells);
  spec.cells_x = cells;
  spec.cells_y = cells;
  const auto soil = soil::LayeredSoil::two_layer(0.005, 0.016, 1.0);
  return BemModel(geom::Mesh::build(geom::make_rect_grid(spec)), soil);
}

void expect_parity(const la::SymMatrix& expected, const la::SymMatrix& actual,
                   const std::string& label) {
  const auto e = expected.packed();
  const auto a = actual.packed();
  ASSERT_EQ(e.size(), a.size()) << label;
  for (std::size_t k = 0; k < e.size(); ++k) {
    EXPECT_NEAR(e[k], a[k], 1e-12 * std::abs(e[k]) + 1e-15) << label << " packed index " << k;
  }
}

TEST(CongruenceCache, UniformGridHitRateAndParity) {
  const BemModel model = uniform_model(6);
  const AssemblyResult off = assemble(model, {});
  EXPECT_EQ(off.cache_stats.hits + off.cache_stats.misses, 0u);  // disabled by default

  CongruenceCache cache(model.soil());
  const AssemblyResult on = assemble(model, {}, {.cache = &cache});

  expect_parity(off.matrix, on.matrix, "uniform sequential");
  const CongruenceCacheStats& stats = on.cache_stats;
  EXPECT_EQ(stats.hits + stats.misses, on.element_pairs);
  EXPECT_EQ(stats.entries, stats.misses);  // sequential: every miss inserts
  EXPECT_GE(stats.hit_rate(), 0.9);
}

TEST(CongruenceCache, ParityAcrossSchedulesLoopsBackends) {
  // Thread-safety parity: concurrent workers share the sharded cache under
  // every schedule x loop x backend combination, and the result must match
  // the cache-off sequential assembly to reordering tolerance.
  const BemModel model = uniform_model(3);
  const AssemblyResult reference = assemble(model, {});

  const std::pair<par::Schedule, const char*> schedules[] = {
      {par::Schedule::static_blocked(), "static"},
      {par::Schedule::dynamic(1), "dynamic1"},
      {par::Schedule::guided(1), "guided1"},
  };
  for (const auto& [loop, loop_name] :
       {std::pair{ParallelLoop::kOuter, "outer"}, std::pair{ParallelLoop::kInner, "inner"}}) {
    for (const auto& [backend, backend_name] :
         {std::pair{Backend::kThreadPool, "pool"}, std::pair{Backend::kOpenMp, "omp"}}) {
      for (const auto& [schedule, schedule_name] : schedules) {
        CongruenceCache cache(model.soil());
        AssemblyExecution execution;
        execution.num_threads = 4;
        execution.loop = loop;
        execution.schedule = schedule;
        execution.backend = backend;
        execution.cache = &cache;
        const AssemblyResult on = assemble(model, {}, execution);
        const std::string label =
            std::string(loop_name) + "_" + schedule_name + "_" + backend_name;
        expect_parity(reference.matrix, on.matrix, label);
        EXPECT_EQ(on.cache_stats.hits + on.cache_stats.misses, on.element_pairs) << label;
        EXPECT_GT(on.cache_stats.hits, 0u) << label;
      }
    }
  }
}

TEST(CongruenceCache, ExternalCacheReusedAcrossAssemblies) {
  const BemModel model = uniform_model(3);
  const AssemblyResult reference = assemble(model, {});

  CongruenceCache cache(model.soil());
  const AssemblyExecution execution{.cache = &cache};
  const AssemblyResult first = assemble(model, {}, execution);
  expect_parity(reference.matrix, first.matrix, "first warm-up run");
  const std::size_t entries_after_first = first.cache_stats.entries;
  EXPECT_GT(entries_after_first, 0u);

  const AssemblyResult second = assemble(model, {}, execution);
  expect_parity(reference.matrix, second.matrix, "fully warm run");
  // cache_stats is each run's own tally (not the shared cache's cumulative
  // counters): the warm run replays every pair and learns nothing new.
  EXPECT_EQ(second.cache_stats.hits, second.element_pairs);
  EXPECT_EQ(second.cache_stats.misses, 0u);
  EXPECT_EQ(second.cache_stats.entries, entries_after_first);
}

TEST(CongruenceCache, StatsReportedThroughPhaseReport) {
  const BemModel model = uniform_model(2);
  CongruenceCache cache(model.soil());
  AnalysisExecution execution;
  execution.assembly.cache = &cache;
  PhaseReport report;
  const AnalysisResult result = analyze(model, {}, execution, &report);

  EXPECT_EQ(static_cast<std::size_t>(report.counter(kCacheHitsCounter)),
            result.cache_stats.hits);
  EXPECT_EQ(static_cast<std::size_t>(report.counter(kCacheMissesCounter)),
            result.cache_stats.misses);
  EXPECT_GT(result.cache_stats.hits, 0u);
  EXPECT_NE(report.to_string().find("Congruence cache hits"), std::string::npos);
}

TEST(CongruenceCache, PhaseReportCountsPerRunDeltasForExternalCache) {
  // Repeated analyze() calls sharing one cache must each add their own
  // tally to the report, not re-add history.
  const BemModel model = uniform_model(2);
  const std::size_t pairs = model.element_count() * (model.element_count() + 1) / 2;
  CongruenceCache cache(model.soil());
  AnalysisExecution execution;
  execution.assembly.cache = &cache;
  PhaseReport report;
  (void)analyze(model, {}, execution, &report);
  (void)analyze(model, {}, execution, &report);
  // Two runs look up every pair once each; the warm second run adds pure hits.
  EXPECT_DOUBLE_EQ(report.counter(kCacheHitsCounter) +
                       report.counter(kCacheMissesCounter),
                   static_cast<double>(2 * pairs));
}

TEST(CongruenceCache, AssembleRejectsACacheBuiltForOtherPhysics) {
  // Congruent geometry does not pin the block: a cache serves exactly the
  // soil and assembly options it was built for.
  geom::RectGridSpec spec;
  spec.length_x = 10.0;
  spec.length_y = 10.0;
  spec.cells_x = 2;
  spec.cells_y = 2;
  const geom::Mesh mesh = geom::Mesh::build(geom::make_rect_grid(spec));
  const BemModel layered(mesh, soil::LayeredSoil::two_layer(0.005, 0.016, 1.0));
  const BemModel uniform(mesh, soil::LayeredSoil::uniform(0.02));

  CongruenceCache for_uniform(uniform.soil());
  EXPECT_THROW((void)assemble(layered, {}, {.cache = &for_uniform}), InvalidArgument);

  AssemblyOptions looser;
  looser.series.tolerance *= 10.0;
  CongruenceCache for_looser(layered.soil(), looser);
  EXPECT_THROW((void)assemble(layered, {}, {.cache = &for_looser}), InvalidArgument);

  CongruenceCache matching(layered.soil(), AssemblyOptions{});
  EXPECT_NO_THROW((void)assemble(layered, {}, {.cache = &matching}));
  EXPECT_NO_THROW((void)assemble(layered, looser, {.cache = &for_looser}));
}

TEST(CongruenceCache, CapStopsInsertionsButKeepsCorrectness) {
  const BemModel model = uniform_model(3);
  const AssemblyResult reference = assemble(model, {});

  CongruenceCache tiny(model.soil(), {}, kDefaultCongruenceQuantum, /*max_entries=*/4);
  const AssemblyResult result = assemble(model, {}, {.cache = &tiny});
  expect_parity(reference.matrix, result.matrix, "capped cache");
  EXPECT_LE(result.cache_stats.entries, 4u);
}

}  // namespace
}  // namespace ebem::bem
