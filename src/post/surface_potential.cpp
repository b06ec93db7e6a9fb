#include "src/post/surface_potential.hpp"

#include <algorithm>
#include <numeric>

#include "src/bem/congruence_cache.hpp"
#include "src/bem/pair_signature.hpp"
#include "src/common/error.hpp"
#include "src/parallel/parallel_for.hpp"
#include "src/soil/kernel_factory.hpp"

namespace ebem::post {

namespace {

bem::IntegratorOptions evaluator_integrator_options(const bem::BemModel& model,
                                                    const PotentialOptions& options) {
  bem::IntegratorOptions integrator = options.integrator;
  if (model.soil().layer_count() > 2) {
    integrator.inner = bem::InnerIntegration::kSubtracted;
  }
  return integrator;
}

/// Chunks per pool thread: enough for dynamic balancing, few enough that
/// each chunk amortizes its per-element sweep builds over many points.
constexpr std::size_t kChunksPerThread = 2;

}  // namespace

PotentialEvaluator::PotentialEvaluator(const bem::BemModel& model, std::vector<double> sigma,
                                       const PotentialOptions& options, par::ThreadPool* pool,
                                       bem::CongruenceCache* cache)
    : model_(model),
      sigma_(std::move(sigma)),
      options_(options),
      kernel_(soil::make_kernel(model.soil(), options.series, options.hankel)),
      integrator_(*kernel_, evaluator_integrator_options(model, options)),
      pool_(pool),
      cache_(cache) {
  EBEM_EXPECT(sigma_.size() == model.dof_count(options.integrator.basis),
              "sigma size does not match the model's DoF count");
  EBEM_EXPECT(cache == nullptr ||
                  cache->serves(model.soil(), {options.integrator, options.series, options.hankel}),
              "congruence cache was built for other physics than this evaluator's");
  if (pool_ == nullptr) {
    owned_pool_ = std::make_unique<par::ThreadPool>(std::max<std::size_t>(options.num_threads, 1));
    pool_ = owned_pool_.get();
  }
}

double PotentialEvaluator::at(geom::Vec3 x) const {
  const bem::BasisKind basis = options_.integrator.basis;
  const std::size_t locals = model_.local_dof_count(basis);
  double v = 0.0;
  for (std::size_t e = 0; e < model_.element_count(); ++e) {
    const auto influence = integrator_.potential_influence(x, model_.elements()[e]);
    for (std::size_t q = 0; q < locals; ++q) {
      v += influence[q] * sigma_[model_.global_dof(basis, e, q)];
    }
  }
  return v;
}

std::vector<double> PotentialEvaluator::at(const std::vector<geom::Vec3>& points) const {
  std::vector<double> values(points.size(), 0.0);
  if (points.empty()) return values;

  // The image sweep depends on the field layer, so order the points by
  // layer (stably) and cut chunks that never straddle a layer change.
  const soil::LayeredSoil& soil = kernel_->soil_model();
  std::vector<std::size_t> layer(points.size());
  for (std::size_t p = 0; p < points.size(); ++p) {
    layer[p] = soil.layer_of(std::min(points[p].z, 0.0));
  }
  std::vector<std::size_t> order(points.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) { return layer[a] < layer[b]; });
  const std::size_t parts = kChunksPerThread * pool_->num_threads();
  const std::size_t chunk_size = (points.size() + parts - 1) / parts;
  std::vector<par::ChunkRange> chunks;  // ranges of `order`
  for (std::size_t begin = 0; begin < order.size();) {
    std::size_t end = begin + 1;
    while (end < order.size() && end - begin < chunk_size &&
           layer[order[end]] == layer[order[begin]]) {
      ++end;
    }
    chunks.push_back({begin, end});
    begin = end;
  }

  // With a cache, every influence is keyed from two frames: the elements'
  // are built once here, each point's once in its chunk.
  const std::vector<bem::ElementFrame> frames =
      cache_ == nullptr ? std::vector<bem::ElementFrame>{}
                        : bem::make_element_frames(model_.elements(), cache_->quantum());
  const bem::BasisKind basis = options_.integrator.basis;
  const std::size_t locals = model_.local_dof_count(basis);
  par::parallel_for(*pool_, chunks.size(), par::Schedule::dynamic(1), [&](std::size_t c) {
    const par::ChunkRange& chunk = chunks[c];
    const std::size_t chunk_layer = layer[order[chunk.begin]];
    const std::size_t m = chunk.end - chunk.begin;
    std::vector<double> scratch(6 * m, 0.0);
    double* xs = scratch.data();
    double* ys = xs + m;
    double* zs = ys + m;
    double* influence0 = zs + m;
    double* influence1 = influence0 + m;
    double* sum = influence1 + m;
    std::vector<bem::ElementFrame> point_frames(cache_ == nullptr ? 0 : m);
    std::vector<bem::PairSignature> keys(point_frames.size());
    for (std::size_t k = 0; k < m; ++k) {
      const geom::Vec3& point = points[order[chunk.begin + k]];
      xs[k] = point.x;
      ys[k] = point.y;
      zs[k] = point.z;
      if (cache_ != nullptr) {
        point_frames[k] = bem::make_point_frame(point, chunk_layer, cache_->quantum());
      }
    }
    // Elements outer, local DoFs next, points inner: each point's sum sees
    // the terms in exactly the order at(x) adds them.
    for (std::size_t e = 0; e < model_.element_count(); ++e) {
      const bem::BemElement& element = model_.elements()[e];
      if (cache_ == nullptr) {
        integrator_.potential_influences(element, chunk_layer, xs, ys, zs, m, influence0,
                                         influence1);
      } else {
        for (std::size_t k = 0; k < m; ++k) {
          keys[k] = bem::make_pair_signature(point_frames[k], frames[e]);
        }
        integrator_.potential_influences(keys, *cache_, influence0, influence1);
      }
      for (std::size_t q = 0; q < locals; ++q) {
        const double* influence = q == 0 ? influence0 : influence1;
        const double s = sigma_[model_.global_dof(basis, e, q)];
        for (std::size_t k = 0; k < m; ++k) sum[k] += influence[k] * s;
      }
    }
    for (std::size_t k = 0; k < m; ++k) values[order[chunk.begin + k]] = sum[k];
  });
  return values;
}

PotentialEvaluator::SurfaceGrid PotentialEvaluator::surface_grid(double x0, double x1, double y0,
                                                                 double y1, std::size_t nx,
                                                                 std::size_t ny) const {
  EBEM_EXPECT(nx >= 2 && ny >= 2, "surface grid needs at least 2x2 samples");
  EBEM_EXPECT(x1 > x0 && y1 > y0, "surface grid bounds must be increasing");
  SurfaceGrid grid;
  grid.x0 = x0;
  grid.y0 = y0;
  grid.nx = nx;
  grid.ny = ny;
  grid.dx = (x1 - x0) / static_cast<double>(nx - 1);
  grid.dy = (y1 - y0) / static_cast<double>(ny - 1);
  std::vector<geom::Vec3> points;
  points.reserve(nx * ny);
  for (std::size_t j = 0; j < ny; ++j) {
    for (std::size_t i = 0; i < nx; ++i) {
      points.push_back({x0 + grid.dx * static_cast<double>(i),
                        y0 + grid.dy * static_cast<double>(j), 0.0});
    }
  }
  grid.values = at(points);
  return grid;
}

std::vector<double> PotentialEvaluator::profile(geom::Vec3 a, geom::Vec3 b, std::size_t n) const {
  EBEM_EXPECT(n >= 2, "profile needs at least two samples");
  std::vector<geom::Vec3> points;
  points.reserve(n);
  for (std::size_t k = 0; k < n; ++k) {
    const double t = static_cast<double>(k) / static_cast<double>(n - 1);
    points.push_back(a + t * (b - a));
  }
  return at(points);
}

}  // namespace ebem::post
