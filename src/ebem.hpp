// EarthBEM umbrella header: the full public API.
//
// Quick tour:
//   engine::ExecutionConfig — every execution knob (threads, schedule,
//       backend, warm congruence cache, solver kind/tolerances, matrix
//       storage policy, pipeline width) in one validated struct, configured
//       once per session
//   engine::Engine          — the long-lived execution context: one worker
//       pool, one warm cache, one cumulative PhaseReport across analyses
//   engine::Study           — a session binding an Engine to fixed physics;
//       study.analyze(model) per candidate, study.factor(model) for a
//       FactoredSystem whose solve/solve_many reuse one factorization
//   geom::make_rect_grid / make_triangular_grid  — build a grid design
//   soil::LayeredSoil                            — uniform / layered soil
//   cad::GroundingSystem                         — mesh + solve + report
//       (pass an Engine to analyze(), or submit() to a Study, to share
//       warm resources)
//   cad::search_design                           — the CAD ladder, all
//       candidates submitted as one pipelined batch on one warm Study
//   post::PotentialEvaluator / assess_safety     — surface potentials, safety
//   estimation::fit_two_layer                    — soil parameters from soundings
//       (with per-parameter log-space uncertainties when the sounding has
//       redundancy — TwoLayerFit::sigma_log_* / residual_sigma)
//   campaign::Runner                             — scenario campaigns: stochastic
//       soil + damage sweeps reduced to percentile safety reports
//   service::Dispatcher / Server                 — the engine as a multi-tenant
//       service: line-delimited JSON over a socket, admission control, quotas,
//       per-tenant warm caches and cost accounts
//
// Scenario campaigns (campaign/): one safety verdict against one fitted
// soil is a point estimate; a campaign answers "how safe is this design
// over what the site could plausibly be?". campaign::SoilEnsemble samples
// two-layer soils around a fitted point with a seeded, counter-based
// stratified sampler (no global RNG: scenario i is a pure function of
// (seed, i), so ensembles re-generate exactly) — feed it
// SoilDistribution::from_fit(fit) to propagate the Wenner inversion's own
// uncertainty, or SoilDistribution::relative for hand-set spreads.
// campaign::DamageEnsemble ablates the conductor network instead (removed
// or segmented conductors, deterministically re-meshed per scenario).
// campaign::Runner drives either source through engine::Study::submit with
// a bounded in-flight window (backpressure: a 10k-scenario campaign holds
// at most `window` assembled matrices), harvests futures in completion
// order, and commits observations into streaming summaries strictly in
// scenario-index order — which makes the reported P5/P50/P95/P99 of
// R_eq, GPR and touch/step margins bit-identical across pipeline widths
// for a fixed seed. Summaries are campaign::MetricSummary: exact
// order-statistic quantiles with distribution-free confidence half-widths
// (the runner's early-stop rule watches one of them), or O(1)-memory
// P-squared markers for very large ensembles. Soil sweeps are the warm
// cache's worst case (a cache serves one physics, so every scenario starts
// a fresh one); damage sweeps keep one physics and replay the undamaged
// majority of the grid, so batch campaigns by physics. examples/campaign.cpp is the walkthrough;
// bench/bench_campaign.cpp measures both sweeps and gates the
// width-determinism contract in CI.
//
// Asynchronous sessions (engine/): independent analyses — the paper's CAD
// loop evaluating many nearby candidates — should be *submitted*, not run
// one blocking call at a time. engine::Engine::submit(model) (and
// Study::submit) return an engine::RunFuture immediately; the engine's
// Scheduler decomposes every run into assemble -> factor -> solve stages
// and dispatches ready stages from one queue onto a small set of stage
// executors (ExecutionConfig::pipeline_width, default 2), so candidate
// k+1's assembly overlaps candidate k's factorization/solve tail on the
// shared pool. Futures offer wait/ready/get plus the run's own PhaseReport
// and its exact congruence-cache delta (tallied inside the run — correct
// even while runs share the warm cache concurrently). Every run executes
// under the engine's one resolved plan (ExecutionConfig, resolved at
// construction) and holds only its own cache: it takes the engine's cache
// for its own physics at submit; a physics change installs a fresh cache while runs of the old
// physics finish on theirs, so nothing waits. The blocking analyze()/factor()
// calls are thin submit+get shims over the same pipeline, so both paths
// produce identical numbers. examples/pipeline.cpp is the walkthrough;
// bench/bench_pipeline.cpp measures sequential vs pipelined ladder wall
// time and gates parity in CI.
//
// Matrix storage (la/): the Galerkin matrix — the method's one O(N^2)
// object — lives behind the pluggable la::TileStore interface as fixed-size
// lower-triangle tiles with checkout/commit semantics. Three backends ship:
// la::InMemoryTileStore (default; one contiguous arena, zero-copy tile
// views), la::SpillTileStore (file-backed LRU pager; an
// ExecutionConfig::storage residency budget in bytes caps how much of the
// matrix — and of its Cholesky factor — is resident, so systems beyond
// single-node memory assemble, multiply and factor out of core, with
// eviction/IO counters on the session PhaseReport), and
// la::CompressedTileStore (H-matrix; set ExecutionConfig::storage
// .compression). Every consumer walks tiles: the assembly flushes each
// segment a tile run at a time, the blocked Cholesky uses panel = tile column,
// SymMatrix::multiply and PCG stream the triangle tile by tile.
// examples/out_of_core.cpp is the walkthrough.
//
// Compressed far-field storage (la/ + bem/): with
// ExecutionConfig::storage.compression set, assembly partitions the tile
// triangle by the bem::pair_signature separation gate — the same quantized
// predicate the congruence cache trusts — and builds each well-separated
// block as a low-rank U V^T pair by adaptive cross approximation
// (la::adaptive_cross), sampling individual matrix rows/columns from the
// bem::Integrator instead of ever materializing the dense block. The far
// field's exact pair integrations are *skipped*, so both memory and the
// O(M^2) pair bill shrink. Accuracy is a contract, not a hope:
// CompressionConfig::epsilon bounds each block's Frobenius error, and end
// to end the safety quantities (equivalent resistance, touch/step
// voltages) match the dense backend to ~epsilon. Two honest caveats:
// compressibility is a geometry property — under the in-place DoF order,
// tile rows of a *square* grid are full-width slabs with high numerical
// rank, and the profit gate (CompressionConfig::min_rank_budget) keeps
// such blocks dense rather than paying ACA sampling for nothing, while
// elongated trench/pipeline-style grids compress to a third of the dense
// bytes — and ACA samples bypass the congruence cache, so on highly
// congruent grids compression trades wall time for memory. Consumers are
// oblivious: checkout decompresses tiles on the fly, and Cholesky
// densifies via la::copy_tiles. Block/rank/byte/pair counters land on the
// session PhaseReport; bench/bench_hmatrix.cpp sweeps element count x
// epsilon and gates the >= 2000-element trench case in CI (<= 40% stored
// bytes, <= 50% exact pairs, parity within epsilon).
//
// Geometric DoF ordering (bem/clustering + la/permutation): the square-grid
// caveat above is an *ordering* artifact, not a physics one — so
// ExecutionConfig::storage.compression.ordering = la::DofOrdering::kGeometric
// renumbers the DoFs by recursive coordinate bisection (bem::
// geometric_ordering) before the matrix is created. RCB splits on DoF
// cardinality at tile-aligned counts, so every cluster-tree leaf IS one
// tile row and leaf boxes stay near-cubical on any mesh; the resulting
// la::Permutation is applied once, at the matrix boundary: assembly
// scatters entries through to_internal(), the solve paths gather the RHS
// and scatter the solution back, and every caller-visible vector (rhs,
// sigma, post-processing) stays in model order. SymMatrix, the tile
// stores and Cholesky never see the permutation — an ordered matrix is
// just a symmetric matrix over relabeled rows — and the ordering is
// honored even at epsilon == 0 (dense but reordered), which is what the
// Ordering* parity tests exploit. With it, the same square grid that
// refuses to compress in place stores <= 60% of the dense bytes at
// epsilon 1e-8 (bench/bench_hmatrix.cpp's square_ordered wall case, CI
// gated); ordering counters (orderings, cluster leaves, tree depth) land
// on the session PhaseReport.
//
// Batched SIMD kernels (bem/segment_integrals + common/simd.hpp): every
// mitigation above helps *repeated* geometry; the batched kernel path makes
// the cache misses themselves fast. The integrator evaluates the paper's
// closed-form segment potentials in structure-of-arrays batches through a
// branch-free, single-division log1p formulation that vectorizes under
// `#pragma omp simd` (the library compiles with -fopenmp-simd; hot
// functions are multiversioned via target_clones for AVX2/AVX-512), with
// branch-free simd_log1p/simd_exp replacing serializing libm calls. The
// fused image sweep picks its loop order by series length: layered-soil
// sweeps (O(100) image terms) vectorize over the terms with register
// accumulators per Gauss point, short uniform-soil sweeps over the points
// — on the 312-element two-layer bench grid, cold assembly drops ~6x vs
// the scalar asinh reference (bench/bench_kernels.cpp; the reference stays
// selectable as IntegratorOptions::segment_eval for cross-checks, parity
// <= 1e-12 CI-gated via bench_kernels --check). ACA far-field sampling now
// also consults the congruence cache (FarFieldStats::pairs_replayed): on
// ordered square grids ~99.9% of sampled pairs replay, cutting the
// compressed backend's net pair bill below half of dense. The multi-layer
// spectral kernel batches too — its per-lambda boundary system is
// assembled symbolically once per evaluation and solved for whole
// quadrature panels on per-thread workspaces (soil/hankel_kernel).
//
// Post-processing (post/): post::PotentialEvaluator evaluates eq. (4.2),
// V(x) = sum_i sigma_i V_i(x), for the surface contours and touch/step
// safety patches — the paper's second parallel stage. Its batched at(points)
// cuts the points into chunks that each lie in one soil layer and runs them
// on a pool; inside a chunk, elements are the outer loop, so each source
// element's image sweep is built once and evaluated against the whole chunk
// in one SoA call. Every point keeps the pointwise summation order, so the
// batched values equal the pointwise at(x) bitwise at any thread count. The
// evaluator borrows a pool when given one (campaign::Runner and
// cad::search_design pass the engine's, and the runner evaluates under the
// study's own physics) and otherwise owns one for its lifetime.
//
// Serving the engine (service/): everything above assumes the caller links
// the library; the service layer puts the same engine behind a network front
// door instead. The transport is deliberately primitive — line-delimited
// JSON over a blocking socket (service::Server, thread-per-connection,
// loopback only) — because all the tenancy logic lives in the
// transport-agnostic service::Dispatcher underneath: a strict dependency-free
// codec rejects malformed frames with typed error payloads *before* any
// engine is touched; service::TenantRegistry gives every tenant its own
// Study-backed session (own Engine, own warm congruence cache — isolation by
// construction, since each engine's per-physics cache only ever sees one
// tenant's soils) over one shared worker pool; an AdmissionController
// enforces per-tenant quotas (outstanding runs, elements per model, a
// sliding rate window) plus one global outstanding bound, rejecting
// immediately with a typed code (quota_exceeded / rate_limited / overloaded
// / model_too_large) rather than queueing unboundedly. Every submit carries
// a completion callback that the engine's executor invokes once, when the
// run ends: it builds the run's wire report, bills the run's own
// PhaseReport — wall seconds by phase, elements, cache hits — into that
// tenant's CostAccount (which the wire's stats request exposes as the
// bill), releases the admission slot, and only then publishes the report,
// so a client that sees "done" also sees the bill and the free slot. No
// service thread polls futures. Graceful shutdown waits until every
// admitted run is billed; a shutting_down code refuses latecomers. The wire
// factor_solve path reproduces analyze()'s numbers to <= 1e-12 (CI-gated by
// bench/bench_service.cpp --check). service::LoopbackClient runs the whole
// protocol in-process for tests; examples/serve.cpp walks the socket
// surface end to end.
//
// The bem:: free functions (analyze, assemble, solve) remain as the serial
// reference path; their option structs carry physics only. Anything that
// runs more than one analysis should hold an engine::Engine.
// See examples/quickstart.cpp for a complete walkthrough.
#pragma once

#include "src/bem/analysis.hpp"
#include "src/bem/assembly.hpp"
#include "src/bem/clustering.hpp"
#include "src/bem/element.hpp"
#include "src/bem/integrator.hpp"
#include "src/bem/segment_integrals.hpp"
#include "src/bem/solver.hpp"
#include "src/cad/cases.hpp"
#include "src/cad/design_search.hpp"
#include "src/cad/grounding_system.hpp"
#include "src/campaign/damage_ensemble.hpp"
#include "src/campaign/runner.hpp"
#include "src/campaign/sampler.hpp"
#include "src/campaign/soil_ensemble.hpp"
#include "src/campaign/summary.hpp"
#include "src/common/error.hpp"
#include "src/common/math_utils.hpp"
#include "src/common/phase_report.hpp"
#include "src/common/timer.hpp"
#include "src/engine/counters.hpp"
#include "src/engine/engine.hpp"
#include "src/engine/execution_config.hpp"
#include "src/engine/factored_system.hpp"
#include "src/engine/scheduler.hpp"
#include "src/engine/study.hpp"
#include "src/estimation/wenner.hpp"
#include "src/fdm/fd_solver.hpp"
#include "src/geom/conductor.hpp"
#include "src/geom/grid_builder.hpp"
#include "src/geom/mesh.hpp"
#include "src/geom/vec3.hpp"
#include "src/io/grid_file.hpp"
#include "src/io/table.hpp"
#include "src/la/blas1.hpp"
#include "src/la/cg.hpp"
#include "src/la/cholesky.hpp"
#include "src/la/dense_matrix.hpp"
#include "src/la/permutation.hpp"
#include "src/la/sym_matrix.hpp"
#include "src/la/tile_store.hpp"
#include "src/parallel/parallel_for.hpp"
#include "src/parallel/openmp_backend.hpp"
#include "src/parallel/schedule.hpp"
#include "src/parallel/schedule_sim.hpp"
#include "src/parallel/thread_pool.hpp"
#include "src/post/contour.hpp"
#include "src/post/leakage.hpp"
#include "src/post/safety.hpp"
#include "src/post/surface_potential.hpp"
#include "src/quad/gauss.hpp"
#include "src/service/admission.hpp"
#include "src/service/codec.hpp"
#include "src/service/dispatcher.hpp"
#include "src/service/loopback.hpp"
#include "src/service/server.hpp"
#include "src/service/tenant.hpp"
#include "src/soil/hankel_kernel.hpp"
#include "src/soil/image_series.hpp"
#include "src/soil/kernel_factory.hpp"
#include "src/soil/point_kernel.hpp"
#include "src/soil/soil_model.hpp"
