// Names of the session counters an Engine accumulates on its PhaseReport —
// shared constants so the analyze, solve and factor paths (and any test or
// report consumer) land on the same totals. The congruence-cache counter
// names live with their producer in src/bem/analysis.hpp.
#pragma once

#include "src/bem/clustering.hpp"
#include "src/bem/far_field.hpp"
#include "src/common/phase_report.hpp"
#include "src/la/tile_store.hpp"

namespace ebem::engine {

/// Incremented once per successful direct (Cholesky) factorization —
/// Engine::analyze/solve with SolverKind::kCholesky, and Engine::factor.
inline constexpr const char* kFactorizationsCounter = "Cholesky factorizations";

/// Incremented per right-hand side answered by a FactoredSystem (solve adds
/// one, solve_many adds the block width). Together with
/// kFactorizationsCounter this lets a session assert "k solves, one
/// factorization".
inline constexpr const char* kRhsSolvedCounter = "Right-hand sides solved";

/// No producer: a physics change installs a fresh cache, so no run waits
/// at a gate or drops a cache. The names stay until a benchmark change
/// retires the metrics that read them.
inline constexpr const char* kCacheDropsCounter = "Warm cache physics drops";
inline constexpr const char* kGateWaitSecondsCounter = "Assembly gate wait seconds";

/// Tile-pager counters, summed over the matrix store and the Cholesky
/// factor's working store of each run. All stay zero for fully resident
/// (in-memory) storage; with an ExecutionConfig::storage residency budget
/// they record how hard the out-of-core path worked — evictions, dirty
/// tiles written to the spill file, and tiles read back on checkout.
inline constexpr const char* kTileEvictionsCounter = "Tile evictions";
inline constexpr const char* kTileSpillWritesCounter = "Tile spill writes";
inline constexpr const char* kTileSpillReadsCounter = "Tile spill read-backs";

/// Fold one store's pager counters into a report. Fully resident stores
/// contribute nothing, so in-memory sessions keep a clean Table 6.1. Shared
/// by the blocking Engine paths and the scheduler's staged pipeline.
inline void add_tile_counters(PhaseReport& report, const la::TileStoreStats& stats) {
  if (stats.evictions == 0 && stats.spill_writes == 0 && stats.spill_reads == 0) return;
  report.add_counter(kTileEvictionsCounter, static_cast<double>(stats.evictions));
  report.add_counter(kTileSpillWritesCounter, static_cast<double>(stats.spill_writes));
  report.add_counter(kTileSpillReadsCounter, static_cast<double>(stats.spill_reads));
}

/// Far-field compression counters, folded per assembling run when
/// ExecutionConfig::storage.compression is enabled. Everything is additive
/// across runs — the mean block rank is deliberately stored as its numerator
/// (rank sum; divide by the block count to recover the mean), because a
/// ratio would not accumulate meaningfully on a shared PhaseReport.
inline constexpr const char* kLowRankBlocksCounter = "Low-rank far-field blocks";
inline constexpr const char* kLowRankTilesCounter = "Low-rank tiles";
inline constexpr const char* kCompressedStoredBytesCounter = "Compressed matrix bytes stored";
inline constexpr const char* kCompressedDenseBytesCounter = "Compressed matrix bytes (dense equivalent)";
inline constexpr const char* kFarFieldRankSumCounter = "Far-field block rank sum";
inline constexpr const char* kPairsSkippedCounter = "Element pairs skipped (far field)";
inline constexpr const char* kPairsSampledCounter = "Element pairs sampled (ACA)";

/// Fold one run's compression outcome into a report; dense runs (no blocks,
/// nothing skipped) contribute nothing.
inline void add_compression_counters(PhaseReport& report, const la::CompressionStats& stats,
                                     const bem::FarFieldStats& far_field) {
  if (stats.low_rank_blocks == 0 && far_field.pairs_skipped == 0) return;
  report.add_counter(kLowRankBlocksCounter, static_cast<double>(stats.low_rank_blocks));
  report.add_counter(kLowRankTilesCounter, static_cast<double>(stats.low_rank_tiles));
  report.add_counter(kCompressedStoredBytesCounter, static_cast<double>(stats.stored_bytes));
  report.add_counter(kCompressedDenseBytesCounter, static_cast<double>(stats.dense_bytes));
  report.add_counter(kFarFieldRankSumCounter, static_cast<double>(stats.rank_sum));
  report.add_counter(kPairsSkippedCounter, static_cast<double>(far_field.pairs_skipped));
  report.add_counter(kPairsSampledCounter, static_cast<double>(far_field.pairs_sampled));
}

/// Geometric-ordering counters, folded per assembling run when
/// ExecutionConfig::storage.compression.ordering == kGeometric. Additive
/// like everything on a PhaseReport: leaves and depth accumulate as sums —
/// divide either by the ordering count to recover a per-run mean.
inline constexpr const char* kOrderingsCounter = "Geometric DoF orderings";
inline constexpr const char* kOrderingLeavesCounter = "Ordering cluster leaves";
inline constexpr const char* kOrderingDepthCounter = "Ordering tree depth (sum)";

/// Fold one run's ordering summary into a report; unordered runs (no
/// cluster leaves) contribute nothing.
inline void add_ordering_counters(PhaseReport& report, const bem::OrderingStats& stats) {
  if (stats.cluster_leaves == 0) return;
  report.add_counter(kOrderingsCounter, 1.0);
  report.add_counter(kOrderingLeavesCounter, static_cast<double>(stats.cluster_leaves));
  report.add_counter(kOrderingDepthCounter, static_cast<double>(stats.tree_depth));
}

}  // namespace ebem::engine
