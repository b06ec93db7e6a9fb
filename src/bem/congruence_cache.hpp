// Thread-safe cache of elemental Galerkin blocks keyed by the pair's
// congruence signature — the subsystem that lets assembly integrate each
// distinct pair geometry once and replay the 2x2 block for every congruent
// copy (uniform rectangular grids repeat a handful of geometries tens of
// thousands of times; see pair_signature.hpp for the invariance argument).
//
// Concurrency model matches the segmented parallel assembly: a read-mostly
// sharded hash map. Signatures are distributed over 64 independently locked
// shards by their high hash bits, so concurrent workers contend only when
// they touch the same shard at the same instant; after warm-up nearly every
// access is a brief locked find. Two workers racing on the same cold key may
// both integrate it — both results are identical, the second insert is
// dropped, and correctness is unaffected.
//
// Congruent geometry alone does not pin the block: the soil stack and the
// integrator/series/Hankel options do too. So a cache is built for one
// physics — a soil and an AssemblyOptions, compared by exact value — and
// bem::assemble refuses (ebem::InvalidArgument) a cache built for any
// other; new physics takes a new cache.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <unordered_map>

#include "src/bem/integrator.hpp"
#include "src/bem/pair_signature.hpp"
#include "src/soil/soil_model.hpp"

namespace ebem::bem {

/// Hit/miss/occupancy counters of one assembly (or a session's sum of them).
struct CongruenceCacheStats {
  std::size_t hits = 0;
  std::size_t misses = 0;
  std::size_t entries = 0;  ///< distinct blocks stored

  [[nodiscard]] double hit_rate() const {
    const std::size_t total = hits + misses;
    return total > 0 ? static_cast<double>(hits) / static_cast<double>(total) : 0.0;
  }
};

class CongruenceCache {
 public:
  /// Occupancy cap: on pathological (fully graded) grids nearly every pair
  /// is a distinct class, and an uncapped map would shadow the O(M^2) pair
  /// count in memory; past the cap lookups keep hitting existing entries
  /// but misses stop inserting.
  static constexpr std::size_t kDefaultMaxEntries = 1u << 20;

  /// A cache for the blocks `soil` integrates under `options`.
  explicit CongruenceCache(soil::LayeredSoil soil, const AssemblyOptions& options = {},
                           double quantum = kDefaultCongruenceQuantum,
                           std::size_t max_entries = kDefaultMaxEntries);
  CongruenceCache(const CongruenceCache&) = delete;
  CongruenceCache& operator=(const CongruenceCache&) = delete;

  [[nodiscard]] double quantum() const { return quantum_; }

  /// Whether this cache was built for `soil` under `options` — the only
  /// physics whose blocks it may replay.
  [[nodiscard]] bool serves(const soil::LayeredSoil& soil, const AssemblyOptions& options) const {
    return options == options_ && soil == soil_;
  }

  /// On a hit copies the stored block into `block` and returns true; on a
  /// miss returns false.
  [[nodiscard]] bool lookup(const PairSignature& signature, LocalMatrix& block) const;

  /// Store the block for `signature`; a concurrent duplicate or a full
  /// cache is silently dropped.
  void insert(const PairSignature& signature, const LocalMatrix& block);

  /// Role-canonical variants: blocks are stored in the canonical (field,
  /// source) orientation, so a transposed signature transposes the block on
  /// the way in and back out — one entry serves both orientations of a
  /// congruence class (field/source transpose reciprocity).
  [[nodiscard]] bool lookup(const CanonicalPairSignature& signature, LocalMatrix& block) const;
  void insert(const CanonicalPairSignature& signature, const LocalMatrix& block);

  /// Distinct blocks stored.
  [[nodiscard]] std::size_t entries() const { return entries_.load(std::memory_order_relaxed); }

 private:
  static constexpr std::size_t kShards = 64;
  struct alignas(64) Shard {
    mutable std::mutex mutex;
    std::unordered_map<PairSignature, LocalMatrix, PairSignatureHash> map;
  };

  /// High hash bits pick the shard; the map's bucket index uses the low
  /// bits, so shard choice and bucket spread stay independent.
  [[nodiscard]] const Shard& shard_of(const PairSignature& signature) const {
    return shards_[signature.hash >> 58];
  }
  [[nodiscard]] Shard& shard_of(const PairSignature& signature) {
    return shards_[signature.hash >> 58];
  }

  soil::LayeredSoil soil_;
  AssemblyOptions options_;
  double quantum_;
  std::size_t max_entries_;
  std::array<Shard, kShards> shards_;
  std::atomic<std::uint64_t> entries_{0};
};

}  // namespace ebem::bem
