#include "src/bem/congruence_cache.hpp"

#include <utility>

#include "src/common/error.hpp"

namespace ebem::bem {

CongruenceCache::CongruenceCache(soil::LayeredSoil soil, const AssemblyOptions& options,
                                 double quantum, std::size_t max_entries)
    : soil_(std::move(soil)), options_(options), quantum_(quantum), max_entries_(max_entries) {
  EBEM_EXPECT(quantum > 0.0, "congruence quantum must be positive");
}

bool CongruenceCache::lookup(const PairSignature& signature, LocalMatrix& block) const {
  const Shard& shard = shard_of(signature);
  const std::scoped_lock lock(shard.mutex);
  const auto it = shard.map.find(signature);
  if (it == shard.map.end()) return false;
  block = it->second;
  return true;
}

void CongruenceCache::insert(const PairSignature& signature, const LocalMatrix& block) {
  if (entries_.load(std::memory_order_relaxed) >= max_entries_) return;
  Shard& shard = shard_of(signature);
  const std::scoped_lock lock(shard.mutex);
  if (shard.map.try_emplace(signature, block).second) {
    entries_.fetch_add(1, std::memory_order_relaxed);
  }
}

bool CongruenceCache::lookup(const CanonicalPairSignature& signature, LocalMatrix& block) const {
  if (!lookup(signature.signature, block)) return false;
  if (signature.transposed) block = transposed(block);
  return true;
}

void CongruenceCache::insert(const CanonicalPairSignature& signature, const LocalMatrix& block) {
  insert(signature.signature, signature.transposed ? transposed(block) : block);
}

}  // namespace ebem::bem
