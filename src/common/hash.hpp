// Small non-cryptographic hashing helpers shared across modules.
//
// std::hash makes no mixing guarantees (libstdc++ hashes integers to
// themselves), which is unusable for sharded hash maps that key shards off
// hash bits; splitmix64 is the standard cheap finalizer with full avalanche.
#pragma once

#include <cstdint>

namespace ebem {

/// splitmix64 finalizer: cheap full-avalanche mixing of a 64-bit word.
[[nodiscard]] inline constexpr std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Order-dependent combination of a running hash with the next value.
[[nodiscard]] inline constexpr std::uint64_t hash_combine(std::uint64_t seed,
                                                          std::uint64_t value) {
  return splitmix64(seed ^ (value + 0x9e3779b97f4a7c15ULL + (seed << 6) + (seed >> 2)));
}

}  // namespace ebem
