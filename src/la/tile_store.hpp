// Pluggable storage of a dense symmetric matrix as fixed-size lower-triangle
// tiles — the layer that makes "where the coefficients live" a policy.
//
// The Galerkin BEM matrix is the only O(N^2) object left in the library, and
// a single contiguous packed array caps N at single-node memory. A TileStore
// instead holds the lower triangle as square tile_size x tile_size blocks
// with checkout/commit semantics: an algorithm checks a tile out (pinning it
// resident), reads or writes its row-major payload, and commits it back by
// dropping the guard. Two backends implement the contract:
//
//   * InMemoryTileStore — one contiguous arena, tiles are zero-copy views,
//     checkout/commit are pointer math. The default; numerically this is
//     today's dense matrix, just blocked.
//   * SpillTileStore — a file-backed pager with an LRU residency budget in
//     bytes. Tiles beyond the budget are spilled to an (unlinked) scratch
//     file and read back on demand, so factorization of an N x N system runs
//     with only a configurable fraction of the matrix resident. Eviction and
//     IO counters surface on TileStoreStats.
//   * CompressedTileStore (compressed_tile_store.hpp) — the H-matrix style
//     backend: well-separated tile blocks are held as low-rank U V^T factors
//     (built by ACA during assembly) and decompress into a bounded scratch
//     cache on read checkout; near-field tiles stay dense and exact.
//
// Tile-walking consumers (SymMatrix::multiply, the blocked Cholesky with
// panel = tile column, the assembly's segment flush) touch O(1) tiles at a
// time, which is what keeps the pager's working set bounded and lets all
// three backends sit behind one checkout interface.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace ebem::la {

/// DoF ordering applied at the matrix boundary before tiling. The matrix
/// then stores rows/columns in the chosen *internal* order while every
/// caller-visible vector (RHS, solution) stays in the model's external
/// order — the la::Permutation carried on the AssemblyResult is the seam.
enum class DofOrdering {
  kNone,       ///< keep the model's DoF numbering (tile rows = index slabs)
  kGeometric,  ///< RCB cluster-tree order (bem::geometric_ordering): tile
               ///< rows become compact spatial clusters, making far-field
               ///< compressibility independent of the mesh numbering
};

/// Low-rank (H-matrix) compression policy of one symmetric matrix. Enabled
/// by a positive epsilon; the matrix store then becomes a
/// CompressedTileStore whose admissible far-field tile blocks hold U V^T
/// factors instead of dense payloads. The epsilon is the accuracy contract:
/// each compressed block approximates its exact counterpart to a relative
/// (Frobenius) tolerance of epsilon, so solution-level quantities track the
/// dense reference to about that level.
struct CompressionConfig {
  /// Relative block tolerance; 0 disables compression (dense tiles only).
  double epsilon = 0.0;
  /// Minimum DoFs per side for a block to be worth compressing; smaller
  /// admissible blocks stay dense (a low-rank factor on a tiny block costs
  /// more than the dense payload it replaces).
  std::size_t min_block = 64;
  /// Rank budget per block; a block that fails to meet epsilon within this
  /// rank is split and retried on its halves.
  std::size_t max_rank = 128;
  /// Minimum *profitable* rank budget a block must offer before ACA samples
  /// a single entry. A block only pays when rank * (rows + cols) undercuts
  /// half the dense bytes it covers; blocks whose budget under that rule
  /// falls below this floor are left dense outright — their ranks would sit
  /// in the 20-35 band measured at the admissibility boundary, so sampling
  /// them is a coin flip that costs about what it could save. The default
  /// is tuned for 64-DoF tiles; tests and small-tile setups may lower it.
  std::size_t min_rank_budget = 48;
  /// Storage-order policy. kGeometric is what makes *square* grids compress
  /// (their in-place DoF slabs are high-rank); it is honored even with
  /// epsilon == 0 — the matrix is then dense but spatially reordered, which
  /// the permutation-parity tests rely on.
  DofOrdering ordering = DofOrdering::kNone;

  [[nodiscard]] bool enabled() const { return epsilon > 0.0; }

  friend bool operator==(const CompressionConfig&, const CompressionConfig&) = default;
};

/// Storage policy of one symmetric matrix (and of the Cholesky factor
/// derived from it): tile geometry plus the out-of-core pager knobs.
struct StorageConfig {
  /// Rows/columns per square tile. Clamped to the matrix dimension, so a
  /// small system is always a single tile.
  std::size_t tile_size = 64;
  /// Resident-tile budget in bytes for the spill backend; 0 keeps the whole
  /// matrix in memory (InMemoryTileStore). The budget is per store — a
  /// matrix and its Cholesky factor each own one.
  std::size_t residency_budget_bytes = 0;
  /// Directory for the pager's scratch file (created with mkstemp and
  /// immediately unlinked). Only used when residency_budget_bytes > 0.
  std::string spill_dir = ".";
  /// Low-rank far-field compression (CompressedTileStore backend). Mutually
  /// exclusive with a spill residency budget: a compressed matrix is already
  /// small, and the factors have no tile-granular spill representation.
  CompressionConfig compression;

  friend bool operator==(const StorageConfig&, const StorageConfig&) = default;
};

/// Validate one storage policy; throws ebem::InvalidArgument with messages
/// prefixed by `context` (e.g. "ExecutionConfig"). The single source of the
/// storage invariants, shared by the session-level config validator and
/// make_tile_store() so the two cannot drift.
void validate_storage_config(const StorageConfig& config, const char* context);

/// Tile geometry of an n x n symmetric matrix: the lower triangle is covered
/// by tiles (I, J) with I >= J; tile (I, J) holds rows [I*t, min((I+1)*t, n))
/// by columns [J*t, ...) as a row-major t x t block (edge tiles are padded,
/// diagonal tiles carry their upper-triangle padding as zeros).
class TileLayout {
 public:
  TileLayout() = default;
  TileLayout(std::size_t n, std::size_t tile_size);

  [[nodiscard]] std::size_t n() const { return n_; }
  [[nodiscard]] std::size_t tile() const { return tile_; }
  /// Number of tile rows/columns: ceil(n / tile).
  [[nodiscard]] std::size_t tile_rows() const { return tile_rows_; }
  /// Number of lower-triangle tiles.
  [[nodiscard]] std::size_t tile_count() const {
    return tile_rows_ * (tile_rows_ + 1) / 2;
  }
  /// Doubles per tile slot.
  [[nodiscard]] std::size_t tile_doubles() const { return tile_ * tile_; }
  [[nodiscard]] std::size_t tile_bytes() const { return tile_doubles() * sizeof(double); }
  /// Total bytes of all lower-triangle tiles (the spill file's extent).
  [[nodiscard]] std::size_t total_bytes() const { return tile_count() * tile_bytes(); }

  /// Packed lower-triangle index of tile (I, J) with I >= J.
  [[nodiscard]] std::size_t tile_index(std::size_t ti, std::size_t tj) const {
    return ti * (ti + 1) / 2 + tj;
  }
  /// Tile row/column holding global index i.
  [[nodiscard]] std::size_t tile_of(std::size_t i) const { return i / tile_; }
  [[nodiscard]] std::size_t row_begin(std::size_t ti) const { return ti * tile_; }
  /// Clamped end row of tile row ti.
  [[nodiscard]] std::size_t row_end(std::size_t ti) const {
    const std::size_t end = (ti + 1) * tile_;
    return end < n_ ? end : n_;
  }
  [[nodiscard]] std::size_t rows_in(std::size_t ti) const { return row_end(ti) - row_begin(ti); }

  /// Offset of entry (i, j), i >= j, inside its tile's row-major payload.
  [[nodiscard]] std::size_t tile_offset(std::size_t i, std::size_t j) const {
    return (i % tile_) * tile_ + (j % tile_);
  }

 private:
  std::size_t n_ = 0;
  std::size_t tile_ = 1;
  std::size_t tile_rows_ = 0;
};

/// Cumulative pager counters of one store. All zeros for the in-memory
/// backend except the resident-byte gauges (the whole arena is resident).
struct TileStoreStats {
  std::size_t evictions = 0;      ///< resident tiles displaced by the LRU
  std::size_t spill_writes = 0;   ///< dirty tiles written to the scratch file
  std::size_t spill_reads = 0;    ///< spilled tiles read back on checkout
  std::size_t bytes_written = 0;
  std::size_t bytes_read = 0;
  std::size_t resident_bytes = 0;       ///< tile bytes in memory right now
  std::size_t peak_resident_bytes = 0;  ///< high-water mark of the above
};

/// Compression outcome of one CompressedTileStore — how much of the dense
/// lower triangle the low-rank factors replaced. All zeros for the dense
/// backends.
struct CompressionStats {
  std::size_t low_rank_blocks = 0;  ///< installed U V^T blocks
  std::size_t low_rank_tiles = 0;   ///< tiles covered by those blocks
  std::size_t dense_tiles = 0;      ///< materialized dense (near-field) tiles
  /// Bytes actually held: dense tile payloads plus low-rank factors. The
  /// honest price of the matrix — what resident_bytes gauges report.
  std::size_t stored_bytes = 0;
  /// What the same lower triangle would cost fully dense
  /// (TileLayout::total_bytes()); stored_bytes / dense_bytes is the
  /// compression ratio.
  std::size_t dense_bytes = 0;
  std::size_t rank_sum = 0;  ///< sum of block ranks (mean = rank_sum / blocks)
  std::size_t max_rank = 0;

  [[nodiscard]] double mean_rank() const {
    return low_rank_blocks == 0
               ? 0.0
               : static_cast<double>(rank_sum) / static_cast<double>(low_rank_blocks);
  }
  [[nodiscard]] double ratio() const {
    return dense_bytes == 0 ? 1.0
                            : static_cast<double>(stored_bytes) / static_cast<double>(dense_bytes);
  }
};

enum class TileAccess {
  kRead,   ///< payload will only be read; commit leaves the tile clean
  kWrite,  ///< payload may be modified; commit marks the tile dirty
};

class TileStore;

/// RAII checkout handle: holds the tile pinned (the pager cannot evict it)
/// until destruction commits it back. Movable, not copyable.
class TileGuard {
 public:
  TileGuard(const TileStore* store, std::size_t tile_index, double* data, TileAccess access)
      : store_(store), tile_index_(tile_index), data_(data), access_(access) {}
  TileGuard(TileGuard&& other) noexcept
      : store_(other.store_), tile_index_(other.tile_index_), data_(other.data_),
        access_(other.access_) {
    other.store_ = nullptr;
  }
  TileGuard& operator=(TileGuard&& other) noexcept;
  TileGuard(const TileGuard&) = delete;
  TileGuard& operator=(const TileGuard&) = delete;
  ~TileGuard();

  /// Row-major tile_size x tile_size payload.
  [[nodiscard]] double* data() const { return data_; }

 private:
  const TileStore* store_;
  std::size_t tile_index_;
  double* data_;
  TileAccess access_;
};

/// Abstract store of the lower-triangle tiles of one symmetric matrix.
/// Checkout/commit are const (and thread-safe) so read-only algorithms on a
/// const matrix can page tiles in; logical content mutation goes through
/// TileAccess::kWrite checkouts on a non-const owner.
class TileStore {
 public:
  explicit TileStore(const TileLayout& layout, const StorageConfig& config)
      : layout_(layout), config_(config) {}
  virtual ~TileStore() = default;
  TileStore(const TileStore&) = delete;
  TileStore& operator=(const TileStore&) = delete;

  [[nodiscard]] const TileLayout& layout() const { return layout_; }
  [[nodiscard]] const StorageConfig& config() const { return config_; }

  /// Check tile (ti, tj), ti >= tj, out of the store. The returned guard
  /// pins the tile resident; destroying it commits the tile back.
  [[nodiscard]] TileGuard checkout(std::size_t ti, std::size_t tj, TileAccess access) const {
    return checkout_index(layout_.tile_index(ti, tj), access);
  }
  [[nodiscard]] virtual TileGuard checkout_index(std::size_t tile_index,
                                                 TileAccess access) const = 0;

  /// Reset every entry to zero. Requires no outstanding checkouts.
  virtual void set_zero() = 0;

  /// Deep copy with the same backend and config (a spill store clones into
  /// its own fresh scratch file).
  [[nodiscard]] virtual std::unique_ptr<TileStore> clone() const = 0;

  /// Arena base when tiles are directly addressable without checkout (the
  /// in-memory backend); null for paged backends. Entry (i, j) of tile t
  /// lives at direct_data()[t * tile_doubles() + tile_offset(i, j)].
  [[nodiscard]] virtual double* direct_data() const { return nullptr; }

  [[nodiscard]] virtual TileStoreStats stats() const = 0;

 private:
  friend class TileGuard;
  /// Commit half of the checkout contract; called by ~TileGuard.
  virtual void commit_index(std::size_t tile_index, TileAccess access) const = 0;

  TileLayout layout_;
  StorageConfig config_;
};

/// Default backend: one contiguous arena, zero-copy views, no paging.
class InMemoryTileStore final : public TileStore {
 public:
  InMemoryTileStore(const TileLayout& layout, const StorageConfig& config);

  [[nodiscard]] TileGuard checkout_index(std::size_t tile_index,
                                         TileAccess access) const override;
  void set_zero() override;
  [[nodiscard]] std::unique_ptr<TileStore> clone() const override;
  [[nodiscard]] double* direct_data() const override { return arena_.data(); }
  [[nodiscard]] TileStoreStats stats() const override;

 private:
  void commit_index(std::size_t tile_index, TileAccess access) const override;

  mutable std::vector<double> arena_;
};

/// Out-of-core backend: an LRU pager over an unlinked scratch file. At most
/// ceil(residency_budget_bytes / tile_bytes) tiles (>= 1) are resident;
/// checking out a non-resident tile evicts the least-recently-used unpinned
/// one (writing it to the file if dirty) and reads the requested tile back
/// (or zero-fills it on first touch). Victim selection is O(1) amortized:
/// resident slots sit on an intrusive recency list and a fault takes the
/// list head, walking past only pinned or mid-IO slots (bounded by the
/// worker count, never by the resident-tile count). The disk IO itself runs *outside* the
/// pager mutex — the faulting slot is marked busy and concurrent checkouts
/// of other tiles proceed; only checkouts of a tile whose slot is in flight
/// wait. When every resident tile is pinned the store grows transiently
/// past the budget rather than deadlocking — the peak_resident_bytes gauge
/// records it, so a too-small budget is visible, not fatal. Throws
/// ebem::IoError when the spill directory is unwritable or scratch-file IO
/// fails.
class SpillTileStore final : public TileStore {
 public:
  SpillTileStore(const TileLayout& layout, const StorageConfig& config);
  ~SpillTileStore() override;

  [[nodiscard]] TileGuard checkout_index(std::size_t tile_index,
                                         TileAccess access) const override;
  void set_zero() override;
  [[nodiscard]] std::unique_ptr<TileStore> clone() const override;
  [[nodiscard]] TileStoreStats stats() const override;

  /// Resident-tile capacity implied by the byte budget (>= 1).
  [[nodiscard]] std::size_t max_resident_tiles() const { return max_resident_; }

 private:
  static constexpr std::size_t kNoTile = static_cast<std::size_t>(-1);

  void commit_index(std::size_t tile_index, TileAccess access) const override;
  /// Raw scratch-file IO of one tile payload; called with the mutex
  /// *released* (the owning slot is marked busy while these run).
  void write_tile(const double* data, std::size_t tile_index) const;
  void read_tile(double* data, std::size_t tile_index) const;

  struct Pager;  // mutex + condvar + slots + maps; defined in the .cpp
  std::unique_ptr<Pager> pager_;
  std::size_t max_resident_ = 1;
  int fd_ = -1;
};

/// Create the backend `config` asks for: the compressed (low-rank) store
/// when compression is enabled, a spill store when residency_budget_bytes >
/// 0, the in-memory arena otherwise. The layout's tile size is
/// config.tile_size clamped to n.
[[nodiscard]] std::unique_ptr<TileStore> make_tile_store(std::size_t n,
                                                         const StorageConfig& config);

/// Copy the lower-triangle content of `src` into `dst` (same n, any tile
/// sizes/backends); at most one tile of each store is pinned at a time, so
/// re-tiling stays within both stores' residency budgets.
void copy_tiles(const TileStore& src, TileStore& dst);

/// Materialize the packed row-major lower triangle (n(n+1)/2 doubles) —
/// the interchange/debug format, not the storage format.
[[nodiscard]] std::vector<double> packed_lower(const TileStore& store);

}  // namespace ebem::la
