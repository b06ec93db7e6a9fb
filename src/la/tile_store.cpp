#include "src/la/tile_store.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <mutex>
#include <unordered_map>

#include "src/common/error.hpp"
#include "src/la/compressed_tile_store.hpp"

namespace ebem::la {

void validate_storage_config(const StorageConfig& config, const char* context) {
  EBEM_EXPECT(config.tile_size >= 1,
              std::string(context) + ": storage.tile_size must be at least 1");
  EBEM_EXPECT(config.residency_budget_bytes == 0 || !config.spill_dir.empty(),
              std::string(context) + ": a residency budget needs a non-empty storage.spill_dir");
  const CompressionConfig& compression = config.compression;
  EBEM_EXPECT(compression.epsilon >= 0.0 && std::isfinite(compression.epsilon),
              std::string(context) + ": storage.compression.epsilon must be finite and >= 0");
  EBEM_EXPECT(compression.ordering == DofOrdering::kNone ||
                  compression.ordering == DofOrdering::kGeometric,
              std::string(context) + ": storage.compression.ordering is not a known DofOrdering");
  if (compression.enabled()) {
    EBEM_EXPECT(compression.min_block >= 1,
                std::string(context) + ": storage.compression.min_block must be at least 1");
    EBEM_EXPECT(compression.max_rank >= 1,
                std::string(context) + ": storage.compression.max_rank must be at least 1");
    EBEM_EXPECT(compression.min_rank_budget >= 1,
                std::string(context) +
                    ": storage.compression.min_rank_budget must be at least 1");
    EBEM_EXPECT(config.residency_budget_bytes == 0,
                std::string(context) +
                    ": storage.compression and a spill residency budget are mutually "
                    "exclusive; pick one backend");
  }
}

TileLayout::TileLayout(std::size_t n, std::size_t tile_size)
    : n_(n), tile_(std::max<std::size_t>(1, std::min(tile_size, std::max<std::size_t>(1, n)))),
      tile_rows_(n == 0 ? 0 : (n + tile_ - 1) / tile_) {}

TileGuard& TileGuard::operator=(TileGuard&& other) noexcept {
  if (this != &other) {
    if (store_ != nullptr) store_->commit_index(tile_index_, access_);
    store_ = other.store_;
    tile_index_ = other.tile_index_;
    data_ = other.data_;
    access_ = other.access_;
    other.store_ = nullptr;
  }
  return *this;
}

TileGuard::~TileGuard() {
  if (store_ != nullptr) store_->commit_index(tile_index_, access_);
}

// ------------------------------------------------------------ in-memory ---

InMemoryTileStore::InMemoryTileStore(const TileLayout& layout, const StorageConfig& config)
    : TileStore(layout, config), arena_(layout.tile_count() * layout.tile_doubles(), 0.0) {}

TileGuard InMemoryTileStore::checkout_index(std::size_t tile_index, TileAccess access) const {
  return {this, tile_index, arena_.data() + tile_index * layout().tile_doubles(), access};
}

void InMemoryTileStore::commit_index(std::size_t, TileAccess) const {}

void InMemoryTileStore::set_zero() { std::fill(arena_.begin(), arena_.end(), 0.0); }

std::unique_ptr<TileStore> InMemoryTileStore::clone() const {
  auto copy = std::make_unique<InMemoryTileStore>(layout(), config());
  copy->arena_ = arena_;
  return copy;
}

TileStoreStats InMemoryTileStore::stats() const {
  TileStoreStats s;
  s.resident_bytes = arena_.size() * sizeof(double);
  s.peak_resident_bytes = s.resident_bytes;
  return s;
}

// ---------------------------------------------------------------- spill ---

struct SpillTileStore::Pager {
  struct Slot {
    std::vector<double> data;
    std::size_t tile = kNoTile;
    std::size_t pins = 0;
    bool dirty = false;
    /// A fault's IO (write-back of the previous tenant and/or read of the
    /// new one) is in flight with the mutex released; the slot must not be
    /// touched or evicted until it clears.
    bool busy = false;
    /// Intrusive LRU links (slot ids): every slot sits on one list ordered
    /// stale -> fresh, pinned or not, so recency is a position, not a
    /// timestamp.
    std::size_t lru_prev = kNoTile;
    std::size_t lru_next = kNoTile;
  };

  std::mutex mutex;
  std::condition_variable cv;  ///< signaled when a busy slot settles
  /// Deque, not vector: a concurrent fault's emplace_back must not move
  /// existing Slot objects — checkout holds a Slot reference (and the
  /// payload pointer) across the unlocked IO window, and guards hold
  /// payload pointers for arbitrarily long.
  std::deque<Slot> slots;
  /// tile index -> slot id for the resident set. During a fault both the
  /// outgoing and the incoming tile map to the busy slot, so concurrent
  /// checkouts of either wait instead of double-faulting.
  std::unordered_map<std::size_t, std::size_t> resident;
  /// Tiles with valid content in the scratch file; everything else is a
  /// logical zero on first touch.
  std::vector<bool> on_disk;
  /// LRU list bounds: head is the stalest slot (first eviction candidate),
  /// tail the freshest. A fault walks from the head past pinned/busy slots
  /// only — O(pinned + in-flight), never O(resident slots) like the
  /// timestamp scan this replaced (ROADMAP follow-up from the tiled-storage
  /// PR: thousands of resident tiles were fine, millions were not).
  std::size_t lru_head = kNoTile;
  std::size_t lru_tail = kNoTile;
  TileStoreStats stats;

  void lru_unlink(std::size_t id) {
    Slot& slot = slots[id];
    if (slot.lru_prev != kNoTile) {
      slots[slot.lru_prev].lru_next = slot.lru_next;
    } else {
      lru_head = slot.lru_next;
    }
    if (slot.lru_next != kNoTile) {
      slots[slot.lru_next].lru_prev = slot.lru_prev;
    } else {
      lru_tail = slot.lru_prev;
    }
    slot.lru_prev = kNoTile;
    slot.lru_next = kNoTile;
  }

  void lru_push_back(std::size_t id) {
    Slot& slot = slots[id];
    slot.lru_prev = lru_tail;
    slot.lru_next = kNoTile;
    if (lru_tail != kNoTile) {
      slots[lru_tail].lru_next = id;
    } else {
      lru_head = id;
    }
    lru_tail = id;
  }

  /// Mark `id` most recently used — exactly where the old scheme bumped its
  /// timestamp (checkout hits and completed faults), so the list order *is*
  /// the timestamp order and eviction choices (hence all pager stats) are
  /// identical.
  void lru_touch(std::size_t id) {
    lru_unlink(id);
    lru_push_back(id);
  }
};

SpillTileStore::SpillTileStore(const TileLayout& layout, const StorageConfig& config)
    : TileStore(layout, config), pager_(std::make_unique<Pager>()) {
  EBEM_EXPECT(config.residency_budget_bytes > 0,
              "SpillTileStore requires a positive residency budget");
  max_resident_ = std::max<std::size_t>(1, config.residency_budget_bytes / layout.tile_bytes());
  pager_->on_disk.assign(layout.tile_count(), false);

  std::string path = config.spill_dir + "/ebem-spill-XXXXXX";
  fd_ = ::mkstemp(path.data());
  if (fd_ < 0) {
    throw IoError("SpillTileStore: spill directory '" + config.spill_dir +
                  "' is not writable: " + std::strerror(errno));
  }
  // Anonymous scratch space: the pager holds the only reference, so the
  // file vanishes with the process no matter how it exits.
  ::unlink(path.c_str());
}

SpillTileStore::~SpillTileStore() {
  if (fd_ >= 0) ::close(fd_);
}

void SpillTileStore::write_tile(const double* data, std::size_t tile_index) const {
  const std::size_t bytes = layout().tile_bytes();
  const ssize_t written =
      ::pwrite(fd_, data, bytes, static_cast<off_t>(tile_index * bytes));
  if (written != static_cast<ssize_t>(bytes)) {
    throw IoError(std::string("SpillTileStore: spill-file write failed: ") +
                  std::strerror(errno));
  }
}

void SpillTileStore::read_tile(double* data, std::size_t tile_index) const {
  const std::size_t bytes = layout().tile_bytes();
  const ssize_t got = ::pread(fd_, data, bytes, static_cast<off_t>(tile_index * bytes));
  if (got != static_cast<ssize_t>(bytes)) {
    throw IoError(std::string("SpillTileStore: spill-file read failed: ") +
                  std::strerror(errno));
  }
}

TileGuard SpillTileStore::checkout_index(std::size_t tile_index, TileAccess access) const {
  Pager& p = *pager_;
  std::unique_lock lock(p.mutex);
  for (;;) {
    const auto it = p.resident.find(tile_index);
    if (it != p.resident.end()) {
      Pager::Slot& slot = p.slots[it->second];
      if (slot.busy) {
        // Another thread is paging this slot (our tile in, or our tile's
        // payload out); wait for it to settle and re-resolve.
        p.cv.wait(lock);
        continue;
      }
      slot.pins += 1;
      p.lru_touch(it->second);
      // The payload pointer stays valid while pinned: pinned slots are
      // never evicted, and growth never moves existing Slots (deque).
      return {this, tile_index, slot.data.data(), access};
    }

    // Fault: at capacity, evict the stalest tile that is neither pinned nor
    // mid-IO — the walk from the list head skips only pinned/busy slots, so
    // victim selection is O(pins in flight), not O(resident slots).
    std::size_t id = kNoTile;
    if (p.slots.size() >= max_resident_) {
      for (std::size_t s = p.lru_head; s != kNoTile; s = p.slots[s].lru_next) {
        if (p.slots[s].pins == 0 && !p.slots[s].busy) {
          id = s;
          break;
        }
      }
    }
    if (id == kNoTile) {
      // Below capacity — or every resident tile pinned/busy, in which case
      // grow past the budget instead of deadlocking (peak_resident_bytes
      // records it).
      p.slots.emplace_back();
      id = p.slots.size() - 1;
      p.lru_push_back(id);
      p.stats.resident_bytes = p.slots.size() * layout().tile_bytes();
      p.stats.peak_resident_bytes =
          std::max(p.stats.peak_resident_bytes, p.stats.resident_bytes);
    }
    Pager::Slot& slot = p.slots[id];
    const std::size_t old_tile = slot.tile;
    const bool write_back = old_tile != kNoTile && slot.dirty;
    const bool read_back = p.on_disk[tile_index];
    // Claim the slot for the incoming tile; both tenants stay mapped and
    // the slot busy while the mutex is released for the IO, so concurrent
    // checkouts of either tile wait instead of double-faulting.
    slot.busy = true;
    slot.tile = tile_index;
    slot.data.resize(layout().tile_doubles());
    p.resident.emplace(tile_index, id);

    lock.unlock();
    std::exception_ptr io_error;
    bool wrote = false;
    try {
      if (write_back) {
        write_tile(slot.data.data(), old_tile);
        wrote = true;
      }
      if (read_back) {
        read_tile(slot.data.data(), tile_index);
      } else {
        std::fill(slot.data.begin(), slot.data.end(), 0.0);
      }
    } catch (...) {
      io_error = std::current_exception();
    }
    lock.lock();

    slot.busy = false;
    if (wrote) {
      p.on_disk[old_tile] = true;
      p.stats.spill_writes += 1;
      p.stats.bytes_written += layout().tile_bytes();
    }
    if (io_error != nullptr) {
      // Roll back to a consistent map. A failed write-back leaves the old
      // payload intact in the slot — restore the old tenancy (still
      // dirty). Any other failure leaves the slot empty: the old tile is
      // safe on disk (just written, previously written, or logically zero)
      // and the incoming tile was never delivered.
      p.resident.erase(tile_index);
      if (write_back && !wrote) {
        slot.tile = old_tile;
      } else {
        if (old_tile != kNoTile) p.resident.erase(old_tile);
        slot.tile = kNoTile;
        slot.dirty = false;
      }
      p.cv.notify_all();
      std::rethrow_exception(io_error);
    }
    if (old_tile != kNoTile) {
      // Counted only now: a rolled-back fault did not actually evict.
      p.resident.erase(old_tile);
      p.stats.evictions += 1;
    }
    if (read_back) {
      p.stats.spill_reads += 1;
      p.stats.bytes_read += layout().tile_bytes();
    }
    slot.dirty = false;
    slot.pins = 1;
    p.lru_touch(id);
    p.cv.notify_all();
    return {this, tile_index, slot.data.data(), access};
  }
}

void SpillTileStore::commit_index(std::size_t tile_index, TileAccess access) const {
  Pager& p = *pager_;
  const std::scoped_lock lock(p.mutex);
  const auto it = p.resident.find(tile_index);
  EBEM_ENSURE(it != p.resident.end(), "commit of a tile that is not resident");
  Pager::Slot& slot = p.slots[it->second];
  EBEM_ENSURE(slot.pins > 0, "commit of a tile that is not checked out");
  slot.pins -= 1;
  if (access == TileAccess::kWrite) slot.dirty = true;
}

void SpillTileStore::set_zero() {
  Pager& p = *pager_;
  const std::scoped_lock lock(p.mutex);
  for (const Pager::Slot& slot : p.slots) {
    EBEM_ENSURE(slot.pins == 0 && !slot.busy, "set_zero with tiles still checked out");
  }
  p.slots.clear();
  p.resident.clear();
  p.lru_head = kNoTile;
  p.lru_tail = kNoTile;
  // Everything on disk becomes stale; first touch re-materializes zeros.
  std::fill(p.on_disk.begin(), p.on_disk.end(), false);
  p.stats.resident_bytes = 0;
}

std::unique_ptr<TileStore> SpillTileStore::clone() const {
  auto copy = std::make_unique<SpillTileStore>(layout(), config());
  copy_tiles(*this, *copy);
  return copy;
}

TileStoreStats SpillTileStore::stats() const {
  const std::scoped_lock lock(pager_->mutex);
  TileStoreStats s = pager_->stats;
  s.resident_bytes = pager_->slots.size() * layout().tile_bytes();
  return s;
}

// -------------------------------------------------------------- helpers ---

std::unique_ptr<TileStore> make_tile_store(std::size_t n, const StorageConfig& config) {
  validate_storage_config(config, "make_tile_store");
  const TileLayout layout(n, config.tile_size);
  if (config.compression.enabled()) {
    return std::make_unique<CompressedTileStore>(layout, config);
  }
  if (config.residency_budget_bytes > 0) {
    return std::make_unique<SpillTileStore>(layout, config);
  }
  return std::make_unique<InMemoryTileStore>(layout, config);
}

void copy_tiles(const TileStore& src, TileStore& dst) {
  const TileLayout& sl = src.layout();
  const TileLayout& dl = dst.layout();
  EBEM_EXPECT(sl.n() == dl.n(), "copy_tiles requires equal matrix dimensions");
  // Walk destination tiles; for each, stream the overlapping source tiles.
  // One tile of each store is pinned at a time, so the copy itself respects
  // both residency budgets (this is how the Cholesky re-tiles its input).
  for (std::size_t ti = 0; ti < dl.tile_rows(); ++ti) {
    for (std::size_t tj = 0; tj <= ti; ++tj) {
      const TileGuard dguard = dst.checkout(ti, tj, TileAccess::kWrite);
      double* d = dguard.data();
      const std::size_t i0 = dl.row_begin(ti), i1 = dl.row_end(ti);
      const std::size_t j0 = dl.row_begin(tj), j1 = dl.row_end(tj);
      for (std::size_t sp = sl.tile_of(i0); sp <= sl.tile_of(i1 - 1); ++sp) {
        const std::size_t ri0 = std::max(i0, sl.row_begin(sp));
        const std::size_t ri1 = std::min(i1, sl.row_end(sp));
        for (std::size_t sq = sl.tile_of(j0); sq <= std::min(sp, sl.tile_of(j1 - 1)); ++sq) {
          const std::size_t rj0 = std::max(j0, sl.row_begin(sq));
          const std::size_t rj1 = std::min(j1, sl.row_end(sq));
          if (rj0 >= rj1 || ri0 >= ri1) continue;
          const TileGuard sguard = src.checkout(sp, sq, TileAccess::kRead);
          const double* s = sguard.data();
          for (std::size_t i = ri0; i < ri1; ++i) {
            const std::size_t jmax = std::min(rj1, i + 1);  // lower triangle only
            for (std::size_t j = rj0; j < jmax; ++j) {
              d[(i - i0) * dl.tile() + (j - j0)] = s[sl.tile_offset(i, j)];
            }
          }
        }
      }
    }
  }
}

std::vector<double> packed_lower(const TileStore& store) {
  const TileLayout& layout = store.layout();
  const std::size_t n = layout.n();
  std::vector<double> packed(n * (n + 1) / 2, 0.0);
  for (std::size_t ti = 0; ti < layout.tile_rows(); ++ti) {
    for (std::size_t tj = 0; tj <= ti; ++tj) {
      const TileGuard guard = store.checkout(ti, tj, TileAccess::kRead);
      const double* t = guard.data();
      const std::size_t i0 = layout.row_begin(ti), i1 = layout.row_end(ti);
      const std::size_t j0 = layout.row_begin(tj);
      const std::size_t j1 = layout.row_end(tj);
      for (std::size_t i = i0; i < i1; ++i) {
        const std::size_t jmax = std::min(j1, i + 1);
        for (std::size_t j = j0; j < jmax; ++j) {
          packed[i * (i + 1) / 2 + j] = t[(i - i0) * layout.tile() + (j - j0)];
        }
      }
    }
  }
  return packed;
}

}  // namespace ebem::la
