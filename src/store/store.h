// Crash-safe single-file key/value store for durable QuickDrop state.
//
// One store file holds every durable artifact of a deployment — full
// checkpoints (each carrying every client's synthetic store), mid-request
// unlearn cursors, round-level training cursors — as records keyed by
// (StateLayout hash, record kind, round/request cursor). On disk the file is
// an append-only sequence of fixed-size CRC'd pages (store/pager.h):
//
//   transaction = [data pages...][index pages][commit page]
//
// A commit is two-phase: (1) append the new data pages and a full index
// snapshot, fsync; (2) append a single commit page naming the index snapshot
// (sequence number, page range, byte length, CRC64), fsync. Recovery-on-open
// scans BACKWARD from the end of the file to the youngest commit page whose
// checksum verifies AND whose entire reachable state (index pages, every
// record's data pages, every record's value CRC) verifies, then discards the
// torn tail. A crash — or a torn write, or a flipped bit — at ANY byte
// offset therefore reopens to exactly the last fully-committed state; the
// kill-point harness in tests/store/crash_sweep_test.cpp sweeps every write
// and fsync of a multi-commit sequence to prove it.
//
// Identical page contents are stored once (content-digest dedup), so e.g.
// round-level checkpoints whose synthetic stores did not change between
// rounds share those pages across commits. vacuum() rewrites the live
// records into a fresh file and atomically renames it over the store,
// reclaiming dead pages. See DESIGN.md §12 for the full format.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "store/io.h"
#include "store/pager.h"

namespace quickdrop::store {

/// Record key: which deployment (layout hash), what kind of record, and the
/// position in that record stream (round index, request cursor, client id —
/// kind-specific). Kinds are opaque to the store; quickdrop's assignments
/// live in core/checkpoint.h.
struct Key {
  std::uint64_t layout_hash = 0;
  std::uint32_t kind = 0;
  std::uint64_t cursor = 0;

  friend bool operator<(const Key& a, const Key& b) {
    if (a.layout_hash != b.layout_hash) return a.layout_hash < b.layout_hash;
    if (a.kind != b.kind) return a.kind < b.kind;
    return a.cursor < b.cursor;
  }
  friend bool operator==(const Key& a, const Key& b) {
    return a.layout_hash == b.layout_hash && a.kind == b.kind && a.cursor == b.cursor;
  }
};

struct StoreStats {
  std::uint64_t committed_seq = 0;  ///< 0 = nothing committed yet
  std::uint64_t file_pages = 0;     ///< pages the file holds
  std::uint64_t live_pages = 0;     ///< unique pages reachable from the index
  std::uint64_t records = 0;
};

struct VacuumStats {
  std::uint64_t pages_before = 0;
  std::uint64_t pages_after = 0;
  [[nodiscard]] std::int64_t bytes_reclaimed() const {
    return (static_cast<std::int64_t>(pages_before) - static_cast<std::int64_t>(pages_after)) *
           static_cast<std::int64_t>(kPageSize);
  }
};

class Store {
 public:
  /// Opens (creating if absent) the store at `path`, running recovery: the
  /// youngest fully-verifiable commit wins, torn tails are discarded. Every
  /// file handle — including vacuum scratch files and reopen-after-vacuum —
  /// is created through `factory`, so tests can interpose FaultyIo at any
  /// point. Throws StoreError on unrecoverable I/O failure (corruption is
  /// recovered from, not thrown).
  explicit Store(std::string path, IoFactory factory = file_io_factory());

  Store(const Store&) = delete;
  Store& operator=(const Store&) = delete;
  Store(Store&&) = default;
  Store& operator=(Store&&) = default;

  /// Stages `value` under `key` (replacing any previous value). Pages are
  /// appended immediately; the entry becomes durable at the next commit().
  void put(const Key& key, std::span<const std::uint8_t> value);

  [[nodiscard]] bool contains(const Key& key) const { return index_.count(key) > 0; }

  /// Reads a record back, verifying every page CRC and the whole-value CRC.
  /// Throws StoreError when absent or corrupt.
  [[nodiscard]] std::vector<std::uint8_t> get(const Key& key);

  /// Removes `key` from the index (durable at the next commit). Returns
  /// whether it was present. Dead pages are reclaimed by vacuum().
  bool erase(const Key& key);

  /// Two-phase commit of all staged changes: data+index fsync, then commit
  /// record fsync. After commit() returns, the state survives any crash.
  void commit();

  /// All keys, sorted.
  [[nodiscard]] std::vector<Key> keys() const;

  /// The highest-cursor key with this (layout_hash, kind), if any — "the
  /// latest checkpoint", "the latest unlearn cursor".
  [[nodiscard]] std::optional<Key> latest(std::uint64_t layout_hash, std::uint32_t kind) const;

  /// Rewrites live records into `<path>.vacuum`, fsyncs, atomically renames
  /// it over the store and reopens. A crash before the rename leaves the
  /// original store untouched. Uncommitted staged changes are committed
  /// first.
  VacuumStats vacuum();

  [[nodiscard]] StoreStats stats();
  [[nodiscard]] std::uint64_t committed_seq() const { return seq_; }
  [[nodiscard]] const std::string& path() const { return path_; }

  /// True when `path` exists and starts with the store page magic —
  /// distinguishes store files from any other file without creating or
  /// modifying it. A prefix of the magic (a first-page torn write) also
  /// counts.
  static bool sniff(const std::string& path);

 private:
  struct Entry {
    std::uint64_t value_len = 0;
    std::uint64_t value_crc = 0;
    std::vector<std::uint64_t> pages;
  };
  /// Content digest of one page payload; equal digests => identical content
  /// for dedup purposes (128 bits of independent checksum + the length).
  struct Digest {
    std::uint64_t crc = 0;
    std::uint64_t fnv = 0;
    std::uint64_t len = 0;
    friend bool operator<(const Digest& a, const Digest& b) {
      if (a.crc != b.crc) return a.crc < b.crc;
      if (a.fnv != b.fnv) return a.fnv < b.fnv;
      return a.len < b.len;
    }
  };

  void open();
  /// Tries to adopt the commit page at `id`; returns false when anything
  /// reachable from it fails verification.
  bool try_recover_commit(std::uint64_t id);
  std::vector<std::uint8_t> read_value(const Entry& entry);
  std::uint64_t append_chunk(std::span<const std::uint8_t> chunk);

  std::string path_;
  IoFactory factory_;
  std::unique_ptr<Io> io_;
  std::unique_ptr<Pager> pager_;
  std::map<Key, Entry> index_;
  std::map<Digest, std::uint64_t> dedup_;
  std::uint64_t seq_ = 0;
};

}  // namespace quickdrop::store
