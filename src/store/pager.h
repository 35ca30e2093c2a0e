// Append-only pager: fixed-size, CRC'd pages over an Io backend.
//
// The file is an array of 4 KiB pages. Each page carries a 32-byte header
// (magic, kind, its own page id, payload length, CRC64 over header fields +
// payload) followed by up to kPagePayload bytes of payload. Pages are only
// ever APPENDED while a store is live — committed pages are immutable, so a
// crash can tear at most the un-committed tail, and recovery (store.cpp)
// simply scans back to the last commit page whose checksum and references
// verify. Torn or dead tail pages are overwritten by later appends.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "store/io.h"

namespace quickdrop::store {

inline constexpr std::uint32_t kPageSize = 4096;
inline constexpr std::uint32_t kPageHeaderSize = 32;
inline constexpr std::uint32_t kPagePayload = kPageSize - kPageHeaderSize;
/// "QDPG" little-endian; doubles as the store-format sniff byte sequence.
inline constexpr std::uint32_t kPageMagic = 0x47504451;

enum class PageKind : std::uint32_t {
  kData = 1,    ///< a chunk of a record value
  kIndex = 2,   ///< a chunk of a serialized index snapshot
  kCommit = 3,  ///< a commit record (one page, closes a transaction)
};

/// One validated page read back from the file.
struct Page {
  PageKind kind = PageKind::kData;
  std::vector<std::uint8_t> payload;
};

class Pager {
 public:
  /// `io` must outlive the pager; the pager does not own it.
  explicit Pager(Io& io) : io_(&io) {}

  /// Number of whole pages the backing file holds (a trailing partial page —
  /// a torn append — is ignored).
  [[nodiscard]] std::uint64_t file_pages();

  /// Next page id an append will receive.
  [[nodiscard]] std::uint64_t next_page() const { return next_page_; }

  /// Recovery hook: future appends start at `page` (everything at or after it
  /// is dead tail to be overwritten).
  void set_next_page(std::uint64_t page) { next_page_ = page; }

  /// Appends one page; payload.size() must be <= kPagePayload (zero-padded on
  /// disk). Returns the new page id. NOT durable until sync().
  std::uint64_t append(PageKind kind, std::span<const std::uint8_t> payload);

  /// Reads and validates page `id`: bounds, magic, stored-id match, kind tag,
  /// payload length, CRC64. Throws StoreError on any mismatch — a torn or
  /// bit-flipped page is always a typed error, never garbage payload.
  [[nodiscard]] Page read(std::uint64_t id);

  /// Like read() but also requires the page kind to be `expected`.
  [[nodiscard]] std::vector<std::uint8_t> read_expect(std::uint64_t id, PageKind expected);

  void sync() { io_->sync(); }

 private:
  Io* io_;
  std::uint64_t next_page_ = 0;
};

}  // namespace quickdrop::store
