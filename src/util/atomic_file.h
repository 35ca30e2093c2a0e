// Atomic whole-file replacement for write-once (non-store) outputs.
//
// A plain truncating ofstream write has a torn-write hole: a crash between
// open and the final flush leaves a half-written file AND has already
// destroyed the previous contents. write_file_atomic closes that hole for
// every whole-file artifact (trace dumps, metrics JSON, lint baselines):
// it writes `<path>.tmp`, fsyncs it, then renames it over `path` — readers
// only ever observe the old complete file or the new complete file, never a
// prefix. Checkpoints and other keyed, incrementally-updated state go
// through src/store instead.
#pragma once

#include <cstdint>
#include <span>
#include <string>

namespace quickdrop {

/// Durably replaces `path` with `bytes` via write-to-temp + fsync + rename.
/// Throws std::runtime_error (with errno detail) on any I/O failure; on
/// failure `path` is untouched (a stale `<path>.tmp` may remain).
void write_file_atomic(const std::string& path, std::span<const std::uint8_t> bytes);

/// Text overload (same guarantees; bytes are written verbatim, no newline
/// translation).
void write_file_atomic(const std::string& path, const std::string& text);

}  // namespace quickdrop
