// Shared fixed-size thread pool behind every parallel code path.
//
// One process-wide pool (ThreadPool::global()) executes both kernel-level
// work (parallel_for over tensor elements/rows) and federation-level work
// (concurrent client rounds). The pool size is `--threads` /
// QUICKDROP_THREADS / hardware_concurrency, in that precedence; a size of 1
// is a guaranteed serial fallback that runs every task inline on the caller.
//
// Determinism contract: the pool only decides *which thread* runs a chunk,
// never how a chunk is cut. parallel_for uses static range partitioning that
// callers make value-independent (each output element is produced by exactly
// one chunk, with a fixed per-element operation order), so results are
// bit-identical at any thread count. Work submitted from inside a pool
// worker runs inline (no nested fan-out, no deadlock).
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>

namespace quickdrop {

class ThreadPool {
 public:
  /// A pool with `threads` total executors (the submitting thread counts as
  /// one; `threads - 1` background workers are spawned). Requires >= 1.
  explicit ThreadPool(int threads);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total executors (background workers + the caller).
  [[nodiscard]] int threads() const { return threads_; }

  /// Invokes fn(0) .. fn(n-1), distributed across the pool; blocks until all
  /// calls returned. The caller participates. With one executor, from inside
  /// a pool worker, or when n <= 1, the calls run serially in index order.
  /// The first exception thrown by any fn is rethrown on the caller.
  void run_chunks(int n, const std::function<void(int)>& fn);

  /// Splits [begin, end) into at most threads() contiguous chunks of at
  /// least `grain` items each and invokes fn(chunk_begin, chunk_end) for
  /// every chunk across the pool. Chunk boundaries depend only on the range,
  /// the grain and the pool size — callers needing bit-identical results at
  /// any thread count must make fn's output independent of the cut (pure
  /// maps and per-element reductions are; see kernels.cpp).
  ///
  /// One chunk (count <= max(grain, 1)), a one-thread pool, or a call from
  /// inside a pool worker calls fn(begin, end) directly, with no type
  /// erasure. This is the only serial rule; only the fan-out of two or more
  /// chunks goes through std::function.
  template <typename Fn>
  void parallel_for(std::int64_t begin, std::int64_t end, std::int64_t grain, Fn&& fn) {
    const std::int64_t count = end - begin;
    if (count <= 0) return;
    if (count <= std::max<std::int64_t>(grain, 1) || threads_ == 1 || in_worker()) {
      fn(begin, end);
      return;
    }
    split(begin, end, grain, std::ref(fn));
  }

  /// The process-wide pool. Created on first use, sized by set_num_threads()
  /// if called earlier, else QUICKDROP_THREADS, else hardware_concurrency.
  static ThreadPool& global();

 private:
  /// True on pool workers, and on a caller while it drains its own group.
  static bool in_worker();

  /// The fan-out half of parallel_for: at least two chunks of `grain`.
  void split(std::int64_t begin, std::int64_t end, std::int64_t grain,
             const std::function<void(std::int64_t, std::int64_t)>& fn);

  struct Impl;
  std::unique_ptr<Impl> impl_;
  int threads_;
};

/// Resizes the global pool (recreating it). Not safe while parallel work is
/// in flight; intended for process startup and tests.
void set_num_threads(int threads);

/// Size of the global pool (creating it with the default size if needed).
int num_threads();

/// Applies the QUICKDROP_THREADS environment variable, if set and a valid
/// positive integer (invalid values are ignored). Called by the CLI at
/// startup, mirroring set_log_level_from_env().
void set_threads_from_env();

/// Chunk size such that each chunk carries at least ~16k units of work:
/// grain_for(cost_per_item) items per chunk. Keeps tiny tensors serial.
[[nodiscard]] std::int64_t grain_for(std::int64_t cost_per_item);

}  // namespace quickdrop
