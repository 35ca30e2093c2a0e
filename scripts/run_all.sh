#!/usr/bin/env bash
# Regenerates every paper table/figure plus the test report.
# Usage: scripts/run_all.sh [build-dir]
set -u
BUILD="${1:-build}"
REPO="$(cd "$(dirname "$0")/.." && pwd)"
cd "$REPO"

ctest --test-dir "$BUILD" 2>&1 | tee test_output.txt

# Static-analysis pass: qdlint (and clang-tidy when installed) runs before
# the sanitizer rebuilds — it is the cheapest gate, so it fails fastest.
scripts/lint.sh "$BUILD" 2>&1 | tee lint_output.txt
echo "lint pass exit: ${PIPESTATUS[0]}" | tee -a lint_output.txt

# Runs every named test binary of build dir $1 (the rest of the args), each
# one even after an earlier one failed, and fails if any of them failed.
run_each() {
  local dir="$1" failed=0
  shift
  for t in "$@"; do
    echo "== $t"
    "$dir/tests/$t" || { echo "FAILED: $t"; failed=1; }
  done
  return "$failed"
}

# Sanitizer pass: rebuild the fault-tolerance-critical suites (fl + core),
# the tensor kernels and the autograd graph (uninitialized kernel outputs
# and inline graph-node parents are exactly what ASan must see), plus the
# crash-safe store (engine fuzz + kill-point sweep — the recovery scan
# parses attacker-controlled bytes, exactly where UB would hide) with
# ASan/UBSan and run the binaries directly. UBSan reports abort the binary,
# so any report fails the pass.
SAN_BUILD="${BUILD}-asan"
SAN_TESTS=(fl_test nn_test core_test util_test tensor_test autograd_test store_test
  store_crash_sweep_test lint_test lint_driver_test net_test)
{
  cmake -B "$SAN_BUILD" -S . -DQUICKDROP_SANITIZE="address;undefined" \
    -DCMAKE_CXX_FLAGS="-fno-sanitize-recover=undefined" &&
  cmake --build "$SAN_BUILD" -j --target "${SAN_TESTS[@]}" &&
  run_each "$SAN_BUILD" "${SAN_TESTS[@]}"
} 2>&1 | tee sanitizer_output.txt
echo "sanitizer pass exit: ${PIPESTATUS[0]}" | tee -a sanitizer_output.txt

# ThreadSanitizer pass: rebuild the suites that exercise the thread pool,
# parallel kernels, concurrent client rounds and the request service's
# parallel cycles, and run them with an oversubscribed pool so worker
# interleavings actually happen.
TSAN_BUILD="${BUILD}-tsan"
TSAN_TESTS=(util_test tensor_test nn_test fl_test serve_test net_test)
{
  cmake -B "$TSAN_BUILD" -S . -DQUICKDROP_SANITIZE="thread" &&
  cmake --build "$TSAN_BUILD" -j --target "${TSAN_TESTS[@]}" &&
  QUICKDROP_THREADS=4 run_each "$TSAN_BUILD" "${TSAN_TESTS[@]}"
} 2>&1 | tee tsan_output.txt
echo "tsan pass exit: ${PIPESTATUS[0]}" | tee -a tsan_output.txt

# Request-service replay check: a short trained checkpoint + generated trace,
# replayed at 1 and 4 threads — the service's metrics JSON and the final
# model checkpoint must both be bitwise identical (see DESIGN.md §10).
{
  SERVE_DIR="$(mktemp -d)"
  "$BUILD"/tools/quickdrop_cli train --dataset mnist --clients 4 --rounds 5 --width 8 \
    --out "$SERVE_DIR/model.qdcp" &&
  "$BUILD"/tools/quickdrop_cli serve --checkpoint "$SERVE_DIR/model.qdcp" \
    --requests 4 --arrival-rate 10 --policy coalesce --sec-per-round 40 \
    --dump-trace "$SERVE_DIR/trace.txt" --json "$SERVE_DIR/replay1.json" \
    --out "$SERVE_DIR/served1.qdcp" --threads 1 &&
  "$BUILD"/tools/quickdrop_cli serve --checkpoint "$SERVE_DIR/model.qdcp" \
    --trace "$SERVE_DIR/trace.txt" --policy coalesce --sec-per-round 40 \
    --json "$SERVE_DIR/replay4.json" --out "$SERVE_DIR/served4.qdcp" --threads 4 &&
  cmp "$SERVE_DIR/replay1.json" "$SERVE_DIR/replay4.json" &&
  cmp "$SERVE_DIR/served1.qdcp" "$SERVE_DIR/served4.qdcp" &&
  echo "serve replay: metrics + model bitwise identical at 1 vs 4 threads" &&
  # Network front-end gate: the same trace through the loopback transport
  # (wire frames + acks + report frame) must land on the same model, and the
  # report must be identical outside the out-of-band wire/net overlay lines
  # (see DESIGN.md §15).
  "$BUILD"/tools/quickdrop_cli serve --checkpoint "$SERVE_DIR/model.qdcp" \
    --trace "$SERVE_DIR/trace.txt" --policy coalesce --sec-per-round 40 \
    --transport loopback --wire-bandwidth 1000000 \
    --json "$SERVE_DIR/loopback.json" --out "$SERVE_DIR/served_loop.qdcp" --threads 4 &&
  cmp "$SERVE_DIR/served1.qdcp" "$SERVE_DIR/served_loop.qdcp" &&
  diff <(grep -v -e '"transport"' -e '"wire_' -e '"net_' "$SERVE_DIR/replay1.json") \
       <(grep -v -e '"transport"' -e '"wire_' -e '"net_' "$SERVE_DIR/loopback.json") &&
  echo "loopback replay: model bitwise identical, report identical modulo wire overlay"
  rm -rf "$SERVE_DIR"
} 2>&1 | tee serve_replay_output.txt
echo "serve replay exit: ${PIPESTATUS[0]}" | tee -a serve_replay_output.txt

: > bench_output.txt
for b in "$BUILD"/bench/*; do
  [ -x "$b" ] && [ -f "$b" ] || continue
  echo "##### $(basename "$b") #####" | tee -a bench_output.txt
  "$b" 2>&1 | tee -a bench_output.txt
  echo | tee -a bench_output.txt
done

# The state-ops microbenchmark (bench/ext_state_ops) writes its JSON into the
# working directory; the sweep above must have produced it (flat vs per-tensor
# representation, streaming weighted-average thread scaling — see DESIGN.md §11).
if [ -f BENCH_state_ops.json ]; then
  echo "state-ops bench: BENCH_state_ops.json written" | tee -a bench_output.txt
else
  echo "state-ops bench: MISSING BENCH_state_ops.json" | tee -a bench_output.txt
fi

# Likewise the substrate microbenchmark (bench/micro_ops): kernel/autograd
# unit costs plus the scalar-vs-SIMD matmul dispatch columns (DESIGN.md §13).
if [ -f BENCH_micro_ops.json ]; then
  echo "micro-ops bench: BENCH_micro_ops.json written" | tee -a bench_output.txt
else
  echo "micro-ops bench: MISSING BENCH_micro_ops.json" | tee -a bench_output.txt
fi

# Likewise the store microbenchmark (bench/ext_store): commit/recover/vacuum
# throughput and round-over-round checkpoint saves — see DESIGN.md §12.
if [ -f BENCH_store.json ]; then
  echo "store bench: BENCH_store.json written" | tee -a bench_output.txt
else
  echo "store bench: MISSING BENCH_store.json" | tee -a bench_output.txt
fi

# Likewise the network front-end bench (bench/ext_net): wire-codec frame
# sizes plus the loopback-vs-inproc identity verdicts — see DESIGN.md §15.
if [ -f BENCH_net.json ]; then
  echo "net bench: BENCH_net.json written" | tee -a bench_output.txt
else
  echo "net bench: MISSING BENCH_net.json" | tee -a bench_output.txt
fi

# Likewise the aggregation scale sweep (bench/ext_aggregate_scale): streaming
# aggregation peak memory vs cohort size, plus the 1-vs-4-thread bitwise
# invariance verdict — see DESIGN.md §16.
if [ -f BENCH_aggregate_scale.json ]; then
  echo "aggregate-scale bench: BENCH_aggregate_scale.json written" | tee -a bench_output.txt
else
  echo "aggregate-scale bench: MISSING BENCH_aggregate_scale.json" | tee -a bench_output.txt
fi
