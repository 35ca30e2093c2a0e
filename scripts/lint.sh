#!/usr/bin/env bash
# Static-analysis entry point: qdlint always; clang-tidy when installed.
#
# Usage: scripts/lint.sh [build-dir]
#
# qdlint is the enforced tier-1 gate (also registered in ctest as
# qdlint_clean); clang-tidy is advisory depth on top — it needs
# compile_commands.json, which the build exports automatically
# (CMAKE_EXPORT_COMPILE_COMMANDS).
set -u
BUILD="${1:-build}"
REPO="$(cd "$(dirname "$0")/.." && pwd)"
cd "$REPO"

status=0

# --- qdlint (always) -------------------------------------------------------
QDLINT="$BUILD/tools/qdlint/qdlint"
if [ ! -x "$QDLINT" ]; then
  echo "lint.sh: building qdlint..."
  cmake -B "$BUILD" -S . >/dev/null && cmake --build "$BUILD" -j --target qdlint >/dev/null || {
    echo "lint.sh: failed to build qdlint" >&2
    exit 2
  }
fi
echo "== qdlint =="
# The enforced gate: findings minus the (shrink-only) baseline must be empty.
"$QDLINT" --root "$REPO" --baseline "$REPO/qdlint_baseline.txt" || status=1

# --- clang-tidy (when available) -------------------------------------------
if command -v clang-tidy >/dev/null 2>&1; then
  if [ -f "$BUILD/compile_commands.json" ]; then
    echo "== clang-tidy =="
    # Library + tool sources only; tests/bench inherit fixes through headers.
    mapfile -t tidy_files < <(git ls-files 'src/**/*.cpp' 'tools/**/*.cpp' 'tools/*.cpp')
    if command -v run-clang-tidy >/dev/null 2>&1; then
      run-clang-tidy -quiet -p "$BUILD" "${tidy_files[@]}" || status=1
    else
      clang-tidy -quiet -p "$BUILD" "${tidy_files[@]}" || status=1
    fi
  else
    echo "lint.sh: skipping clang-tidy ($BUILD/compile_commands.json not found; configure first)"
  fi
else
  echo "lint.sh: clang-tidy not installed; ran qdlint only"
fi

exit "$status"
