#!/usr/bin/env bash
# Unshipped-code check: every out-of-line librex function must be run by a
# shipped binary (every bench, every example, rex_node, and the benchmark's
# rexbench_workload), or be listed with a reason in
# scripts/unshipped_allowlist.txt (one `symbol  # reason` per line).
#
# Method: a throwaway -O0 build with one section per function, linked with
# --gc-sections, so a binary keeps exactly the functions it can reach.
# rexbench/workload.cpp is compiled against that build's librex.a and is only
# read. The `rex::...(` text symbols librex.a defines, minus those any
# binary keeps, are the unshipped functions. An allowlist entry that is no
# longer unshipped fails too, so the list cannot rot. Needs cmake, ninja,
# google-benchmark (the micro benches count) and binutils' nm; the build
# takes about a minute on 4 vCPUs and goes under $TMPDIR, removed on exit.
set -euo pipefail
export LC_ALL=C  # one collation for sort and comm
root=$(cd "$(dirname "$0")/.." && pwd)
allowlist="$root/scripts/unshipped_allowlist.txt"

build=$(mktemp -d "${TMPDIR:-/tmp}/rex-unshipped.XXXXXX")
trap 'rm -rf "$build"' EXIT

flags="-O0 -ffunction-sections -fdata-sections"
cmake -S "$root" -B "$build" -G Ninja -DCMAKE_BUILD_TYPE=Debug \
  -DCMAKE_CXX_FLAGS_DEBUG="$flags" \
  -DCMAKE_EXE_LINKER_FLAGS="-Wl,--gc-sections" > "$build/configure.log"

targets=(rex_node)
for source in "$root"/bench/bench_*.cpp "$root"/examples/*.cpp; do
  name=$(basename "$source" .cpp)
  [ "$name" = bench_common ] || targets+=("$name")
done
cmake --build "$build" --target "${targets[@]}" > "$build/build.log" ||
  { tail -n 40 "$build/build.log" >&2; exit 1; }

cxx=$(sed -n 's/^CMAKE_CXX_COMPILER:[A-Z]*=//p' "$build/CMakeCache.txt")
"$cxx" -std=c++20 $flags -I"$root/src" "$root/rexbench/workload.cpp" \
  "$build/librex.a" -Wl,--gc-sections -pthread -o "$build/rexbench_workload"
targets+=(rexbench_workload)

rex_functions() {  # demangled `rex::...(` names of text symbols (T, t, W)
  nm -C --defined-only "$@" | awk '$2 ~ /^[TtW]$/' | cut -d' ' -f3- |
    grep -E '^rex::[^ (]*\(' | sort -u
}
rex_functions "$build/librex.a" > "$build/defined.txt"
for target in "${targets[@]}"; do
  nm -C --defined-only "$build/$target" | cut -d' ' -f3-
done | sort -u > "$build/kept.txt"
comm -23 "$build/defined.txt" "$build/kept.txt" > "$build/unshipped.txt"

status=0
sed -E '/^[[:space:]]*(#|$)/d' "$allowlist" > "$build/entries.txt"
if grep -vE '[^ ]  # [^ ]' "$build/entries.txt"; then
  echo "FAIL: allowlist entries above give no reason (\`symbol  # reason\`)" >&2
  status=1
fi
sed 's/  # .*//' "$build/entries.txt" | sort -u > "$build/allowed.txt"

unlisted=$(comm -23 "$build/unshipped.txt" "$build/allowed.txt")
if [ -n "$unlisted" ]; then
  printf '%s\n' "$unlisted"
  echo "FAIL: $(printf '%s\n' "$unlisted" | wc -l) librex function(s) above" \
    "are run by no shipped binary: delete them, or allowlist them with a" \
    "reason in scripts/unshipped_allowlist.txt" >&2
  status=1
fi
stale=$(comm -13 "$build/unshipped.txt" "$build/allowed.txt")
if [ -n "$stale" ]; then
  printf '%s\n' "$stale"
  echo "FAIL: allowlist entries above are no longer unshipped librex" \
    "functions: remove them" >&2
  status=1
fi

[ "$status" -eq 0 ] &&
  echo "OK: $(wc -l < "$build/defined.txt") librex functions," \
    "$(wc -l < "$build/allowed.txt") allowlisted as unshipped"
exit "$status"
