#!/usr/bin/env bash
# The end-to-end benchmark's one command: builds ebem_e2e (Release, into
# .bench_build/e2e under the repository root), runs the workloads and
# prints, per workload, a detail line and then the result line.
#
#   bash bench/e2e/run.sh [--workload NAME] [--seed S] [--trace 0|1|FILE]
#   bash bench/e2e/run.sh --selftest
#
# Without --workload every workload runs in turn. --trace 1 reports the
# per-layer metrics instead of the end-to-end ones; --trace FILE does the
# same and also writes the spans as Chrome trace-event JSON to FILE.
#
# Each run measures for BENCHMARK.json's run_seconds. `--seconds N` is
# accepted because the calling convention for BENCHMARK.json's command
# passes the window that way, and N must equal run_seconds.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
build="$root/.bench_build/e2e"
workloads=(paper_cold damage_warm soil_cold service_open)

if [[ ! -f "$root/src/ebem.hpp" || ! -f "$root/CMakeLists.txt" ]]; then
  echo "run.sh: the library sources are missing under $root" >&2
  exit 2
fi
if ! command -v cmake > /dev/null; then
  echo "run.sh: cmake is required" >&2
  exit 2
fi
seconds="$(python3 -c 'import json, sys; print(json.load(open(sys.argv[1]))["run_seconds"])' \
           "$root/BENCHMARK.json")"

selftest=0
workload=""
args=()
while [[ $# -gt 0 ]]; do
  case "$1" in
    --selftest) selftest=1; shift ;;
    --workload) workload="${2:?--workload needs a name}"; shift 2 ;;
    --seed|--trace) args+=("$1" "${2:?$1 needs a value}"); shift 2 ;;
    --seconds)
      if [[ "${2:?--seconds needs a value}" != "$seconds" ]]; then
        echo "run.sh: --seconds must be BENCHMARK.json's run_seconds ($seconds)" >&2
        exit 2
      fi
      shift 2 ;;
    *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
  esac
done

mkdir -p "$build"
log="$build/build.log"
if ! { [[ -f "$build/CMakeCache.txt" ]] || cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release; } \
      > "$log" 2>&1 || ! cmake --build "$build" -j 4 --target ebem_e2e >> "$log" 2>&1; then
  tail -n 40 "$log" >&2
  echo "run.sh: build failed (full log: $log)" >&2
  exit 1
fi
binary="$build/ebem_e2e"

if [[ $selftest -eq 1 ]]; then
  "$binary" --selftest
  python3 -B "$here/test_compare.py"
  # The binary's metric names and units must be the ones BENCHMARK.json declares.
  "$binary" --list-metrics | python3 -c '
import json, sys
declared = json.load(open(sys.argv[1]))
emitted = {}
for line in sys.stdin:
    kind, name, unit = line.split()
    emitted.setdefault(kind, {})[name] = unit
ok = True
for kind in ("end_to_end", "per_layer"):
    want = {m["name"]: m["unit"] for m in declared[kind]}
    if want != emitted.get(kind, {}):
        print("selftest FAILED: %s metrics differ from BENCHMARK.json: %s" % (kind,
              sorted(set(want.items()) ^ set(emitted.get(kind, {}).items()))), file=sys.stderr)
        ok = False
if ok:
    print("selftest: metric names and units match BENCHMARK.json")
sys.exit(0 if ok else 1)
' "$root/BENCHMARK.json"
  exit $?
fi

if [[ -n "$workload" ]]; then
  exec "$binary" --workload "$workload" --seconds "$seconds" "${args[@]}"
fi
status=0
for name in "${workloads[@]}"; do
  "$binary" --workload "$name" --seconds "$seconds" "${args[@]}" || status=1
done
exit $status
