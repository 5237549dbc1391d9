#!/usr/bin/env sh
# Runs the repo's headline benchmarks — the full-sweep simulation behind
# Table 2 and Figs 8-14 (BenchmarkSweep), the cluster-scale scheduler
# (BenchmarkFleet), and the fleet-scale points (BenchmarkFleetScale: 1k
# hosts x 100k invocations and 10k hosts x 1M invocations on the indexed
# engine; BenchmarkFleetScaleRef: the 1k point on the retained
# reference-scan engine, the baseline for the index speedup) — and writes
# the timings to BENCH_sweep.json.
#
# Usage: scripts/bench_sweep.sh [count]
#   count  benchmark repetitions (default 3)
#
# Environment:
#   COUNT      repetitions (overridden by the positional arg)
#   BENCH      benchmark regex to run
#              (default ^(BenchmarkSweep|BenchmarkFleet|BenchmarkFleetScale|BenchmarkFleetScaleRef)$)
#   BENCH_OUT  output file (default BENCH_sweep.json)
#
# When the output file already exists, each benchmark's previous mean is
# carried into the new file's delta_vs_previous field ((new-old)/old;
# negative = faster; omitted rather than NaN when no valid previous mean
# exists). Files from the old single-benchmark format are read the same
# way. min_ns_per_op records the fastest sample — the noise-robust number
# to compare across runs on shared hosts. Each fleet benchmark sample is
# the fastest run of its own internal batch; no minimum is carried between
# -count repetitions, so the samples are independent and their mean and
# spread are meaningful.
set -eu

cd "$(dirname "$0")/.."
COUNT="${1:-${COUNT:-3}}"
BENCH="${BENCH:-^(BenchmarkSweep|BenchmarkFleet|BenchmarkFleetScale|BenchmarkFleetScaleRef)\$}"
OUT="${BENCH_OUT:-BENCH_sweep.json}"
RAW="$(mktemp)"
PREV="$(mktemp)"
trap 'rm -f "$RAW" "$PREV"' EXIT

# Previous means, one "name mean" pair per line (works for both the current
# {"benchmarks": [...]} layout and the old single-object layout).
if [ -f "$OUT" ]; then
  awk -F'"' '
    /"benchmark":/ { b = $4 }
    /"mean_ns_per_op":/ { line = $0; gsub(/[^0-9]/, "", line); if (b != "") print b, line }
  ' "$OUT" > "$PREV"
fi

go test -bench="$BENCH" -benchtime=1x -run='^$' -count="$COUNT" . | tee "$RAW"

awk -v prevfile="$PREV" '
  BEGIN {
    while ((getline line < prevfile) > 0) {
      split(line, f, " ")
      prevmean[f[1]] = f[2]
    }
  }
  /^Benchmark/ {
    name = $1
    sub(/-[0-9]+$/, "", name)
    if (!(name in seen)) { seen[name] = 1; order[++m] = name }
    ns[name, cnt[name]++] = $3
  }
  /^cpu:/ { sub(/^cpu: /, ""); cpu = $0 }
  END {
    if (m == 0) { print "bench_sweep: no benchmark results" > "/dev/stderr"; exit 1 }
    printf "{\n"
    printf "  \"cpu\": \"%s\",\n", cpu
    printf "  \"benchmarks\": [\n"
    for (j = 1; j <= m; j++) {
      name = order[j]
      n = cnt[name]
      sum = 0
      min = ns[name, 0] + 0
      for (i = 0; i < n; i++) {
        sum += ns[name, i]
        if (ns[name, i] + 0 < min) min = ns[name, i] + 0
      }
      mean = sum / n
      printf "    {\n"
      printf "      \"benchmark\": \"%s\",\n", name
      printf "      \"count\": %d,\n", n
      printf "      \"ns_per_op\": ["
      for (i = 0; i < n; i++) printf "%s%s", ns[name, i], (i < n-1 ? ", " : "")
      printf "],\n"
      printf "      \"mean_ns_per_op\": %.0f,\n", mean
      printf "      \"min_ns_per_op\": %.0f,\n", min
      if (name in prevmean && prevmean[name] + 0 > 0 && mean == mean) {
        printf "      \"delta_vs_previous\": %.4f,\n", (mean - prevmean[name]) / prevmean[name]
      }
      printf "      \"mean_seconds\": %.3f\n", mean / 1e9
      printf "    }%s\n", (j < m ? "," : "")
    }
    printf "  ]\n"
    printf "}\n"
  }
' "$RAW" > "$OUT"

echo "wrote $OUT"
