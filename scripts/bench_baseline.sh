#!/bin/sh
# Regenerates a committed benchmark data point from the executor
# benchmarks. With no arguments it produces BENCH_baseline.json (the
# full-study executor baseline); with a bench regex and a note it
# produces any other data point — the store cold/warm comparison is:
#
#	sh scripts/bench_baseline.sh \
#	  'BenchmarkStudyStoreCold$|BenchmarkStudyStoreWarm$' \
#	  'cold = full compute + serialize into a fresh on-disk store; warm = whole-study decode from the store, no simulation; compare the cold/warm ratio, not absolutes' \
#	  > BENCH_store.json
#
# and the fleet local-fallback overhead point (an attached-but-empty
# coordinator must sit within noise of the plain runner) is:
#
#	sh scripts/bench_baseline.sh \
#	  'BenchmarkRunnerStudyCold$|BenchmarkFleetLocalFallback$' \
#	  'fallback = runner-cold workload with a fleet coordinator attached and zero workers registered; every unit offload takes the no-live-workers fast path; compare against runner-cold, acceptance is <2% overhead' \
#	  > BENCH_fleet.json
#
# Each entry carries a peak_rss_kb axis (the bench process's VmHWM, via
# reportPeakRSS in bench_test.go; 0 where a benchmark does not report
# it). VmHWM is process-wide and monotone, so the number is only
# meaningful for benchmarks run in isolation — which is exactly how the
# regexes above slice them.
#
# A third argument narrows (or widens) the package list; the default
# covers the root executor benchmarks plus the hot-path microbenches
# (trace log, draw streams) so the committed baseline pins both layers.
#
# Run from the repo root:
#
#	sh scripts/bench_baseline.sh > BENCH_baseline.json
#
# Keep regenerations deliberate (new hardware, or a change that moves the
# numbers on purpose) and note the machine in the "host" field.
set -e

pattern="${1:-BenchmarkFullStudy\$|BenchmarkUnitPrecompute|BenchmarkTraceLog|BenchmarkStreamDraws}"
note="${2:-full-study executor wall-clock baseline; ns_per_op medians move with hardware — compare shapes, not absolutes}"
packages="${3:-. ./internal/trace ./internal/sim}"

# The note reaches awk via the environment (awk -v mangles backslash
# escapes) and is JSON-escaped before interpolation.
BENCH_NOTE="$note"
export BENCH_NOTE
# $packages is intentionally unquoted: it is a space-separated list.
go test -run XXX -bench "$pattern" -benchtime=10x -benchmem $packages 2>/dev/null |
awk '
BEGIN {
	note = ENVIRON["BENCH_NOTE"]
	gsub(/\\/, "&&", note) # & = the matched backslash; && doubles it
	gsub(/"/, "\\\"", note)
	printf "{\n"
	printf "  \"note\": \"%s\",\n", note
	"date -u +%Y-%m-%dT%H:%M:%SZ" | getline d
	printf "  \"recorded\": \"%s\",\n", d
	"go env GOOS" | getline os
	"go env GOARCH" | getline arch
	"nproc" | getline cores
	printf "  \"host\": {\"goos\": \"%s\", \"goarch\": \"%s\", \"cpus\": %s},\n", os, arch, cores
	printf "  \"benchmarks\": [\n"
	first = 1
}
/^Benchmark/ {
	# With -benchmem every line carries a B/op and allocs/op column —
	# the memory axis ROADMAP asks for rides along on every data point.
	# Custom metrics (ReportMetric: "runs", "units") shift the columns,
	# so locate each value by the unit token that follows it.
	name = $1
	sub(/-[0-9]+$/, "", name)
	bytes = 0; allocs = 0; rss = 0
	for (i = 3; i < NF; i++) {
		if ($(i + 1) == "B/op") bytes = $i
		if ($(i + 1) == "allocs/op") allocs = $i
		if ($(i + 1) == "peakRSS-kB") rss = $i
	}
	if (!first) printf ",\n"
	first = 0
	printf "    {\"name\": \"%s\", \"iterations\": %s, \"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s, \"peak_rss_kb\": %s}", name, $2, $3, bytes, allocs, rss
}
END {
	printf "\n  ]\n}\n"
}'
