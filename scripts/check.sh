#!/usr/bin/env bash
# CI gate: vet, formatting, the full test suite under the race detector,
# a benchmark pass over the instrumented hot paths whose results land in
# BENCH_obs.json so successive PRs leave a perf trajectory, and a short
# ugload run whose BENCH_load.json gates query-plane p99 latency.
#
# Environment knobs:
#   BENCHTIME          go test -benchtime value for the perf pass (default 1s)
#   OBS_OVERHEAD_GUARD set to 1 to also enforce the <=2% observability
#                      overhead budget, serve mode included: the snapshot
#                      differ, the runtime/metrics sampler and continuous
#                      /metrics + /trace scraping all run during the
#                      measurement (wall-clock sensitive; off by default)
#   SKIP_BENCH_GATE    set to 1 to skip the benchcmp regression gate
#   BENCH_MAX_SLOWDOWN allowed ns/op growth percentage vs the committed
#                      baseline (default 25)
#   COVERAGE_FLOOR     minimum total statement coverage percentage
#                      (default 78.4, the measured seed baseline)
#   FUZZ_BUDGET        go test -fuzztime per fuzz target for the smoke
#                      pass (default 5s; set to 0 to skip fuzzing)
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== go vet =="
go vet ./...

echo "== go vet + go test (bench/ module) =="
# bench/ is its own module (it replaces chameleon with ../), so the root
# go vet/go test never visit it. Building it here catches an internal/
# change that breaks the end-to-end benchmark before the benchmark runs.
(cd bench && go vet ./... && go test .)

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== no test oracles in production binaries =="
# internal/testkit and internal/exact are brute-force references for the
# tests; the facade, the commands and the examples must not link them.
# internal/certify re-verifies what internal/privacy computes, so it must
# not import internal/privacy either.
oracles=$(go list -deps . ./cmd/... ./examples/... | grep -xE 'chameleon/internal/(testkit|exact)' || true)
if [ -n "$oracles" ]; then
    echo "production packages import test oracles:" >&2
    echo "$oracles" >&2
    exit 1
fi
if go list -deps ./internal/certify | grep -qx 'chameleon/internal/privacy'; then
    echo "internal/certify imports internal/privacy, the code it re-verifies" >&2
    exit 1
fi

echo "== no fused multiply-add (arm64 cross-build) =="
# Go may fuse x*y + z into one FMA instruction, which rounds once where
# the source rounds twice: arm64 builds do, amd64 at the default
# GOAMD64=v1 never does, so the same seed would publish different bits on
# the two. The numeric packages wrap each such product in an explicit
# float64(), which the spec says must round and so forbids the fusion.
# This step cross-builds them for arm64 with the local toolchain and fails
# on any fused instruction left. internal/portable is the exp and log2
# every published float goes through instead of math.Exp's FMA path, and
# internal/certify is the verdict the job daemon serves to clients.
fmadir=$(mktemp -d)
for pkg in core privacy uncertain reliability truncnorm obs portable certify; do
    GOARCH=arm64 go build -o "$fmadir/$pkg.a" "./internal/$pkg"
    go tool objdump "$fmadir/$pkg.a" |
        awk '/^TEXT/ { fn = $2 } $4 ~ /^(FMADD|FMSUB|FNMADD|FNMSUB)/ { print fn, $1, $4 }' >>"$fmadir/fused"
done
fused=$(cat "$fmadir/fused")
rm -rf "$fmadir"
if [ -n "$fused" ]; then
    echo "fused multiply-add in the arm64 build; wrap the product in float64():" >&2
    echo "$fused" >&2
    exit 1
fi

echo "== pinned bytes and checkpoint fixtures with FMA off =="
# math.Exp takes an FMA path on amd64 CPUs that have one; the published
# bytes must not. The pins and both checkpoint fixtures run again with
# the runtime told the CPU has no FMA.
GODEBUG=cpu.fma=off go test -count=1 \
    -run '^(TestVariantPinnedOutput|TestResumeLegacyCheckpoint|TestResumeRepAnCheckpoint)$' ./internal/core/

echo "== go test -race =="
go test -race ./...

echo "== go test -race -count=2 (telemetry, MC workers, CLI runner, job plane, σ-search, uniqueness) =="
# The expose differ, journal writer and quality streams are the
# concurrency-heavy additions, and the reliability worker pools plus the
# runner's signal/cancellation paths cross goroutines by design; a
# dedicated double-count race pass keeps them covered even if the main
# pass is ever narrowed. internal/uncertain rides along because the
# coupled/antithetic/stratified sampler kernels are what those worker
# pools now race over (adaptive rounds share one sampler snapshot).
# internal/query is the newest cross-goroutine surface: the load harness
# hammers one engine (and its shared label cache, HDR recorder shards and
# wide-event writer) from many goroutines at once. internal/testkit joins
# for its differential and mode oracles: they drive the estimator worker
# pools over shared, unchanging graphs from many goroutines at once.
# internal/jobs is the job plane's scheduler: a worker pool, an
# admission gate and an HTTP surface all mutating one manager under
# concurrent submits, cancels and daemon shutdowns. (cmd/chameleond's
# subprocess tests race in the main pass above and smoke below; they are
# too heavy to double.) internal/metrics, internal/centrality and
# internal/weighted sample their worlds on the same scheduler through
# reliability.ForEachWorld, one world per claim. internal/core runs
# concurrent anonymizations over one shared input graph, which each
# search only reads while its attempt slots, one per worker, roll their
# own working clones back per attempt and race to record the call's best.
# internal/privacy's kernels run under the anonymizations that
# internal/core runs concurrently. cmd/tracestat reads the
# span timelines the runner journals from still-running span trees.
go test -race -count=2 ./internal/obs/... ./internal/query/... ./internal/reliability/... ./internal/uncertain/... ./internal/testkit/... ./internal/jobs/... ./cmd/internal/runner/... ./cmd/tracestat/... ./internal/metrics/... ./internal/centrality/... ./internal/weighted/... ./internal/core/... ./internal/privacy/...

coverage_floor="${COVERAGE_FLOOR:-78.4}"
echo "== coverage (floor ${coverage_floor}%) =="
# One plain (non-race) pass doubles as the coverage measurement: the
# per-package "coverage: X%" lines below are the summary, and the profile
# feeds the total-coverage floor gate. -coverpkg=./... attributes cross-
# package coverage (CLI tests exercising internal packages) correctly.
covprofile=$(mktemp)
go test -count=1 -coverprofile="$covprofile" -coverpkg=./... ./...
total=$(go tool cover -func="$covprofile" | awk '/^total:/ { sub(/%/, "", $NF); print $NF }')
rm -f "$covprofile"
echo "total statement coverage: ${total}%"
if ! awk -v t="$total" -v f="$coverage_floor" 'BEGIN { exit !(t+0 >= f+0) }'; then
    echo "coverage gate: total ${total}% is below the floor ${coverage_floor}%" >&2
    exit 1
fi

fuzz_budget="${FUZZ_BUDGET:-5s}"
echo "== fuzz smoke (${fuzz_budget} per target) =="
if [ "$fuzz_budget" = "0" ]; then
    echo "FUZZ_BUDGET=0: fuzz smoke skipped"
else
    # Each target must run alone: go test accepts only one -fuzz match per
    # invocation. The corpus seeds always run; the budget buys random
    # exploration on top.
    go test -run '^$' -fuzz '^FuzzBitsetMask$'         -fuzztime "$fuzz_budget" ./internal/uncertain/
    go test -run '^$' -fuzz '^FuzzReadTSV$'            -fuzztime "$fuzz_budget" ./internal/uncertain/
    go test -run '^$' -fuzz '^FuzzGraphRoundTrip$'     -fuzztime "$fuzz_budget" ./internal/uncertain/
    go test -run '^$' -fuzz '^FuzzGraphIndex$'         -fuzztime "$fuzz_budget" ./internal/uncertain/
    go test -run '^$' -fuzz '^FuzzDegreeDistribution$' -fuzztime "$fuzz_budget" ./internal/privacy/
    go test -run '^$' -fuzz '^FuzzCommonness$'         -fuzztime "$fuzz_budget" ./internal/testkit/
    go test -run '^$' -fuzz '^FuzzQSampler$'           -fuzztime "$fuzz_budget" ./internal/core/
    go test -run '^$' -fuzz '^FuzzJobRequest$'         -fuzztime "$fuzz_budget" ./internal/jobs/
fi

echo "== chameleond smoke (burst admission + plane responsiveness) =="
# The job daemon under a 16-submission burst against 2 workers and a
# 2-deep queue: some jobs land (202), overload sheds with 429 +
# Retry-After, every accepted job completes, and the /metrics and /query
# planes keep answering while the anonymizations run.
go test -race -count=1 -run '^TestDaemonLoad$' -v ./cmd/chameleond/

# Every BENCH_*.json artifact below shares one schema — {name,
# ns_per_op, allocs_per_op, iterations} plus the samples_to_target_rse /
# bytes_on_disk ReportMetric columns where a benchmark reports them — so
# cmd/benchcmp can gate any of them. benchcmp -emit writes it from
# go test -bench output, keeping the fastest repeat under -count.
emit() { go run ./cmd/benchcmp -emit; }

echo "== benchmarks (instrumented hot paths) =="
benchtime="${BENCHTIME:-1s}"
bench_out=$(go test -run '^$' \
    -bench 'BenchmarkObsOverhead|BenchmarkAnonymizeRSME|BenchmarkEdgeRelevance$|BenchmarkSampleWorld|BenchmarkConnectedPairs|BenchmarkObfuscationCheck|BenchmarkDiscrepancy' \
    -benchmem -benchtime "$benchtime" .)
echo "$bench_out"
echo "$bench_out" | emit > BENCH_obs.json
echo "wrote BENCH_obs.json ($(grep -c '"name"' BENCH_obs.json) entries)"

echo "== reliability benchmarks (-benchmem -count=3, allocation guard) =="
# count=3 smooths the single-iteration noise BENCH_obs.json suffers from;
# the JSON records the minimum ns/op across runs (with that run's
# iteration count) plus the highest allocs/op of any run, so both perf and
# allocation regressions are catchable.
rel_out=$(go test -run '^$' \
    -bench 'BenchmarkEdgeRelevance$|BenchmarkDiscrepancy$|BenchmarkDiscrepancyUncached|BenchmarkWorldSamplerInto|BenchmarkComponentsInto|BenchmarkSampleWorld$|BenchmarkConnectedPairs$|BenchmarkAdaptiveChunkLoop' \
    -benchmem -count=3 -benchtime "$benchtime" . ./internal/reliability/)
echo "$rel_out"
echo "$rel_out" | emit > BENCH_reliability.json
echo "wrote BENCH_reliability.json ($(grep -c '"name"' BENCH_reliability.json) entries)"

echo "== MC sample-efficiency benchmark (adaptive stopping + CRN) =="
# BenchmarkMCSampleEfficiency reports samples_to_target_rse: the Monte
# Carlo worlds each sampling strategy needs to estimate the fig4
# Δ-discrepancy at a 5% relative standard error. The counts are
# deterministic under the pinned benchmark seed; wall time is a function
# of the sample count, so the benchcmp gate for this file runs -skip-ns.
mc_out=$(go test -run '^$' -bench 'BenchmarkMCSampleEfficiency' -benchtime 2x .)
echo "$mc_out"
echo "$mc_out" | emit > BENCH_mc.json
echo "wrote BENCH_mc.json ($(grep -c '"name"' BENCH_mc.json) entries)"

# The headline claim of the adaptive+CRN work: reaching the target RSE on
# the fig4 Δ-discrepancy must take >= 5x fewer samples under adaptive
# coupled sampling than the fixed-N budget a user would have to provision.
mc_metric() {
    grep "\"$1\"" BENCH_mc.json | sed 's/.*"samples_to_target_rse": \([0-9.e+-]*\).*/\1/'
}
fixed_n=$(mc_metric "BenchmarkMCSampleEfficiency/fixed")
crn_n=$(mc_metric "BenchmarkMCSampleEfficiency/adaptive-crn")
if ! awk -v f="${fixed_n:-0}" -v c="${crn_n:-0}" 'BEGIN { exit !(c > 0 && f / c >= 5) }'; then
    echo "sample-efficiency gate: adaptive+CRN used ${crn_n:-?} samples vs fixed-N ${fixed_n:-?}; want >= 5x fewer" >&2
    exit 1
fi
echo "sample-efficiency gate: fixed ${fixed_n} vs adaptive-crn ${crn_n} samples (>= 5x)"

echo "== format benchmarks (sectioned v2 vs v1 vs TSV) =="
# One 100k-edge graph decoded from every container format, with the
# at-rest size reported alongside. The two headline claims of the v2
# format are gated right here: decoding v2 into a *Graph (the bulk
# FromEdges build every loader uses) must be >= 5x faster than parsing
# the TSV, and the v2 file must be >= 3x smaller than the TSV (quantized
# probability column engaged). count=3, because emit keeps the fastest
# repeat: at BENCHTIME=1x one decode includes warm-up and GC noise, and a
# single repeat has read 3.4x where reruns read 9-14x.
fmt_out=$(go test -run '^$' -bench 'BenchmarkFormat' -benchmem -count=3 -benchtime "$benchtime" ./internal/uncertain/)
echo "$fmt_out"
echo "$fmt_out" | emit > BENCH_format.json
echo "wrote BENCH_format.json ($(grep -c '"name"' BENCH_format.json) entries)"

fmt_field() {
    grep "\"$1\"" BENCH_format.json | sed "s/.*\"$2\": \([0-9.e+-]*\).*/\1/"
}
tsv_ns=$(fmt_field "BenchmarkFormatDecode/tsv" ns_per_op)
v2_ns=$(fmt_field "BenchmarkFormatDecode/v2" ns_per_op)
tsv_bytes=$(fmt_field "BenchmarkFormatDecode/tsv" bytes_on_disk)
v2_bytes=$(fmt_field "BenchmarkFormatDecode/v2" bytes_on_disk)
if ! awk -v t="${tsv_ns:-0}" -v v="${v2_ns:-0}" 'BEGIN { exit !(v > 0 && t / v >= 5) }'; then
    echo "format gate: v2->Graph decode ${v2_ns:-?} ns vs TSV parse ${tsv_ns:-?} ns; want >= 5x faster" >&2
    exit 1
fi
if ! awk -v t="${tsv_bytes:-0}" -v v="${v2_bytes:-0}" 'BEGIN { exit !(v > 0 && t / v >= 3) }'; then
    echo "format gate: v2 file ${v2_bytes:-?} B vs TSV ${tsv_bytes:-?} B; want >= 3x smaller" >&2
    exit 1
fi
echo "format gates: decode ${tsv_ns} -> ${v2_ns} ns (>= 5x), size ${tsv_bytes} -> ${v2_bytes} B (>= 3x)"

echo "== v2 smoke (streamed 100k-edge graph and chameleon -binary through the CLIs) =="
# End-to-end over the real binaries: genug streams a 100k-edge ER graph
# straight to a sectioned v2 file without materializing it, and ugstat
# must pick the format up through LoadFile's magic-number auto-detection
# and report the exact shape back. Then chameleon -binary publishes an
# anonymized small graph: the file must start with the magic plus version
# word 2 (v2 is the only binary format the tools write), and ugstat must
# read it. chameleon -method Rep-An publishes the same graph through the
# baseline, and ugstat must read that too. The CLI must refuse
# -max-samples without -target-rse (core's run-spec check) with a
# non-zero exit. Last, the run journal is the one on-disk span record:
# chameleon -journal keeps the σ-search timeline, tracestat must report
# an anonymize phase row and its critical path from it, tracestat -chrome
# must convert it to trace-event JSON for Perfetto, and chameleon must
# refuse the removed -traceout flag.
smokedir=$(mktemp -d)
go run ./cmd/genug -topology er -nodes 20000 -edges 100000 -probs discrete \
    -format v2 -stream -seed 9 -o "$smokedir/big.ug2"
smoke_out=$(go run ./cmd/ugstat -g "$smokedir/big.ug2" -metric-samples 2)
echo "$smoke_out"
go run ./cmd/genug -topology ba -nodes 120 -degree 2 -probs discrete -seed 3 -o "$smokedir/small.tsv"
go run ./cmd/chameleon -in "$smokedir/small.tsv" -out "$smokedir/anon.ug2" -binary \
    -k 5 -eps 0.05 -samples 100 -seed 7 -q
anon_header=$(od -An -tx1 -N8 "$smokedir/anon.ug2" | tr -d ' \n')
anon_out=$(go run ./cmd/ugstat -g "$smokedir/anon.ug2" -metric-samples 2)
echo "$anon_out"
go run ./cmd/chameleon -in "$smokedir/small.tsv" -out "$smokedir/repan.ug2" -binary \
    -method Rep-An -k 5 -eps 0.05 -samples 100 -seed 7 -q
repan_out=$(go run ./cmd/ugstat -g "$smokedir/repan.ug2" -metric-samples 2)
echo "$repan_out"
go build -o "$smokedir/chameleon" ./cmd/chameleon
max_samples_status=0
"$smokedir/chameleon" -in "$smokedir/small.tsv" -out "$smokedir/refused.ug2" \
    -k 5 -eps 0.05 -max-samples 100 -q 2>/dev/null || max_samples_status=$?
"$smokedir/chameleon" -in "$smokedir/small.tsv" -out "$smokedir/journaled.tsv" \
    -k 5 -eps 0.05 -samples 100 -seed 7 -q -journal "$smokedir/run.jsonl"
trace_out=$(go run ./cmd/tracestat -chrome "$smokedir/trace.json" "$smokedir/run.jsonl")
echo "$trace_out"
chrome_ok=0
if grep -q '"traceEvents"' "$smokedir/trace.json" && grep -q '"ph": "X"' "$smokedir/trace.json"; then
    chrome_ok=1
fi
traceout_status=0
"$smokedir/chameleon" -in "$smokedir/small.tsv" -out "$smokedir/x.tsv" -traceout "$smokedir/x.json" \
    -k 5 -eps 0.05 -samples 100 -q 2>/dev/null || traceout_status=$?
rm -rf "$smokedir"
if ! echo "$smoke_out" | grep -Eq 'edges +100000'; then
    echo "v2 smoke: ugstat did not report the streamed graph's 100000 edges" >&2
    exit 1
fi
if [ "$anon_header" != "4752475502000000" ]; then
    echo "v2 smoke: chameleon -binary wrote header $anon_header, want magic GRGU + version 2" >&2
    exit 1
fi
if ! echo "$anon_out" | grep -Eq 'nodes +120'; then
    echo "v2 smoke: ugstat did not report the anonymized graph's 120 nodes" >&2
    exit 1
fi
if ! echo "$repan_out" | grep -Eq 'nodes +120'; then
    echo "v2 smoke: ugstat did not report the Rep-An graph's 120 nodes" >&2
    exit 1
fi
if [ "$max_samples_status" = "0" ]; then
    echo "v2 smoke: chameleon accepted -max-samples without -target-rse" >&2
    exit 1
fi
if ! echo "$trace_out" | grep -Eq '^anonymize +1 ' || ! echo "$trace_out" | grep -q '^critical path (anonymize'; then
    echo "v2 smoke: tracestat printed no anonymize phase row and critical path for chameleon's journal" >&2
    exit 1
fi
if [ "$chrome_ok" != "1" ]; then
    echo "v2 smoke: tracestat -chrome wrote no traceEvents file with X events" >&2
    exit 1
fi
if [ "$traceout_status" = "0" ]; then
    echo "v2 smoke: chameleon accepted the removed -traceout flag" >&2
    exit 1
fi
echo "v2 smoke: streamed file round-tripped through genug -> ugstat; chameleon -binary wrote v2 (RSME and Rep-An); -max-samples without -target-rse refused; chameleon -journal read back by tracestat and converted with -chrome; -traceout refused"

echo "== ugload smoke (query-plane SLO, open + closed loop) =="
# A short load run in both loop disciplines against a small generated
# graph. This validates the whole query plane end to end (dispatcher,
# label cache, HDR recording, CO correction, artifact writer) and
# enforces a generous p99 sanity SLO — 500ms on a ~200-node graph only
# trips when something is catastrophically wrong, not on CI noise. The
# BENCH_load.json it writes joins the regression gate below.
go run ./cmd/ugload -nodes 200 -mode both -qps 400 -workers 16 \
    -duration 1s -warmup 200ms -seed 1 -slo-p99 500ms \
    -bench-out BENCH_load.json
for name in "ugload/open" "ugload/closed"; do
    if ! grep -q "\"name\": \"$name\"" BENCH_load.json; then
        echo "ugload smoke: BENCH_load.json is missing the $name entry" >&2
        exit 1
    fi
done
for field in p50_ns p99_ns p999_ns qps error_rate; do
    if ! grep -q "\"$field\"" BENCH_load.json; then
        echo "ugload smoke: BENCH_load.json is missing the $field field" >&2
        exit 1
    fi
done
echo "wrote BENCH_load.json ($(grep -c '"name"' BENCH_load.json) entries)"

echo "== benchmark regression gate (vs committed baseline) =="
if [ "${SKIP_BENCH_GATE:-}" = "1" ]; then
    echo "SKIP_BENCH_GATE=1: regression gate skipped"
else
    basedir=$(mktemp -d)
    trap 'rm -rf "$basedir"' EXIT
    # BENCH_mc.json gates sample counts (wall time is a function of
    # them) and BENCH_load.json gates p99 latency (its ns_per_op mean
    # is the noisiest column of a wall-clock load run), so both run
    # with -skip-ns; benchcmp still gates their own metrics.
    for f in BENCH_obs.json BENCH_reliability.json BENCH_mc.json BENCH_load.json BENCH_format.json; do
        skip_ns=""
        if [ "$f" = "BENCH_mc.json" ] || [ "$f" = "BENCH_load.json" ]; then
            skip_ns="-skip-ns"
        fi
        if git show "HEAD:$f" > "$basedir/$f" 2>/dev/null; then
            go run ./cmd/benchcmp -max-slowdown "${BENCH_MAX_SLOWDOWN:-25}" $skip_ns "$basedir/$f" "$f"
        else
            echo "no committed baseline for $f; gate skipped for this file"
        fi
    done
fi

# The world-sampling and union kernels must stay allocation-free on the
# steady state (the tentpole guarantee of the bitset world engine), and so
# must the adaptive sequential-stopping chunk loop built on top of them.
for kernel in BenchmarkWorldSamplerInto BenchmarkComponentsInto BenchmarkAdaptiveChunkLoop; do
    a=$(grep "\"$kernel\"" BENCH_reliability.json | sed 's/.*"allocs_per_op": \([0-9]*\).*/\1/')
    if [ "${a:-1}" != "0" ]; then
        echo "allocation guard: $kernel reports ${a:-?} allocs/op, want 0" >&2
        exit 1
    fi
done
echo "allocation guard: sampling kernels are allocation-free"

echo "check.sh: all gates passed"
