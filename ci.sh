#!/usr/bin/env bash
# Local CI gate: formatting, lints, then the tier-1 build + test suite.
# Run from the repository root; fails fast on the first broken stage,
# except that every --bench gate runs before the script fails.
#
# Usage:
#   ./ci.sh          tier-1 gate (fmt, clippy, build, test) — run on every PR
#   ./ci.sh --full   tier-1 gate plus the #[ignore]d full-size smoke tests
#                    (tests/full_size_smoke.rs: VGG-19 / ResNet-18 at real
#                    geometry). Minutes of CPU, not hours — run before
#                    release tags or after touching the tensor/nn hot paths.
#   ./ci.sh --bench  tier-1 gate plus the criterion kernel and epoch benches
#                    in quick mode. Writes the medians to BENCH_kernels.json
#                    and BENCH_epoch.json, the trace smoke run's per-phase
#                    peak/alloc bytes to BENCH_memory.json, and the serving
#                    load-generator's throughput + latency records to
#                    BENCH_serving.json, at the repo root (the cross-PR perf
#                    + memory trajectory). Every bench gate runs and prints
#                    its pass or fail; the script fails at the end if any
#                    gate failed (anything tracked in a committed baseline
#                    regressing by more than its cap).
set -euo pipefail
cd "$(dirname "$0")"

FULL=0
BENCH=0
for arg in "$@"; do
    case "$arg" in
    --full) FULL=1 ;;
    --bench) BENCH=1 ;;
    *)
        echo "ci.sh: unknown argument '$arg' (supported: --full, --bench)" >&2
        exit 2
        ;;
    esac
done

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

# First-party rustdoc must be warning-free, so a doc link to a renamed or
# deleted item fails here instead of going stale. The vendored offline
# stand-ins under vendor/ are workspace members too; their docs are not
# ours to fix, so they are excluded.
echo "==> cargo doc (first-party warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet \
    --exclude criterion --exclude proptest --exclude rand --exclude rand_chacha \
    --exclude rayon --exclude serde --exclude serde_derive --exclude serde_json

echo "==> tier-1: cargo build --release"
# --workspace: the smoke steps below need the bench binaries
# (table2_quantization, adq-report, adq-watch), which a plain root-package
# build does not link.
cargo build --release --workspace

echo "==> tier-1: cargo test -q"
cargo test -q

# The root run tests only the root package; the integer engine's
# exactness contracts (kernel-vs-reference tiles, the every-bit-pair
# differential test, the logit digests, the proptests) live in adq-infer.
echo "==> tier-1: integer engine exactness (cargo test -q -p adq-infer)"
cargo test -q -p adq-infer
# The serving tests (a stalled peer must not starve its connection
# worker, shutdown drains and says goodbye) must hold on a one-thread
# pool too.
echo "==> tier-1: adq-infer again with one worker (RAYON_NUM_THREADS=1)"
RAYON_NUM_THREADS=1 cargo test -q -p adq-infer

# Nor does it run the kernel-plan, dispatch and span/trace contracts,
# which live in adq-tensor and adq-telemetry.
echo "==> tier-1: kernel plan + telemetry tests (cargo test -q -p adq-tensor -p adq-telemetry)"
cargo test -q -p adq-tensor -p adq-telemetry

# Nor does it run the trainer, model, block, batch-norm, controller and
# checkpoint tests, which live in adq-nn and adq-core.
echo "==> tier-1: model + controller tests (cargo test -q -p adq-nn -p adq-core)"
cargo test -q -p adq-nn -p adq-core

# Nor the quantizer (the range and tie-rule proptests), AD, energy, PIM,
# dataset and bench-crate suites.
echo "==> tier-1: quant, AD, energy, PIM, dataset and bench tests"
cargo test -q -p adq-quant -p adq-ad -p adq-energy -p adq-pim -p adq-datasets -p adq-bench

# The kernels promise bit-identical results at any worker count; one
# extra pass under a small pool exercises the parallel schedule
# everywhere the suite asserts serial numbers.
echo "==> tier-1: cargo test -q (RAYON_NUM_THREADS=2)"
RAYON_NUM_THREADS=2 cargo test -q

# The root test run covers neither the worker pool's own tests nor the
# crate-level determinism, span-concurrency and implicit-conv equality
# contracts; run them with a real second worker (a few seconds once
# built).
echo "==> tier-1: pool + parallel-determinism tests (RAYON_NUM_THREADS=2)"
RAYON_NUM_THREADS=2 cargo test -q -p rayon
RAYON_NUM_THREADS=2 cargo test -q -p adq-core --test parallel_determinism
RAYON_NUM_THREADS=2 cargo test -q -p adq-nn --test span_concurrency
RAYON_NUM_THREADS=2 cargo test -q -p adq-nn --test conv_equality
# The fused input gradient splits its work by (image, channel) plane and
# runs it inline on a one-thread pool; the bits must not change.
echo "==> tier-1: conv equality + parallel determinism on one worker (RAYON_NUM_THREADS=1)"
RAYON_NUM_THREADS=1 cargo test -q -p adq-nn --test conv_equality
RAYON_NUM_THREADS=1 cargo test -q -p adq-core --test parallel_determinism

# Trace smoke: one Algorithm-1 bench run with tracing, resource counters
# and the live metrics endpoint on must yield a valid Chrome trace, a
# collapsed-stack file, a scrapeable Prometheus page *while running*,
# and an adq-report whose per-iteration totals reconcile with the trace
# within 1%. The bench binaries carry the counting allocator, so the
# report also gets per-phase memory/FLOP attribution.
echo "==> tier-1: trace smoke (ADQ_TRACE=1 + metrics endpoint + adq-report)"
trace_dir="$(mktemp -d)"
(cd "$trace_dir" && ADQ_TRACE=1 ADQ_METRICS_ADDR=127.0.0.1:0 \
    ADQ_METRICS_PORT_FILE="$trace_dir/metrics.port" \
    "$OLDPWD/target/release/table2_quantization" \
    --telemetry "$trace_dir/run.jsonl" >/dev/null) &
smoke_pid=$!
# Scrape the endpoint mid-run: wait for the OS-assigned port to land in
# the port file, then validate the exposition text with adq-watch.
scraped=0
for _ in $(seq 1 100); do
    if [[ -s "$trace_dir/metrics.port" ]]; then
        if ./target/release/adq-watch --scrape "$(cat "$trace_dir/metrics.port")"; then
            scraped=1
            break
        fi
    fi
    if ! kill -0 "$smoke_pid" 2>/dev/null; then break; fi
    sleep 0.1
done
wait "$smoke_pid" || {
    echo "ci: trace smoke run failed" >&2
    exit 1
}
if [[ "$scraped" -ne 1 ]]; then
    echo "ci: metrics endpoint was never scraped during the run" >&2
    exit 1
fi
test -s "$trace_dir/run.trace.json" || {
    echo "ci: trace smoke wrote no Chrome trace" >&2
    exit 1
}
test -s "$trace_dir/run.folded" || {
    echo "ci: trace smoke wrote no collapsed stacks" >&2
    exit 1
}
echo "==> tier-1: adq-watch --once over the run stream"
./target/release/adq-watch --once "$trace_dir/run.jsonl" || {
    echo "ci: adq-watch raised health alerts on a healthy run" >&2
    exit 1
}
./target/release/adq-report --validate-trace "$trace_dir/run.trace.json"
./target/release/adq-report "$trace_dir/run.jsonl" \
    --metrics "$trace_dir/results/table2_quantization_metrics.json" \
    --out "$trace_dir/report.md" \
    --memory-json "$trace_dir/memory.json" \
    --reconcile-trace "$trace_dir/run.trace.json"
test -s "$trace_dir/report.md" || {
    echo "ci: adq-report wrote no markdown report" >&2
    exit 1
}
test -s "$trace_dir/memory.json" || {
    echo "ci: adq-report wrote no per-phase memory snapshot" >&2
    exit 1
}
grep -q "heap peak" "$trace_dir/report.md" || {
    echo "ci: report lacks resource attribution columns" >&2
    exit 1
}
TRACE_SMOKE_DIR="$trace_dir"

# Deploy smoke: the CLI trains a small VGG, compiles it to the integer
# engine and costs it on the PIM model; it must print the float/integer
# argmax agreement and the per-image Table-IV energy.
echo "==> tier-1: adq deploy smoke"
deploy_out="$(./target/release/adq deploy)" || {
    echo "ci: adq deploy failed" >&2
    exit 1
}
echo "$deploy_out" | grep -q "agreement" || {
    echo "ci: adq deploy printed no agreement line" >&2
    echo "$deploy_out" >&2
    exit 1
}
echo "$deploy_out" | grep -q "µJ" || {
    echo "ci: adq deploy printed no energy line" >&2
    echo "$deploy_out" >&2
    exit 1
}

# Serving smoke: boot adq-serve with 2 replicas, a deliberately tiny
# admission queue and the request-lifecycle access log on (port-file
# handshake, same idiom as the metrics endpoint), probe it with real
# inference requests over the wire, drive a burst that must observe a
# typed shed frame, confirm the shed counter on the Prometheus page via
# adq-watch --scrape, shut down cleanly, then reconcile the access log
# against the scraped counters and render the per-stage attribution
# report from it.
echo "==> tier-1: serving smoke (adq-serve replicas / probe / shed / scrape / shutdown)"
# Waits for the adq-serve process $2 to publish its bound address in the
# port file $1, and prints the address; fails if the server exits first.
await_port() {
    for _ in $(seq 1 100); do
        if [[ -s "$1" ]]; then
            cat "$1"
            return 0
        fi
        if ! kill -0 "$2" 2>/dev/null; then break; fi
        sleep 0.1
    done
    echo "ci: adq-serve did not publish its port" >&2
    kill "$2" 2>/dev/null || true
    exit 1
}
serve_dir="$(mktemp -d)"
ADQ_METRICS_ADDR=127.0.0.1:0 ADQ_METRICS_PORT_FILE="$serve_dir/metrics.port" \
./target/release/adq-serve serve --addr 127.0.0.1:0 \
    --replicas 2 --queue-cap 1 --max-wait-ms 100 \
    --access-log "$serve_dir/access.jsonl" \
    --port-file "$serve_dir/serve.port" >/dev/null &
serve_pid=$!
serve_addr="$(await_port "$serve_dir/serve.port" "$serve_pid")"
./target/release/adq-serve probe --addr "$serve_addr" --requests 4 || {
    echo "ci: serving probe failed" >&2
    kill "$serve_pid" 2>/dev/null || true
    exit 1
}
# 8 simultaneous requests against queue-cap 1: admission control must
# shed some with typed frames while answering the rest
./target/release/adq-serve probe --addr "$serve_addr" --burst 8 --expect-shed 1 || {
    echo "ci: serving burst saw no shed response over the wire" >&2
    kill "$serve_pid" 2>/dev/null || true
    exit 1
}
metrics_addr="$(cat "$serve_dir/metrics.port")"
scrape_out="$(./target/release/adq-watch --scrape "$metrics_addr")" || {
    echo "ci: cannot scrape the serving metrics endpoint" >&2
    kill "$serve_pid" 2>/dev/null || true
    exit 1
}
echo "$scrape_out" | grep -Eq 'adq_serve_shed_total [1-9]' || {
    echo "ci: adq_serve_shed_total did not advance after the shed burst" >&2
    echo "$scrape_out" >&2
    kill "$serve_pid" 2>/dev/null || true
    exit 1
}
echo "$scrape_out" | grep -Eq 'adq_serve_replicas 2' || {
    echo "ci: adq_serve_replicas gauge does not report the fan-out" >&2
    kill "$serve_pid" 2>/dev/null || true
    exit 1
}
echo "$scrape_out" | grep -q 'adq_serve_stage_queue_wait_ns_bucket' || {
    echo "ci: per-stage serving histograms are missing from the scrape" >&2
    kill "$serve_pid" 2>/dev/null || true
    exit 1
}
# the counters the access log must reconcile with, as of this scrape
serve_requests="$(echo "$scrape_out" | awk '$1 == "adq_serve_requests" {print $2}')"
serve_shed="$(echo "$scrape_out" | awk '$1 == "adq_serve_shed_total" {print $2}')"
./target/release/adq-serve shutdown --addr "$serve_addr"
wait "$serve_pid" || {
    echo "ci: adq-serve did not shut down cleanly" >&2
    exit 1
}
echo "==> tier-1: access-log reconciliation + adq-report --serving"
access_log="$serve_dir/access.jsonl"
test -s "$access_log" || {
    echo "ci: adq-serve wrote no access log" >&2
    exit 1
}
# record schema: every request line carries a trace id, an outcome and
# the stage waterfall; the close wrote exactly one summary line
head -n 1 "$access_log" | grep -q '"trace_id"' || {
    echo "ci: access-log records lack trace ids" >&2
    exit 1
}
head -n 1 "$access_log" | grep -q '"queue_wait_ns"' || {
    echo "ci: access-log records lack stage deltas" >&2
    exit 1
}
[[ "$(grep -c '"summary"' "$access_log")" -eq 1 ]] || {
    echo "ci: access log does not end with exactly one summary line" >&2
    exit 1
}
# the summary's exemplars repeat record objects, so count request lines
# as non-summary lines rather than by field
access_records="$(grep -cv '"summary"' "$access_log")"
access_shed="$(grep -c '"outcome":"shed"' "$access_log" || true)"
[[ "$access_records" -eq "$serve_requests" ]] || {
    echo "ci: access log holds $access_records records but serve.requests is $serve_requests" >&2
    exit 1
}
[[ "$access_shed" -ge 1 ]] || {
    echo "ci: the shed burst left no shed record in the access log" >&2
    exit 1
}
# per-stage attribution report over the log; --decompose-within enforces
# that the stage-median sum explains the end-to-end median within 10%
./target/release/adq-report --serving "$access_log" --decompose-within 0.10 \
    >"$serve_dir/serving_report.md" || {
    echo "ci: adq-report --serving failed on the smoke access log" >&2
    cat "$serve_dir/serving_report.md" >&2
    exit 1
}
grep -q "Per-stage latency attribution" "$serve_dir/serving_report.md" || {
    echo "ci: serving report lacks the stage attribution table" >&2
    exit 1
}
# adq-watch must flag the deliberate overload (queue pinned at cap 1
# while the burst shed) from the access log alone — exit 1 is the signal
if ./target/release/adq-watch --once --access-log "$access_log" \
    >"$serve_dir/watch_access.txt" 2>&1; then
    echo "ci: adq-watch --access-log did not flag the deliberate overload" >&2
    exit 1
fi
grep -q "access-log:" "$serve_dir/watch_access.txt" || {
    echo "ci: adq-watch --access-log rendered no stage-breakdown line" >&2
    exit 1
}
# the observation-only contract (identical bytes with the log on/off)
# must stay enforced by tier-1
contract_tests="$(cargo test --release -q -p adq-infer --test access_log -- --list)"
echo "$contract_tests" | grep -q "access_log_does_not_change_response_bytes" || {
    echo "ci: the observation-only contract test is missing from tier-1" >&2
    exit 1
}
rm -rf "$serve_dir"

# Serving a trained ResNet: the checkpoint a 1-iteration run writes when
# it stops holds the model it trained; adq-serve restores that ResNet,
# lowers it and answers probes over the wire.
echo "==> tier-1: serving smoke for a trained ResNet checkpoint"
resnet_dir="$(mktemp -d)"
./target/release/adq quantize --model resnet --iters 1 --epochs 1 \
    --resolution 8 --classes 4 --save "$resnet_dir" >/dev/null
resnet_flags=(--checkpoint "$resnet_dir" --model resnet --resolution 8 --classes 4)
./target/release/adq-serve serve --addr 127.0.0.1:0 "${resnet_flags[@]}" \
    --port-file "$resnet_dir/serve.port" >/dev/null &
resnet_pid=$!
resnet_addr="$(await_port "$resnet_dir/serve.port" "$resnet_pid")"
./target/release/adq-serve probe --addr "$resnet_addr" --requests 4 "${resnet_flags[@]}" || {
    echo "ci: probing the served ResNet checkpoint failed" >&2
    kill "$resnet_pid" 2>/dev/null || true
    exit 1
}
./target/release/adq-serve shutdown --addr "$resnet_addr"
wait "$resnet_pid" || {
    echo "ci: adq-serve (ResNet checkpoint) did not shut down cleanly" >&2
    exit 1
}
rm -rf "$resnet_dir"

# Serving through the benchmark binary: it exits 0 only when every
# served response equalled CompiledNet::run on that image alone, bit for
# bit — on U8 containers (serve-c1), on U16 and nibble ones
# (serve-mixed-c1), and in batches larger than 1 (serve-open, the one
# workload whose arrivals the server coalesces), so a row-kernel or
# batch-layout fault that shows only through the server fails here.
echo "==> tier-1: benchmark serving smoke (adq_benchmark serve-c1, serve-mixed-c1, serve-open)"
for workload in serve-c1 serve-mixed-c1 serve-open; do
    ./target/release/adq_benchmark --workload "$workload" --seed 1 --seconds 2 \
        --trace 0 >/dev/null || {
        echo "ci: adq_benchmark --workload $workload failed its correctness check" >&2
        exit 1
    }
done

if [[ "$FULL" -eq 1 ]]; then
    echo "==> full: cargo test --release --test full_size_smoke -- --ignored"
    cargo test --release --test full_size_smoke -- --ignored
fi

# Bench gates run to the end even when one fails, so a failing kernels
# gate does not hide the epoch, memory and serving verdicts after it.
FAILED_GATES=()
gate() {
    local name="$1"
    shift
    if "$@"; then
        echo "==> gate $name: pass"
    else
        echo "==> gate $name: FAIL"
        FAILED_GATES+=("$name")
    fi
}

if [[ "$BENCH" -eq 1 ]]; then
    echo "==> bench: criterion kernels (quick mode) -> BENCH_kernels.json"
    # Compare against the committed snapshot before overwriting it: the
    # baseline is whatever HEAD has, so the perf trajectory accumulates
    # PR over PR.
    baseline=""
    if git cat-file -e HEAD:BENCH_kernels.json 2>/dev/null; then
        baseline="$(mktemp)"
        git show HEAD:BENCH_kernels.json >"$baseline"
    fi
    CRITERION_JSON="$PWD/BENCH_kernels.json" CRITERION_SAMPLE_SIZE=5 \
        cargo bench -p adq-bench --bench kernels
    if [[ -n "$baseline" ]]; then
        echo "==> bench: regression check vs committed baseline"
        gate kernels cargo run --release -p adq-bench --bin bench_check -- \
            "$baseline" BENCH_kernels.json --max-regress 0.25
        rm -f "$baseline"
    else
        echo "==> bench: no committed kernels baseline yet (first snapshot)"
    fi

    echo "==> bench: criterion epoch (quick mode) -> BENCH_epoch.json"
    epoch_baseline=""
    if git cat-file -e HEAD:BENCH_epoch.json 2>/dev/null; then
        epoch_baseline="$(mktemp)"
        git show HEAD:BENCH_epoch.json >"$epoch_baseline"
    fi
    CRITERION_JSON="$PWD/BENCH_epoch.json" CRITERION_SAMPLE_SIZE=5 \
        cargo bench -p adq-bench --bench epoch
    if [[ -n "$epoch_baseline" ]]; then
        echo "==> bench: epoch regression check vs committed baseline"
        gate epoch cargo run --release -p adq-bench --bin bench_check -- \
            "$epoch_baseline" BENCH_epoch.json --max-regress 0.25
        rm -f "$epoch_baseline"
    else
        echo "==> bench: no committed epoch baseline yet (first snapshot)"
    fi

    echo "==> bench: archiving trace-smoke report -> BENCH_report.md"
    cp "$TRACE_SMOKE_DIR/report.md" BENCH_report.md

    echo "==> bench: per-phase memory snapshot -> BENCH_memory.json"
    mem_baseline=""
    if git cat-file -e HEAD:BENCH_memory.json 2>/dev/null; then
        mem_baseline="$(mktemp)"
        git show HEAD:BENCH_memory.json >"$mem_baseline"
    fi
    cp "$TRACE_SMOKE_DIR/memory.json" BENCH_memory.json
    if [[ -n "$mem_baseline" ]]; then
        echo "==> bench: memory regression check vs committed baseline"
        gate memory cargo run --release -p adq-bench --bin bench_check -- \
            "$mem_baseline" BENCH_memory.json --key bytes --max-regress 0.25
        rm -f "$mem_baseline"
    else
        echo "==> bench: no committed memory baseline yet (first snapshot)"
    fi

    echo "==> bench: serving load generator -> BENCH_serving.json"
    serving_baseline=""
    if git cat-file -e HEAD:BENCH_serving.json 2>/dev/null; then
        serving_baseline="$(mktemp)"
        git show HEAD:BENCH_serving.json >"$serving_baseline"
    fi
    ./target/release/adq-serve load-gen --concurrency 1,4,8 --replicas 1,2,4 \
        --requests 96 --out BENCH_serving.json
    if [[ -n "$serving_baseline" ]]; then
        echo "==> bench: serving regression check (throughput + tail latency)"
        # ns_per_request = mean wall-clock per completed request (the
        # throughput gate, tight); the second pass gates the p99 tail.
        # Tail quantiles swing ~50% run-to-run on a single-core box, so
        # the p99 cap only catches a tail that at least doubles.
        gate serving-throughput cargo run --release -p adq-bench --bin bench_check -- \
            "$serving_baseline" BENCH_serving.json \
            --key ns_per_request --max-regress 0.25
        gate serving-p99 cargo run --release -p adq-bench --bin bench_check -- \
            "$serving_baseline" BENCH_serving.json --key p99_ns --max-regress 1.0
        # server-side queueing tail from the access log (records lacking
        # the key — e.g. the float baseline — are skipped): same loose
        # cap as p99_ns, queue waits swing with scheduling noise
        gate serving-queue-wait cargo run --release -p adq-bench --bin bench_check -- \
            "$serving_baseline" BENCH_serving.json \
            --key queue_wait_p99_ns --max-regress 1.0
        rm -f "$serving_baseline"
    else
        echo "==> bench: no committed serving baseline yet (first snapshot)"
    fi
    echo "==> bench: replica-scaling floor (r=2 within 25% of r=1 at c=8)"
    # Self-check against the fresh snapshot: on multi-core boxes two
    # replicas should *beat* one; on the 1-core reference container the
    # extra executor must cost at most the allowed overhead.
    gate replica-scaling cargo run --release -p adq-bench --bin bench_check -- \
        BENCH_serving.json --key ns_per_request \
        --within serving/int8_batched_c8_r2:serving/int8_batched_c8:0.25
fi

rm -rf "$TRACE_SMOKE_DIR"
if [[ "${#FAILED_GATES[@]}" -gt 0 ]]; then
    echo "ci: bench gates failed: ${FAILED_GATES[*]}" >&2
    exit 1
fi
echo "ci: all green"
