#!/usr/bin/env bash
# Tier-1 gate: everything a PR must pass before merge.
#
#   ./scripts/ci.sh
#
# The serve, confirm and refute benches below rewrite BENCH_serve.json,
# BENCH_confirm.json and BENCH_refute.json, and every build of the
# repository benchmark rewrites its Cargo.lock (the committed one still
# lists dependencies the crates no longer have); every later gate reads
# the fresh files, and the script puts the committed ones back on exit,
# pass or fail.
#
# 1. release build of the whole workspace, then
#    a dependency check: nadroid-datalog, the tests' simple reference
#    evaluator, must stay off every shipped path, so `cargo tree` must
#    not find it among nadroid-cli's normal dependencies (the `nadroid`
#    binary links core, serve, confirm, ledger and bench),
# 2. the full test suite — run at NADROID_THREADS=4 so every analysis
#    in tier-1 exercises the parallel detection and filtering paths
#    (output is byte-identical by construction; the determinism suites
#    assert it),
# 3. clippy with warnings promoted to errors, then rustfmt's check mode
#    (any unformatted file fails the gate),
# 4. the HB parity gate, in release: the graph-backed filters must
#    match the test-local reference statement of the §6 ordering rules
#    in tests/hb_parity.rs verdict-for-verdict, and in Figure 5 tallies
#    and surviving ids, and the graph's mustHb/postHb/predHb must equal
#    a Datalog solve of their rules on every thread pair, on the 27
#    Table 1 apps, the 6 refutation apps, the Figure 4 gallery,
#    apps/*.dsl and the test's own rule fixture; then the soundness fuzz
#    (10 seeded random apps: no pair a sound filter prunes may have a
#    witness under bounded exploration); then `table1`, whose totals
#    line must read potential=2320 after-sound=481 after-unsound=120
#    harmful=88 (the harmful count is measured by nadroid-confirm, not
#    copied from the planted labels); then the repository benchmark's
#    smoke tests (it is a Cargo package of its own),
# 5. provenance smoke test: `nadroid explain` on a corpus app must
#    produce a non-empty derivation tree and a filter audit; the
#    confirmation smoke then runs `nadroid confirm` on the same app,
#    extracts the first confirmed warning's minimized witness schedule,
#    and replays it in a fresh `nadroid replay` process — the NPE must
#    reproduce and match the warning's use/free sites — and
#    `nadroid analyze --validate` must append the same verdicts to its
#    report (both ConnectBot UAFs confirmed); then the run-report smoke:
#    `nadroid analyze --report` on ConnectBot must write a file that
#    `nadroid check-json` accepts, whose `spans` array holds every
#    layer's time (spans are the only clock), and with `--validate` the
#    confirm stages' spans too: the directed search, minimization and
#    verify replay on ConnectBot (both pairs confirm in the directed
#    phase), and the fallback on a small app whose pair only a complete
#    drain answers,
# 6. perf/drift gate: re-measure the timing suite and run
#    `nadroid perf gate` against the committed BENCH_timing.json record —
#    deterministic counters compare exactly, wall/CPU times under the
#    documented noise budget (3x + 0.25s) — with the fresh run appended
#    to the run ledger (Result/ledger.jsonl, schema nadroid-ledger/1) as
#    a `ci` record; the verdict names the exact counter, percentile, or
#    warning ids that moved,
# 7. serve smoke gate: start the daemon with --threads 2 (inner
#    parallelism under admission control) plus an access log and a
#    zero slow-capture threshold, cold request, warm request (must hit
#    the cache), deadline-exceeded request (structured timeout, worker
#    survives), stats consistency incl. the exported thread config, an
#    unparsable program (a nonzero exit printing the server's parse
#    error), a `confirm` request (a confirmed verdict over the wire), a
#    `metrics` request (per-endpoint percentiles, rolling rps windows,
#    Prometheus text rendering), clean shutdown, whose final stats must
#    read 10 requests, 2 cache hits, 4 misses (the unparsable program
#    missed, and the confirm found only the entry the cold analyze
#    wrote, so it ran the searches) and 1 error — then the 10-line JSONL
#    access log and a slow-request trace must validate under
#    `nadroid check-json`, and the serve load bench rewrites
#    BENCH_serve.json (host fingerprint included) and enforces the 20x
#    warm-vs-cold ConnectBot speedup plus its telemetry-agreement
#    self-checks,
# 8. confirmation drift gate: confirm_bench re-runs dynamic
#    confirmation over the whole corpus (its own self-checks require
#    >=1 confirmed, >=1 infeasible, and every confirmed schedule to
#    replay-verify), rewrites BENCH_confirm.json, appends a `confirm`
#    ledger record, and `nadroid perf gate` compares that record
#    against the committed baseline — verdict tallies, explored-state
#    counts, and per-app confirmed-warning populations are drift-exact,
# 9. refutation drift gate: refute_bench re-runs the predicate
#    refutation study over its dedicated corpus (its self-checks
#    require every planted Refute* cluster to refute with exactly its
#    certified reason and every kept control to survive), rewrites
#    BENCH_refute.json, appends a `refute` ledger record, and
#    `nadroid perf gate` compares it against the committed baseline —
#    the Figure-5-style stage tally, per-reason counts, and per-app
#    surviving populations are drift-exact; the Gallery explain smoke
#    then checks the rendered `refutation:` contradiction chains and
#    pins the provenance sidecar to nadroid-provenance/4,
# 10. schema pins: every BENCH_*.json must be one nadroid-ledger/1
#    record, and the metrics document and every Result/ledger.jsonl line
#    must carry their declared schemas (`check-json --expect-schema`).
set -euo pipefail
cd "$(dirname "$0")/.."

bench_snap=$(mktemp -d)
bench_lock=crates/bench/src/bin/benchmark/Cargo.lock
cp BENCH_serve.json BENCH_confirm.json BENCH_refute.json "$bench_lock" "$bench_snap/"
restore_benches() {
    cp "$bench_snap"/BENCH_*.json .
    cp "$bench_snap/Cargo.lock" "$bench_lock"
    rm -rf "$bench_snap"
}
trap restore_benches EXIT

cargo build --workspace --release
# cargo tree fails with "did not match any packages" when nadroid-cli
# does not depend on nadroid-datalog; any other outcome fails the gate.
if tree_out=$(cargo tree --offline -e normal -p nadroid-cli -i nadroid-datalog 2>&1); then
    echo "ci.sh: nadroid-cli depends on nadroid-datalog:"; echo "$tree_out"; exit 1
fi
echo "$tree_out" | grep -q 'did not match any packages' || {
    echo "ci.sh: cargo tree failed:"; echo "$tree_out"; exit 1; }
NADROID_THREADS=4 cargo test -q --workspace
cargo clippy --workspace --all-targets -- -D warnings
cargo fmt --all -- --check

# HB parity gate: the graph-backed filters must reproduce the
# test-local reference statement of the §6 ordering rules
# byte-for-byte on every corpus population, and the graph's closures
# must equal their Datalog solve (tests/hb_parity.rs).
cargo test -q --release --test hb_parity

# Soundness fuzz: seeded random apps mixing every pattern kind; the
# explorer must find no witness for any pair the sound filters prune.
# The apps and the search order are fixed, so the run is deterministic.
cargo run --release -p nadroid-bench --bin soundness_fuzz -- 10

# Table 1: the totals line is the paper-population invariant, and its
# harmful count comes from confirming every survivor.
table1_out=$(cargo run --release -q -p nadroid-bench --bin table1)
echo "$table1_out" | grep -qF 'totals: potential=2320 after-sound=481 after-unsound=120 harmful=88' || {
    echo "ci.sh: table1 totals drifted:"; echo "$table1_out"; exit 1; }

# Benchmark smoke: the repository benchmark is a Cargo package of its
# own, so the workspace build above does not cover it. Its tests build
# it and run every workload at smoke size, including the confirm
# oracles (planted harmful pairs confirmed, witnesses replaying to the
# exact use and free).
cargo test -q --release --offline --manifest-path crates/bench/src/bin/benchmark/Cargo.toml

explain_out=$(cargo run --release -q -p nadroid-cli --bin nadroid -- explain apps/connectbot.dsl)
echo "$explain_out" | grep -q 'racyPair(' || {
    echo "ci.sh: explain produced no derivation tree" >&2; exit 1; }
echo "$explain_out" | grep -q '(base fact)' || {
    echo "ci.sh: explain derivation has no base-fact leaves" >&2; exit 1; }
echo "$explain_out" | grep -q 'filter audit:' || {
    echo "ci.sh: explain produced no filter audit" >&2; exit 1; }

bin=target/release/nadroid

# --- confirmation smoke gate ---
# `confirm` must manifest at least one ConnectBot warning, and the
# minimized witness schedule it prints must reproduce the NPE in a
# separate `replay` process, matched back to the warning's sites.
confirm_out=$("$bin" confirm apps/connectbot.dsl)
echo "$confirm_out" | grep -q 'verdict: confirmed' || {
    echo "ci.sh: confirm produced no confirmed verdict:"; echo "$confirm_out"; exit 1; }
confirm_id=$(echo "$confirm_out" | sed -n 's/^warning //p' | head -n 1)
confirm_sched=$(echo "$confirm_out" \
    | awk '/witness schedule:/{getline; sub(/^ +/, ""); print; exit}')
[ -n "$confirm_id" ] && [ -n "$confirm_sched" ] || {
    echo "ci.sh: confirm output had no id/schedule to replay:"; echo "$confirm_out"; exit 1; }
replay_out=$("$bin" replay apps/connectbot.dsl "$confirm_sched" --id "$confirm_id")
echo "$replay_out" | grep -q 'NPE reproduced' || {
    echo "ci.sh: witness schedule did not reproduce the NPE:"; echo "$replay_out"; exit 1; }
echo "$replay_out" | grep -q "matches warning $confirm_id" || {
    echo "ci.sh: replayed NPE does not match the warning:"; echo "$replay_out"; exit 1; }
# `analyze --validate` runs the same confirmation after the report.
validate_out=$("$bin" analyze apps/connectbot.dsl --validate)
echo "$validate_out" | grep -q 'confirmed 2, unconfirmed 0, infeasible 0' || {
    echo "ci.sh: analyze --validate did not confirm both UAFs:"; echo "$validate_out"; exit 1; }

# --- run-report smoke ---
# Every phase time is a span total, so the report's `spans` array must
# name each layer.
report_file=$(mktemp)
"$bin" analyze apps/connectbot.dsl --report "$report_file" > /dev/null
"$bin" check-json "$report_file"
report_spans=$(sed -n '/"spans": \[/,/\]/p' "$report_file")
for span in parse modeling hb hb.closure detection pointsto escape detect filtering; do
    echo "$report_spans" | grep -qF "{\"name\": \"$span\"," || {
        echo "ci.sh: run report has no $span span:"; cat "$report_file"; exit 1; }
done
# With --validate the confirmation runs under the same recorder.
"$bin" analyze apps/connectbot.dsl --validate --report "$report_file" > /dev/null
"$bin" check-json "$report_file"
report_spans=$(sed -n '/"spans": \[/,/\]/p' "$report_file")
for span in confirm.directed confirm.minimize confirm.verify; do
    echo "$report_spans" | grep -qF "{\"name\": \"$span\"," || {
        echo "ci.sh: validated run report has no $span span:"; cat "$report_file"; exit 1; }
done
# FIFO delivery runs the use before the free, so the directed phase
# cannot answer the pair and the fallback drains the space.
fifo_app=$(mktemp --suffix=.dsl)
cat > "$fifo_app" <<'DSL'
app FifoPost
service Main {
    field f: Main
    cb onCreate { f = new Main  post UseR  post FreeR }
}
runnable UseR in Main { cb run { use outer.f } }
runnable FreeR in Main { cb run { outer.f = null } }
DSL
fifo_out=$("$bin" analyze "$fifo_app" --validate --report "$report_file")
echo "$fifo_out" | grep -q 'confirmed 0, unconfirmed 0, infeasible 1' || {
    echo "ci.sh: the FIFO post pair was not proven infeasible:"; echo "$fifo_out"; exit 1; }
"$bin" check-json "$report_file"
sed -n '/"spans": \[/,/\]/p' "$report_file" | grep -qF '{"name": "confirm.fallback",' || {
    echo "ci.sh: validated run report has no confirm.fallback span:"; cat "$report_file"; exit 1; }
rm -f "$report_file" "$fifo_app"

# --- perf/drift gate ---
# Re-measure the suite and compare it against the committed
# BENCH_timing.json record under the noise model; the fresh run lands
# in Result/ledger.jsonl as a `ci` record either way.
"$bin" perf gate --against BENCH_timing.json --record

# --- serve smoke gate ---
serve_out=$(mktemp)
telem_dir=$(mktemp -d)
"$bin" serve --addr 127.0.0.1:0 --workers 2 --threads 2 \
    --access-log "$telem_dir/access.jsonl" --slow-us 0 > "$serve_out" &
serve_pid=$!
trap 'kill "$serve_pid" 2>/dev/null || true; rm -f "$serve_out"; rm -rf "$telem_dir"; restore_benches' EXIT
for _ in $(seq 1 100); do
    grep -q 'listening on' "$serve_out" && break
    sleep 0.1
done
serve_addr=$(sed -n 's/.*listening on //p' "$serve_out")
[ -n "$serve_addr" ] || { echo "ci.sh: serve never announced its address" >&2; exit 1; }

"$bin" request apps/connectbot.dsl --addr "$serve_addr" | grep -q 'cached: false' || {
    echo "ci.sh: cold serve request was not computed" >&2; exit 1; }
"$bin" request apps/connectbot.dsl --addr "$serve_addr" | grep -q 'cached: true' || {
    echo "ci.sh: warm serve request missed the cache" >&2; exit 1; }
"$bin" request apps/connectbot.dsl --addr "$serve_addr" --k 3 --deadline-ms 0 \
    | grep -q 'deadline exceeded' || {
    echo "ci.sh: zero-deadline request did not time out" >&2; exit 1; }
# The timed-out worker must still serve fresh work.
"$bin" request apps/connectbot.dsl --addr "$serve_addr" | grep -q 'cached: true' || {
    echo "ci.sh: worker unhealthy after deadline-exceeded request" >&2; exit 1; }
stats_out=$("$bin" request --stats --addr "$serve_addr")
echo "$stats_out" | grep -q '"cache_hits": 2' || {
    echo "ci.sh: serve stats cache_hits inconsistent:"; echo "$stats_out"; exit 1; }
echo "$stats_out" | grep -q '"cache_misses": 2' || {
    echo "ci.sh: serve stats cache_misses inconsistent:"; echo "$stats_out"; exit 1; }
echo "$stats_out" | grep -q '"deadline_exceeded": 1' || {
    echo "ci.sh: serve stats deadline_exceeded inconsistent:"; echo "$stats_out"; exit 1; }
# The requested inner-thread config must be exported verbatim (the
# effective "threads" value is machine-bound — workers x threads is
# clamped to the core budget — so the gate checks the request echo).
echo "$stats_out" | grep -q '"threads_requested": 2' || {
    echo "ci.sh: serve stats missing threads_requested:"; echo "$stats_out"; exit 1; }
echo "$stats_out" | grep -q '"threads": ' || {
    echo "ci.sh: serve stats missing effective threads:"; echo "$stats_out"; exit 1; }
# An analyze entry holds no provenance: the first explain derives it and
# upgrades the entry, and the second reads it.
"$bin" request apps/connectbot.dsl --addr "$serve_addr" --explain | grep -q 'cached: false' || {
    echo "ci.sh: explain after analyze did not derive the provenance" >&2; exit 1; }
"$bin" request apps/connectbot.dsl --addr "$serve_addr" --explain | grep -q 'cached: true' || {
    echo "ci.sh: second explain missed the upgraded entry" >&2; exit 1; }
# A program that does not parse is answered with the parse error, which
# the client reports with a nonzero exit; the server counts it.
printf 'app {{{\n' > "$telem_dir/bad.dsl"
if bad_out=$("$bin" request "$telem_dir/bad.dsl" --addr "$serve_addr" 2>&1); then
    echo "ci.sh: unparsable program was not an error:"; echo "$bad_out"; exit 1
fi
echo "$bad_out" | grep -qF 'server error: parse error' || {
    echo "ci.sh: unparsable program got no parse error:"; echo "$bad_out"; exit 1; }
# Confirmation over the wire: the same search, minimizer and replay the
# in-process tests run, reached through serve's confirm op.
"$bin" request apps/connectbot.dsl --addr "$serve_addr" --confirm \
    | grep -q '"verdict": "confirmed"' || {
    echo "ci.sh: serve confirm request produced no confirmed verdict" >&2; exit 1; }
# Telemetry gate: the metrics op must expose per-endpoint latency
# percentiles, queue-wait, and rolling rps windows — and the document
# must validate under the in-repo JSON parser.
metrics_out=$("$bin" request --metrics --addr "$serve_addr")
for key in '"serve.latency.analyze.miss"' '"serve.queue_wait.analyze"' \
           '"p99_us"' '"rps_1s"' '"error_rate_60s"'; do
    echo "$metrics_out" | grep -qF "$key" || {
        echo "ci.sh: metrics response missing $key:"; echo "$metrics_out"; exit 1; }
done
echo "$metrics_out" | grep -q '^request id: r' || {
    echo "ci.sh: metrics response carried no request id:"; echo "$metrics_out"; exit 1; }
echo "$metrics_out" | head -n 1 > "$telem_dir/metrics.json"
"$bin" check-json "$telem_dir/metrics.json" --expect-schema nadroid-serve-metrics/1 || {
    echo "ci.sh: metrics document is not valid JSON" >&2; exit 1; }
text_out=$("$bin" request --metrics-text --addr "$serve_addr")
echo "$text_out" | grep -q 'nadroid_serve_requests_total' || {
    echo "ci.sh: metrics text missing requests_total:"; echo "$text_out"; exit 1; }
echo "$text_out" | grep -qF 'series="serve.latency.analyze.miss",quantile="0.99"' || {
    echo "ci.sh: metrics text missing analyze.miss p99:"; echo "$text_out"; exit 1; }

"$bin" request --shutdown --addr "$serve_addr" | grep -q 'shutdown acknowledged' || {
    echo "ci.sh: serve shutdown not acknowledged" >&2; exit 1; }
wait "$serve_pid" || { echo "ci.sh: serve exited nonzero" >&2; exit 1; }
grep -q '"requests": 12' "$serve_out" || {
    echo "ci.sh: serve final stats missing/inconsistent:"; cat "$serve_out"; exit 1; }
# Hits: the two warm analyzes and the second explain. Misses: the cold
# analyze, the k=3 zero-deadline request, the first explain, whose entry
# held no provenance yet, the unparsable program, and the confirm, whose
# entry held no confirmation yet. Errors: the unparsable program.
grep -q '"cache_hits": 3' "$serve_out" || {
    echo "ci.sh: serve final cache_hits != 3:"; cat "$serve_out"; exit 1; }
grep -q '"cache_misses": 5' "$serve_out" || {
    echo "ci.sh: serve final cache_misses != 5:"; cat "$serve_out"; exit 1; }
grep -q '"errors": 1$' "$serve_out" || {
    echo "ci.sh: serve final errors != 1:"; cat "$serve_out"; exit 1; }

# The access log must hold one parseable JSONL record per request, and
# `--slow-us 0` must have captured a span-tree trace for every
# computed request, both valid under the in-repo parser.
"$bin" check-json "$telem_dir/access.jsonl" --lines || {
    echo "ci.sh: access log failed JSONL validation" >&2; exit 1; }
[ "$(wc -l < "$telem_dir/access.jsonl")" -eq 12 ] || {
    echo "ci.sh: access log line count != 12:"; cat "$telem_dir/access.jsonl"; exit 1; }
slow_trace=$(ls "$telem_dir"/slow-r*.trace.json 2>/dev/null | head -n 1 || true)
[ -n "$slow_trace" ] || {
    echo "ci.sh: --slow-us 0 produced no slow traces" >&2; exit 1; }
"$bin" check-json "$slow_trace" || {
    echo "ci.sh: slow trace failed JSON validation" >&2; exit 1; }
grep -q 'serve.analyze' "$slow_trace" || {
    echo "ci.sh: slow trace has no serve.analyze span:"; cat "$slow_trace"; exit 1; }
trap restore_benches EXIT
rm -f "$serve_out"
rm -rf "$telem_dir"

cargo run --release -p nadroid-bench --bin serve_bench -- --concurrency 2

# --- confirmation drift gate ---
# Re-run the corpus sweep (its self-checks enforce >=1 confirmed, >=1
# infeasible, and replay-verification of every confirmed schedule),
# then compare the fresh `confirm` ledger record against the committed
# baseline snapshotted at the start: tallies, states, and per-app
# confirmed populations are deterministic, so any delta is drift, not
# noise.
cargo run --release -p nadroid-bench --bin confirm_bench -- --threads 2
"$bin" perf gate --against "$bench_snap/BENCH_confirm.json" --current last

# --- refutation drift gate ---
# Same shape as the confirmation gate: re-run the refutation study (its
# self-checks enforce reason-exact refutation of every planted cluster
# and survival of every kept control), then compare the fresh `refute`
# ledger record against the committed snapshot — the stage tally,
# per-reason counts, and per-app surviving populations are
# deterministic.
cargo run --release -p nadroid-bench --bin refute_bench -- --threads 2
"$bin" perf gate --against "$bench_snap/BENCH_refute.json" --current last

# Refutation explain smoke: the Gallery app plants one refutation per
# reason family plus a kept control; the rendered chains and the
# provenance sidecar's schema are pinned here (the golden test pins
# the full shape).
refute_prov=$(mktemp)
"$bin" analyze apps/gallery.dsl --provenance "$refute_prov" > /dev/null
"$bin" check-json "$refute_prov" --expect-schema nadroid-provenance/4
rm -f "$refute_prov"
refute_explain=$("$bin" explain apps/gallery.dsl)
echo "$refute_explain" | grep -q 'status: refuted (disabled)' || {
    echo "ci.sh: gallery dialog warning not refuted as disabled" >&2; exit 1; }
echo "$refute_explain" | grep -q 'status: refuted (extended-order)' || {
    echo "ci.sh: gallery fragment warning not refuted by extended order" >&2; exit 1; }
echo "$refute_explain" | grep -q 'status: survived all filters' || {
    echo "ci.sh: gallery kept control did not survive" >&2; exit 1; }
echo "$refute_explain" | grep -q 'no witness exists' || {
    echo "ci.sh: gallery refutation chains missing contradiction" >&2; exit 1; }

# Schema pins: every BENCH artifact (three of them rewritten above) is
# one nadroid-ledger/1 record, and the run ledger — which now holds at
# least the `ci` gate record plus the serve_bench, confirm_bench, and
# refute_bench records from this very run — must validate line by line.
for bench in BENCH_*.json; do
    "$bin" check-json "$bench" --expect-schema nadroid-ledger/1
done
"$bin" check-json Result/ledger.jsonl --lines --expect-schema nadroid-ledger/1
"$bin" perf list

echo "ci.sh: all gates passed"
