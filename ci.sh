#!/usr/bin/env bash
# Local CI gate — the same steps .github/workflows/ci.yml runs.
#
# Usage: ./ci.sh
#
# The workspace has no crates.io dependencies (rand/proptest are vendored
# under devstubs/), and the perfbench/ host-time benchmark is a separate
# package built against crates/ by path, so every step below works offline.
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo clippy (deny warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo clippy triarch-pool (deny unwrap/expect) =="
cargo clippy -p triarch-pool --all-targets -- -D warnings \
  -D clippy::unwrap_used -D clippy::expect_used

echo "== cargo clippy triarch-metrics (deny unwrap/expect) =="
cargo clippy -p triarch-metrics --all-targets -- -D warnings \
  -D clippy::unwrap_used -D clippy::expect_used

echo "== cargo clippy triarch-profile (deny unwrap/expect) =="
cargo clippy -p triarch-profile --all-targets -- -D warnings \
  -D clippy::unwrap_used -D clippy::expect_used

# triarch-dpu carries crate-level #![warn(clippy::unwrap_used,
# clippy::expect_used)]; -D warnings promotes them to errors.
echo "== cargo clippy triarch-dpu (deny unwrap/expect) =="
cargo clippy -p triarch-dpu --all-targets -- -D warnings

# triarch-serve carries crate-level #![warn(clippy::unwrap_used,
# clippy::expect_used)], so -D warnings alone denies them without
# poisoning its workspace dependencies (core is allowed its expects).
echo "== cargo clippy triarch-serve (deny unwrap/expect) =="
cargo clippy -p triarch-serve --all-targets -- -D warnings

# triarch-timeline carries crate-level #![warn(clippy::unwrap_used,
# clippy::expect_used)]; -D warnings promotes them to errors.
echo "== cargo clippy triarch-timeline (deny unwrap/expect) =="
cargo clippy -p triarch-timeline --all-targets -- -D warnings

echo "== cargo clippy serve_durability suite (deny warnings) =="
cargo clippy -p triarch-bench --test serve_durability -- -D warnings

# The obs module and its validation suite ride the same crate-level
# unwrap/expect lints; the test target needs its own invocation.
echo "== cargo clippy serve_validation suite (deny warnings) =="
cargo clippy -p triarch-serve --test serve_validation -- -D warnings

echo "== cargo build --release =="
cargo build --release --workspace

echo "== cargo test =="
cargo test -q --workspace

# perfbench/ is its own workspace built against crates/ by path, so a
# program-API change that breaks the benchmark fails here.
echo "== perfbench build + unit tests =="
cargo build --release --offline --manifest-path perfbench/Cargo.toml
cargo test --offline --manifest-path perfbench/Cargo.toml

echo "== repro faultsweep smoke (deterministic, 2 campaigns) =="
out1="$(cargo run --release -q -p triarch-bench --bin repro -- faultsweep --campaigns 2)"
out2="$(cargo run --release -q -p triarch-bench --bin repro -- faultsweep --campaigns 2)"
echo "$out1"
if [ "$out1" != "$out2" ]; then
  echo "faultsweep is not deterministic" >&2
  exit 1
fi

# Fault effects must land on exactly the words they did when the goldens
# were captured: a deterministic flip one word off changes the outcome
# classes without breaking run-to-run determinism.
echo "== repro faultsweep matches the committed goldens =="
cargo run --release -q -p triarch-bench --bin repro -- faultsweep --campaigns 2 \
  2>/dev/null > target/ci-faultsweep.txt
diff -u tests/golden/faultsweep-campaigns2.txt target/ci-faultsweep.txt
cargo run --release -q -p triarch-bench --bin repro -- faultsweep --small --campaigns 8 \
  2>/dev/null > target/ci-faultsweep-small.txt
diff -u tests/golden/faultsweep-small-campaigns8.txt target/ci-faultsweep-small.txt

# The paper-scale hardware counters (cache hits, misses, evictions and
# write-backs, DRAM rows, TLB misses, cycles) must match the committed
# golden line for line. Only the host wall-time gauges (`triarch_host_*`)
# differ between runs, so they are left out of the comparison.
echo "== repro metrics (paper scale) matches the committed golden =="
cargo run --release -q -p triarch-bench --bin repro -- metrics target/ci-metrics-paper --jobs 2 \
  >/dev/null 2>&1
grep -v triarch_host_ target/ci-metrics-paper/metrics.prom > target/ci-metrics-paper.prom
diff -u tests/golden/metrics-paper.prom target/ci-metrics-paper.prom

echo "== parallel byte-identity smoke (--jobs 1 vs --jobs 2) =="
j1="$(cargo run --release -q -p triarch-bench --bin repro -- --jobs 1 table3 breakdowns 2>/dev/null)"
j2="$(cargo run --release -q -p triarch-bench --bin repro -- --jobs 2 table3 breakdowns 2>/dev/null)"
if [ "$j1" != "$j2" ]; then
  echo "table3/breakdowns output differs between --jobs 1 and --jobs 2" >&2
  exit 1
fi
f1="$(cargo run --release -q -p triarch-bench --bin repro -- --jobs 1 faultsweep --small --campaigns 2 2>/dev/null)"
f2="$(cargo run --release -q -p triarch-bench --bin repro -- --jobs 2 faultsweep --small --campaigns 2 2>/dev/null)"
if [ "$f1" != "$f2" ]; then
  echo "faultsweep output differs between --jobs 1 and --jobs 2" >&2
  exit 1
fi

echo "== dse smoke (small workloads, 2 workers) =="
dse_out="$(cargo run --release -q -p triarch-bench --bin repro -- dse --small --jobs 2 2>/dev/null)"
echo "$dse_out" | grep -q "Design-space exploration" || {
  echo "dse smoke produced no report" >&2
  exit 1
}
if echo "$dse_out" | grep -q "\[FAIL\]"; then
  echo "dse smoke reported a failing finding" >&2
  echo "$dse_out" >&2
  exit 1
fi

echo "== metrics conservation smoke (drift 0 on all 18 cells) =="
m="$(cargo run --release -q -p triarch-bench --bin repro -- metrics target/ci-metrics --small --jobs 2 2>/dev/null)"
drifts="$(echo "$m" | grep -c "cycle conservation drift 0$" || true)"
if [ "$drifts" != "18" ]; then
  echo "expected 18 cells with cycle conservation drift 0, saw $drifts" >&2
  echo "$m" >&2
  exit 1
fi
test -s target/ci-metrics/metrics.prom || {
  echo "metrics.prom was not written" >&2
  exit 1
}

echo "== flame smoke (fold drift 0 on all 18 cells) =="
fl="$(cargo run --release -q -p triarch-bench --bin repro -- flame target/ci-flame --small --jobs 2 2>/dev/null)"
fd="$(echo "$fl" | grep -c "fold drift 0$" || true)"
if [ "$fd" != "18" ]; then
  echo "expected 18 cells with fold drift 0, saw $fd" >&2
  echo "$fl" >&2
  exit 1
fi
test -s target/ci-flame/viram-corner-turn.folded || {
  echo "collapsed-stack files were not written" >&2
  exit 1
}

echo "== HTML report smoke (all 18 cells, byte-identical regeneration) =="
cargo run --release -q -p triarch-bench --bin repro -- \
  report target/ci-report --small --campaigns 2 --jobs 2 --quiet >/dev/null
cargo run --release -q -p triarch-bench --bin repro -- \
  report target/ci-report-again --small --campaigns 2 --jobs 1 --quiet >/dev/null
for arch in PPC Altivec VIRAM Imagine Raw DPU; do
  for kernel in "Corner Turn" CSLC "Beam Steering"; do
    grep -q "$arch / $kernel" target/ci-report/report.html || {
      echo "report.html is missing cell $arch / $kernel" >&2
      exit 1
    }
  done
done
if ! cmp -s target/ci-report/report.html target/ci-report-again/report.html; then
  echo "report.html is not byte-identical across --jobs 2 and --jobs 1 runs" >&2
  exit 1
fi

echo "== timeline smoke (occupancy drift 0, byte-identity across --jobs) =="
cargo run --release -q -p triarch-bench --bin repro -- \
  timeline target/ci-timeline --small --jobs 2 --quiet > target/ci-timeline-stdout.txt
td="$(grep -c "occupancy drift 0$" target/ci-timeline-stdout.txt || true)"
if [ "$td" != "18" ]; then
  echo "expected 18 cells with occupancy drift 0, saw $td" >&2
  cat target/ci-timeline-stdout.txt >&2
  exit 1
fi
cargo run --release -q -p triarch-bench --bin repro -- \
  timeline target/ci-timeline-again --small --jobs 1 --quiet >/dev/null
for f in timeline.json viram-corner-turn.timeline.csv viram-corner-turn.timeline.svg; do
  test -s "target/ci-timeline/$f" || {
    echo "timeline artifact $f was not written" >&2
    exit 1
  }
  cmp -s "target/ci-timeline/$f" "target/ci-timeline-again/$f" || {
    echo "timeline artifact $f is not byte-identical across --jobs 2 and --jobs 1" >&2
    exit 1
  }
done
wd="$(cargo run --release -q -p triarch-bench --bin repro -- \
  profdiff --windows target/ci-timeline/timeline.json target/ci-timeline-again/timeline.json 2>/dev/null)"
echo "$wd" | grep -q "profdiff --windows: no differences" || {
  echo "windowed self-diff of the timeline artifact found differences" >&2
  echo "$wd" >&2
  exit 1
}

echo "== profdiff self-diff is empty on the committed artifact =="
pd="$(cargo run --release -q -p triarch-bench --bin repro -- \
  profdiff BENCH_table3.json BENCH_table3.json 2>/dev/null)"
echo "$pd" | grep -q "profdiff: no differences" || {
  echo "profdiff of the committed artifact against itself found differences" >&2
  echo "$pd" >&2
  exit 1
}

echo "== serve round-trip smoke (daemon vs one-shot, warm cache hit) =="
serve_sock="target/ci-serve.sock"
cargo run --release -q -p triarch-bench --bin repro -- \
  serve --addr "unix:$serve_sock" --workers 2 --queue 8 --jobs 2 --quiet &
serve_pid=$!
servectl() {
  cargo run --release -q -p triarch-bench --bin servectl -- \
    --addr "unix:$serve_sock" --quiet "$@"
}
serve_fail() {
  echo "$1" >&2
  kill "$serve_pid" 2>/dev/null || true
  exit 1
}
cargo run --release -q -p triarch-bench --bin servectl -- \
  --addr "unix:$serve_sock" --quiet --connect-retries 50 ping \
  || serve_fail "serve daemon never became reachable"
one_shot="$(cargo run --release -q -p triarch-bench --bin repro -- --jobs 2 table3 2>/dev/null)"
cold="$(servectl submit table3)" || serve_fail "cold table3 submit failed"
warm="$(servectl submit table3)" || serve_fail "warm table3 submit failed"
[ "$cold" = "$one_shot" ] || serve_fail "served table3 differs from one-shot repro table3"
[ "$cold" = "$warm" ] || serve_fail "warm cache hit is not byte-identical to the cold miss"
servectl stats | grep -qx "triarch_serve_cache_hits 1" \
  || serve_fail "stats did not count exactly one cache hit"
servectl shutdown || serve_fail "serve shutdown failed"
wait "$serve_pid" || serve_fail "serve daemon exited non-zero"
test ! -e "$serve_sock" || serve_fail "serve daemon left its socket file behind"

echo "== serve durability smoke (SIGKILL, recover, corrupt record) =="
# Run the binaries directly (not via cargo run) so kill -9 hits the
# daemon itself, exactly like a real infrastructure failure.
dur_sock="target/ci-durable.sock"
dur_cache="target/ci-durable-cache"
rm -rf "$dur_cache"
durctl() {
  ./target/release/servectl --addr "unix:$dur_sock" --quiet "$@"
}
dur_start() {
  ./target/release/repro serve --addr "unix:$dur_sock" --cache-dir "$dur_cache" --jobs 2 --quiet &
  dur_pid=$!
  ./target/release/servectl --addr "unix:$dur_sock" --quiet --connect-retries 50 ping \
    || dur_fail "durable daemon never became reachable"
}
dur_fail() {
  echo "$1" >&2
  kill -9 "$dur_pid" 2>/dev/null || true
  exit 1
}
dur_start
cold="$(durctl submit table3)" || dur_fail "cold table3 submit failed"
kill -9 "$dur_pid"
wait "$dur_pid" 2>/dev/null || true
# Restart after the SIGKILL: the cache recovers from disk and the warm
# response is byte-identical to the cold miss and to one-shot repro.
dur_start
durctl stats | grep -qx "triarch_serve_persist_loaded 1" \
  || dur_fail "restart did not recover exactly one cache entry"
warm="$(durctl submit table3)" || dur_fail "warm submit after restart failed"
[ "$warm" = "$cold" ] || dur_fail "post-kill-restart response differs from the cold miss"
[ "$warm" = "$one_shot" ] || dur_fail "post-kill-restart response differs from one-shot repro table3"
durctl shutdown || dur_fail "durable daemon shutdown failed"
wait "$dur_pid" || dur_fail "durable daemon exited non-zero"
# Corrupt the stored record: the next restart must skip it (counted,
# no panic) and recompute the identical artifact as a fresh miss.
dur_rec="$(ls "$dur_cache"/*.trsc | head -1)"
dd if=/dev/zero of="$dur_rec" bs=1 count=8 seek=40 conv=notrunc status=none
dur_start
durctl stats | grep -qx "triarch_serve_persist_skipped_corrupt 1" \
  || dur_fail "restart did not count the corrupt record"
redo="$(durctl submit table3)" || dur_fail "resubmit after corruption failed"
[ "$redo" = "$one_shot" ] || dur_fail "recomputed response differs from one-shot repro table3"
durctl shutdown || dur_fail "durable daemon shutdown failed"
wait "$dur_pid" || dur_fail "durable daemon exited non-zero"

echo "== serve observability smoke (access log, A/B identity, top) =="
obs_sock="target/ci-obs.sock"
obs_log="target/ci-obs-access.jsonl"
rm -f "$obs_log"
./target/release/repro serve --addr "unix:$obs_sock" --access-log "$obs_log" --jobs 2 --quiet &
obs_pid=$!
obsctl() {
  ./target/release/servectl --addr "unix:$obs_sock" --quiet "$@"
}
obs_fail() {
  echo "$1" >&2
  kill -9 "$obs_pid" 2>/dev/null || true
  exit 1
}
./target/release/servectl --addr "unix:$obs_sock" --quiet --connect-retries 50 ping \
  || obs_fail "observability daemon never became reachable"
cold="$(obsctl submit table3)" || obs_fail "cold table3 submit failed"
warm="$(obsctl submit table3)" || obs_fail "warm table3 submit failed"
# A/B determinism at zero tolerance: with the access log on, the served
# artifacts are byte-identical to the unlogged one-shot run —
# observability never touches the deterministic surface.
[ "$cold" = "$one_shot" ] || obs_fail "logged daemon output differs from one-shot repro table3"
[ "$cold" = "$warm" ] || obs_fail "warm hit differs from cold miss under --access-log"
obsctl top --count 1 | grep -q "serve top" || obs_fail "servectl top printed no dashboard header"
obsctl shutdown || obs_fail "observability daemon shutdown failed"
wait "$obs_pid" || obs_fail "observability daemon exited non-zero"
[ "$(wc -l < "$obs_log")" -eq 2 ] || obs_fail "expected exactly two access-log records"
sed -n 1p "$obs_log" | grep -q '"outcome":"miss"' || obs_fail "first record is not a miss"
sed -n 2p "$obs_log" | grep -q '"outcome":"hit"' || obs_fail "second record is not a hit"
for phase in accept_us queue_us lookup_us build_us persist_us respond_us; do
  [ "$(grep -c "\"$phase\":[0-9]" "$obs_log")" -eq 2 ] \
    || obs_fail "phase timing $phase missing or malformed in the access log"
done
./target/release/servectl tail "$obs_log" | grep -q "req-" \
  || obs_fail "servectl tail did not render the records"

echo "== perf gate (fresh BENCH_table3.json vs committed baseline) =="
# Tolerance is explicit: the simulators are deterministic, so 0 drift is
# expected. Override with TRIARCH_PERF_TOLERANCE=<fraction> or skip an
# intentional baseline move with TRIARCH_PERF_SKIP=1 (refresh the baseline
# via `repro -- bench --json BENCH_table3.json` in the same change).
cargo run --release -q -p triarch-bench --bin repro -- \
  bench target/BENCH_fresh.json --json >/dev/null 2>&1
TRIARCH_PERF_TOLERANCE="${TRIARCH_PERF_TOLERANCE:-0}" \
  cargo run --release -q -p triarch-bench --bin perfgate -- \
  BENCH_table3.json target/BENCH_fresh.json

echo "== perfgate rejects a malformed artifact =="
echo '{"schema_version": 1}' > target/BENCH_bad.json
if cargo run --release -q -p triarch-bench --bin perfgate -- \
  BENCH_table3.json target/BENCH_bad.json 2>/dev/null; then
  echo "perfgate accepted a schema-invalid artifact" >&2
  exit 1
fi

echo "== repro rejects unknown selectors and bad --jobs =="
if cargo run --release -q -p triarch-bench --bin repro -- no-such-exhibit 2>/dev/null; then
  echo "repro accepted an unknown selector" >&2
  exit 1
fi
if cargo run --release -q -p triarch-bench --bin repro -- --jobs 0 table1 2>/dev/null; then
  echo "repro accepted --jobs 0" >&2
  exit 1
fi
if cargo run --release -q -p triarch-bench --bin repro -- --json table3 2>/dev/null; then
  echo "repro accepted --json without the bench selector" >&2
  exit 1
fi
if cargo run --release -q -p triarch-bench --bin repro -- timeline --window 0 2>/dev/null; then
  echo "repro accepted --window 0" >&2
  exit 1
fi
if cargo run --release -q -p triarch-bench --bin repro -- --windows table1 2>/dev/null; then
  echo "repro accepted --windows without the profdiff selector" >&2
  exit 1
fi

echo "== cargo doc (deny warnings) =="
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

echo "CI OK"
