#!/usr/bin/env bash
# Repo gate: build, test, paper-scale exactness and a loose wall gate, and
# verify cycle outputs are bit-identical to the golden figure-3 CSV and to
# results/. Run from anywhere.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== build (release) =="
cargo build --release --workspace

echo "== clippy (deny warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== tests (release) =="
cargo test -q --workspace --release

echo "== sdvbench unit tests (BENCHMARK.json == generated text, RecordingVm replay == SdvMachine) =="
# benchmark/ is a workspace of its own, so the workspace test run above never
# enters it.
cargo test -q --offline --manifest-path benchmark/Cargo.toml

echo "== paper-scale exactness + loose wall gate (five sdvbench workloads vs benchmark/baselines/pr12.json) =="
# The golden CSVs pin the --small grids; this pins the paper-scale cells. A
# short traced run covers each workload's whole grid, and every metric below
# is a count or a ratio of counts, so it repeats to the last digit. A second,
# untraced run gates host time loosely: it fails if any cell failed or if
# sim_host_s exceeds WALL_GATE times the workload's end_to_end value in the
# baseline. Shared hosts have slow phases well past 1.3x on identical
# binaries; a perf claim is a set of recorded pairs, not this gate.
# benchmark/baselines/pr12.json is only read.
WALL_GATE=1.5
exact_line="$(mktemp /tmp/sdvbench_exact.XXXXXX.json)"
wall_line="$(mktemp /tmp/sdvbench_wall.XXXXXX.json)"
for w in scalar_latency longvec_latency shortvec_bandwidth tiles_scaleout service_small; do
    bash benchmark/run.sh --workload "$w" --seed 0 --seconds 2 --trace 1 2>/dev/null \
        | tail -n 1 >"$exact_line"
    bash benchmark/run.sh --workload "$w" --seed 0 --seconds 10 --trace 0 2>/dev/null \
        | tail -n 1 >"$wall_line"
    python3 - "$w" "$exact_line" "$wall_line" "$WALL_GATE" benchmark/baselines/pr12.json <<'PYEOF'
import json, sys
workload, line_path, wall_path, gate, baseline_path = sys.argv[1:6]
run = json.load(open(line_path))
wall = json.load(open(wall_path))
want = json.load(open(baseline_path))["workloads"][workload]
got = {name: m["value"] for name, m in run["metrics"].items()}
exact = """rvv.vinstrs rvv.elements uarch.sim_cycles uarch.ops uarch.accesses
uarch.scalar_stall_cycles uarch.vpu_mem_wait_cycles uarch.stats_hash48
memsys.l1_miss_ratio memsys.l2_miss_ratio memsys.dram_bytes memsys.coherence_msgs
noc.packets noc.link_wait_cycles engine.events bench.cache.hit_ratio
bench.server.simulated bench.server.simulated_after_warm bench.server.cache_hits
bench.server.dup_sim_ratio anchor.err_pct""".split()
layers = want["per_layer"]["metrics"]
bad = [f"{k}: {got.get(k)} != {layers[k]}" for k in exact if got.get(k) != layers[k]]
# The one value that moved since pr12.json on purpose: PR 13 fixed the
# paper-scale FFT/scalar coherence failure, so the canary reads 0 now.
zero = {"canary.fft_scalar_failed": got.get("canary.fft_scalar_failed"), "failed": run["failed"],
        "failed (untraced run)": wall["failed"]}
bad += [f"{k}: {v} != 0" for k, v in zero.items() if v != 0]
host, limit = wall["metrics"]["sim_host_s"]["value"], float(gate) * want["end_to_end"]["metrics"]["sim_host_s"]
if host > limit:
    bad.append(f"sim_host_s {host:.3f} s > {gate} x baseline = {limit:.3f} s")
if bad:
    sys.exit(f"{workload}: simulated numbers moved or host time blew the gate:\n  " + "\n  ".join(bad))
print(f"{workload}: {len(exact)} exact metrics match, canary 0, failed 0 of {run['attempted']}; "
      f"sim_host_s {host:.3f} s <= {limit:.3f} s")
PYEOF
done
rm -f "$exact_line" "$wall_line"

echo "== fig_stalls smoke (stall attribution + monotone memory-stall fraction) =="
tmp_metrics="$(mktemp /tmp/fig_stalls.XXXXXX.json)"
# --check exits nonzero unless the memory-stall fraction at +1024 falls
# monotonically as MAXVL grows, for every kernel — the paper's claim as a CI
# gate. The exported metrics JSON must also be machine-readable.
./target/release/fig_stalls --small --check --metrics-json "$tmp_metrics" >/dev/null
python3 - "$tmp_metrics" <<'PYEOF'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["schema"] == "sdv-metrics-v1", doc["schema"]
cells = doc["cells"]
assert cells, "metrics export has no cells"
assert all("stalls" in c and "cycles" in c for c in cells)
print(f"metrics JSON valid: {len(cells)} cells")
PYEOF
rm -f "$tmp_metrics"

echo "== results/ is what the binaries print (paper scale: eleven studies, three figure CSVs) =="
# results/NAME.txt is `study NAME`'s stdout and results/figN.csv the figure
# binary's CSV, byte for byte; calibrate prints wall times and has no file.
# The --small golden CSVs, at one and two threads, are a `cargo test` case
# (crates/bench/tests/study.rs).
tmp_csv2="$(mktemp /tmp/fig_paper.XXXXXX.csv)"
trap 'rm -f "$tmp_csv2"' EXIT
for name in $(./target/release/study --list | awk '$1 != "calibrate" { print $1 }'); do
    ./target/release/study "$name" --threads 2 | diff -u "results/$name.txt" -
done
for fig in fig3_latency:fig3 fig4_slowdown:fig4 fig5_bandwidth:fig5; do
    ./target/release/"${fig%%:*}" --threads 2 --csv "$tmp_csv2" >/dev/null
    diff -u "results/${fig##*:}.csv" "$tmp_csv2"
done
echo "results/*.txt and results/fig{3,4,5}.csv match"

echo "== result-cache gate (warm rerun byte-identical at <25% of cold wall-clock) =="
cache_dir="$(mktemp -d /tmp/sdv_cache.XXXXXX)"
cache_cold="$(mktemp /tmp/fig3_cold.XXXXXX.csv)"
cache_warm="$(mktemp /tmp/fig3_warm.XXXXXX.csv)"
t0=$(date +%s%N)
./target/release/fig3_latency --small --cache-dir "$cache_dir" --csv "$cache_cold" >/dev/null
t1=$(date +%s%N)
./target/release/fig3_latency --small --cache-dir "$cache_dir" --csv "$cache_warm" >/dev/null
t2=$(date +%s%N)
diff -u "$cache_cold" "$cache_warm"
diff -u results/golden/fig3_small.csv "$cache_warm"
cold_ms=$(( (t1 - t0) / 1000000 )); warm_ms=$(( (t2 - t1) / 1000000 ))
echo "fig3 cold ${cold_ms} ms, warm ${warm_ms} ms"
if (( warm_ms * 4 >= cold_ms )); then
    echo "cache gate: warm run (${warm_ms} ms) not under 25% of cold (${cold_ms} ms)" >&2
    exit 1
fi
# Warm identity for the other figure binaries through the same cache dir.
for fig in fig4_slowdown fig5_bandwidth fig_stalls; do
    f_cold="$(mktemp "/tmp/${fig}_cold.XXXXXX.csv")"
    f_warm="$(mktemp "/tmp/${fig}_warm.XXXXXX.csv")"
    ./target/release/"$fig" --small --cache-dir "$cache_dir" --csv "$f_cold" >/dev/null
    ./target/release/"$fig" --small --cache-dir "$cache_dir" --csv "$f_warm" >/dev/null
    diff -u "$f_cold" "$f_warm"
    rm -f "$f_cold" "$f_warm"
    echo "$fig warm rerun is byte-identical"
done
rm -f "$cache_cold" "$cache_warm"

echo "== cache fsck smoke (corrupt entry quarantined; rerun re-simulates) =="
# -print -quit, not `| head -1`: head closing the pipe early sends find
# SIGPIPE, which pipefail turns into exit 141 once the cache holds enough
# entries for find to keep writing.
victim="$(find "$cache_dir" -maxdepth 1 -name '*.entry' -print -quit)"
python3 - "$victim" <<'PYEOF'
import sys
path = sys.argv[1]
data = bytearray(open(path, 'rb').read())
data[len(data) // 2] ^= 1
open(path, 'wb').write(data)
PYEOF
fsck_out="$(./target/release/sweepd fsck --cache-dir "$cache_dir")"
if ! grep -qE 'quarantined now +1' <<<"$fsck_out"; then
    echo "fsck did not quarantine the corrupted entry:" >&2
    echo "$fsck_out" >&2
    exit 1
fi
# A quarantined entry is a miss, never wrong data: the rerun re-simulates
# that cell and still matches the golden CSV byte for byte.
./target/release/fig3_latency --small --cache-dir "$cache_dir" --csv "$cache_warm" >/dev/null
diff -u results/golden/fig3_small.csv "$cache_warm"
echo "fsck quarantined the corrupt entry; rerun healed the cache"

echo "== kill and resume (SIGKILL mid-sweep; same --cache-dir finishes the figure) =="
# The cache is the one way to resume: every completed cell was published
# with fsync + rename before the kill, so the rerun simulates only what is
# missing and the figure is the golden one. Correct for any kill point — no
# cell cached yet, all of them, or mid-store: the only thing a killed writer
# can leave behind is its own tmp file, never a damaged entry, so fsck must
# quarantine exactly those strays (0 or 1 with one thread) and nothing else.
kill_dir="$(mktemp -d /tmp/sdv_kill.XXXXXX)"
timeout -s KILL 0.3 ./target/release/fig3_latency --small --threads 1 \
    --cache-dir "$kill_dir" >/dev/null 2>&1 || true
survivors="$(find "$kill_dir" -maxdepth 1 -name '*.entry' | wc -l)"
strays="$(find "$kill_dir" -maxdepth 1 -name '*.tmp*' | wc -l)"
./target/release/fig3_latency --small --threads 1 --cache-dir "$kill_dir" --csv "$cache_warm" >/dev/null
diff -u results/golden/fig3_small.csv "$cache_warm"
fsck_out="$(./target/release/sweepd fsck --cache-dir "$kill_dir" 2>/dev/null)"
if ! grep -qE "quarantined now +${strays}\$" <<<"$fsck_out"; then
    echo "fsck after kill+resume quarantined something other than the $strays stray tmp file(s):" >&2
    echo "$fsck_out" >&2
    exit 1
fi
rm -rf "$kill_dir" "$cache_warm"
echo "killed with $survivors cells cached; resumed run matches the golden CSV; no entry quarantined"

echo "== cache gc smoke (LRU eviction empties an over-budget cache) =="
./target/release/sweepd gc --cache-dir "$cache_dir" --max-bytes 1
if [ -n "$(find "$cache_dir" -name '*.entry' -print -quit)" ]; then
    echo "gc --max-bytes 1 left entries behind" >&2
    exit 1
fi
rm -rf "$cache_dir"

echo "== sweepd smoke (serve on --port 0, duplicate-heavy submit, status, shutdown) =="
sweepd_log="$(mktemp /tmp/sweepd.XXXXXX.log)"
./target/release/sweepd serve --port 0 --small --threads 2 2>"$sweepd_log" &
sweepd_pid=$!
sweepd_addr=""
for _ in $(seq 1 50); do
    sweepd_addr="$(sed -n 's/.*serving workload .* on \([0-9.:]*\) .*/\1/p' "$sweepd_log")"
    [ -n "$sweepd_addr" ] && break
    sleep 0.1
done
if [ -z "$sweepd_addr" ]; then
    echo "sweepd did not come up:" >&2; cat "$sweepd_log" >&2; exit 1
fi
submit_err="$(./target/release/sweepd submit --addr "$sweepd_addr" --small \
    --cells "SPMV,scalar,0,64;SPMV,vl=64,0,64;SPMV,scalar,0,64" 2>&1 >/dev/null)"
if ! grep -q "2 unique cells; server lifetime: 2 simulated" <<<"$submit_err"; then
    echo "sweepd submit: expected duplicate-collapsed summary, got: $submit_err" >&2
    exit 1
fi
status_out="$(./target/release/sweepd status --addr "$sweepd_addr")"
if ! grep -q "workers" <<<"$status_out"; then
    echo "sweepd status: no worker health in: $status_out" >&2
    exit 1
fi
# The warm path: the whole fig3 grid through the server twice. The second
# pass must be answered from the memo alone — the server's lifetime
# `simulated` count does not move — with the same bytes, the golden ones.
wire_cold="$(mktemp /tmp/fig3_wire_cold.XXXXXX.csv)"
wire_warm="$(mktemp /tmp/fig3_wire_warm.XXXXXX.csv)"
server_simulated() { ./target/release/sweepd stats --addr "$sweepd_addr" | awk '$1 == "simulated" { print $2 }'; }
./target/release/fig3_latency --small --server "$sweepd_addr" --csv "$wire_cold" >/dev/null
sim_cold="$(server_simulated)"
./target/release/fig3_latency --small --server "$sweepd_addr" --csv "$wire_warm" >/dev/null
sim_warm="$(server_simulated)"
cmp "$wire_cold" "$wire_warm"
diff -u results/golden/fig3_small.csv "$wire_warm"
if [ -z "$sim_cold" ] || [ "$sim_cold" != "$sim_warm" ]; then
    echo "sweepd warm resubmit simulated again: $sim_cold -> $sim_warm cells" >&2
    exit 1
fi
rm -f "$wire_cold" "$wire_warm"
./target/release/sweepd shutdown --addr "$sweepd_addr" >/dev/null
wait "$sweepd_pid"
rm -f "$sweepd_log"
echo "sweepd round trip ok ($submit_err); warm resubmit byte-identical, $sim_warm cells simulated once"

echo "== sweepd graceful shutdown (SIGTERM: drain in-flight submit, exit 0) =="
sweepd_log="$(mktemp /tmp/sweepd_term.XXXXXX.log)"
./target/release/sweepd serve --port 0 --small --threads 1 2>"$sweepd_log" &
sweepd_pid=$!
sweepd_addr=""
for _ in $(seq 1 50); do
    sweepd_addr="$(sed -n 's/.*serving workload .* on \([0-9.:]*\) .*/\1/p' "$sweepd_log")"
    [ -n "$sweepd_addr" ] && break
    sleep 0.1
done
[ -n "$sweepd_addr" ] || { echo "sweepd did not come up:" >&2; cat "$sweepd_log" >&2; exit 1; }
drain_out="$(mktemp /tmp/sweepd_drain.XXXXXX.csv)"
./target/release/sweepd submit --addr "$sweepd_addr" --small \
    --cells "SPMV,scalar,0,64;SPMV,vl=64,0,64;SPMV,vl=256,0,64;BFS,scalar,0,64;PR,scalar,0,64;FFT,scalar,0,64" \
    >"$drain_out" 2>/dev/null &
submit_pid=$!
# TERM the server as soon as the first result lands (sweep in flight).
for _ in $(seq 1 100); do
    [ -s "$drain_out" ] && break
    sleep 0.1
done
[ -s "$drain_out" ] || { echo "submit streamed nothing before TERM" >&2; exit 1; }
kill -TERM "$sweepd_pid"
if ! wait "$submit_pid"; then
    echo "in-flight submit failed during the drain" >&2
    exit 1
fi
if ! wait "$sweepd_pid"; then
    echo "sweepd did not exit 0 after SIGTERM" >&2; cat "$sweepd_log" >&2
    exit 1
fi
if [ "$(wc -l <"$drain_out")" -ne 6 ]; then
    echo "drained submit returned $(wc -l <"$drain_out") of 6 cells" >&2
    exit 1
fi
grep -q "draining" "$sweepd_log" || { echo "no drain log line" >&2; cat "$sweepd_log" >&2; exit 1; }
grep -q "shut down cleanly" "$sweepd_log" || { echo "no clean-shutdown line" >&2; exit 1; }
rm -f "$sweepd_log" "$drain_out"
echo "SIGTERM drained the in-flight sweep and exited 0"

echo "== sweepd client retry (submit --retries outlives a late server start) =="
retry_port="$(python3 -c 'import socket; s=socket.socket(); s.bind(("127.0.0.1",0)); print(s.getsockname()[1])')"
retry_log="$(mktemp /tmp/sweepd_retry.XXXXXX.log)"
( sleep 0.7; exec ./target/release/sweepd serve --port "$retry_port" --small --threads 1 2>"$retry_log" ) &
serve_job=$!
# The first connect attempts hit a dead port; seeded backoff carries the
# client across the server's startup window.
retry_out="$(./target/release/sweepd submit --addr "127.0.0.1:$retry_port" --retries 10 \
    --small --cells "SPMV,scalar,0,64" 2>&1 >/dev/null)" || {
    echo "retrying submit failed: $retry_out" >&2
    exit 1
}
grep -q "1 unique cells" <<<"$retry_out" || { echo "unexpected summary: $retry_out" >&2; exit 1; }

echo "== sweepd bind conflict (second serve on a busy port exits 5) =="
set +e
dup_out="$(./target/release/sweepd serve --port "$retry_port" --small 2>&1)"
dup_rc=$?
set -e
if [ "$dup_rc" -ne 5 ]; then
    echo "expected exit 5 on EADDRINUSE, got $dup_rc: $dup_out" >&2
    exit 1
fi
grep -q "address already in use" <<<"$dup_out" || { echo "unhelpful bind error: $dup_out" >&2; exit 1; }
./target/release/sweepd shutdown --addr "127.0.0.1:$retry_port" >/dev/null
wait "$serve_job"
rm -f "$retry_log"
echo "client retry + bind-conflict exit codes ok"

echo "== tile scale-out gate (fig_scale counter sums + warm cache) =="
# The golden-CSV comparison (all 1,704 rows of results/golden/
# fig_scale_small.csv) runs under `cargo test`:
# crates/bench/tests/scale_out.rs drives the built binary.
scale_cache="$(mktemp -d /tmp/sdv_scale_cache.XXXXXX)"
scale_a="$(mktemp /tmp/fig_scale_a.XXXXXX.csv)"
scale_b="$(mktemp /tmp/fig_scale_b.XXXXXX.csv)"
# --check enforces the exact-sum invariants (per-bank directory counters vs
# aggregates, per-tile stalls vs unprefixed sums) on every topology.
./target/release/fig_scale --small --check --tiles 1,4,16 --vls 8,256 \
    --cache-dir "$scale_cache" --csv "$scale_a" >/dev/null
# Warm rerun at a different thread count: multi-tile sweeps must replay
# from the cache byte-identically — topology is part of every cache key.
./target/release/fig_scale --small --check --tiles 1,4,16 --vls 8,256 \
    --cache-dir "$scale_cache" --threads 1 --csv "$scale_b" >/dev/null
diff -u "$scale_a" "$scale_b"
rm -rf "$scale_cache" "$scale_a" "$scale_b"
echo "fig_scale counter sums hold; warm rerun byte-identical"

echo "== multi-tile sweepd smoke (4-tile server, topology-matched submit) =="
tiled_log="$(mktemp /tmp/sweepd_tiled.XXXXXX.log)"
./target/release/sweepd serve --port 0 --small --threads 2 --tiles 4 2>"$tiled_log" &
tiled_pid=$!
tiled_addr=""
for _ in $(seq 1 50); do
    tiled_addr="$(sed -n 's/.*serving workload .* on \([0-9.:]*\) .*/\1/p' "$tiled_log")"
    [ -n "$tiled_addr" ] && break
    sleep 0.1
done
[ -n "$tiled_addr" ] || { echo "tiled sweepd did not come up:" >&2; cat "$tiled_log" >&2; exit 1; }
# A topology-matched submit streams real multi-tile results...
tiled_out="$(./target/release/sweepd submit --addr "$tiled_addr" --small --tiles 4 \
    --cells "SPMV,vl=256,0,64;BFS,vl=256,0,64" 2>/dev/null)"
[ "$(wc -l <<<"$tiled_out")" -eq 2 ] || { echo "tiled submit returned: $tiled_out" >&2; exit 1; }
# ...and a topology-mismatched client (tiles=1 identity) must be rejected,
# not served wrong-topology numbers.
set +e
mismatch_out="$(./target/release/sweepd submit --addr "$tiled_addr" --small \
    --cells "SPMV,vl=256,0,64" 2>&1 >/dev/null)"
mismatch_rc=$?
set -e
if [ "$mismatch_rc" -eq 0 ]; then
    echo "topology-mismatched submit was wrongly accepted" >&2
    exit 1
fi
./target/release/sweepd shutdown --addr "$tiled_addr" >/dev/null
wait "$tiled_pid"
rm -f "$tiled_log"
echo "4-tile server served matched clients and rejected mismatched identity"

echo "== chaos soak (20 seeded service-fault runs, bit-identical to baseline) =="
# Every service fault kind armed per seed (dropped connections, delayed
# responses, killed workers, corrupted cache entries), then a chaos-free
# healing pass over the same cache: all results must match the fault-free
# local baseline exactly. Determinism extends through the failure paths.
./target/release/chaos_soak --runs 20 --threads 2

echo "== fault-injection smoke (wedged credit must die cleanly, exit 4) =="
# A wedged VPU line credit must be caught by the forward-progress watchdog
# as a structured Deadlock diagnostic — not a hang, not a bare panic.
set +e
chaos_out="$(./target/release/chaos_smoke --fault wedge-credit 2>&1)"
chaos_rc=$?
set -e
if [ "$chaos_rc" -ne 4 ]; then
    echo "chaos_smoke: expected exit 4, got $chaos_rc" >&2
    echo "$chaos_out" >&2
    exit 1
fi
if ! grep -q "Deadlock at cycle" <<<"$chaos_out"; then
    echo "chaos_smoke: no Deadlock diagnostic in output:" >&2
    echo "$chaos_out" >&2
    exit 1
fi
echo "fault caught: $(grep -m1 'Deadlock at cycle' <<<"$chaos_out")"

echo "== check.sh: all gates passed =="
