#!/usr/bin/env bash
# Repo-wide checks: formatting, lints (warnings are errors), tests. Runs in
# place: the workspace has no crates.io dependencies, so there is nothing
# to fetch and nothing to mirror.
# Usage: scripts/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check"
cargo fmt --all -- --check

echo "== cargo clippy -- -D warnings"
cargo clippy --all-targets -- -D warnings

echo "== cargo doc --no-deps (warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --quiet

echo "== cargo test -q --locked"
cargo test -q --locked

echo "== one event loop, one thread primitive (deleted paths stay deleted)"
if grep -rnE 'run_serial|ForwardingUpdate|FaultUpdate \{|FluidUpdate|crossbeam' crates/*/src; then
  echo "a deleted engine path or dependency is back" >&2 && exit 1
fi

echo "== packets stay put (by-value device queues and the hashed port map stay deleted)"
if grep -rnE 'VecDeque<QueuedPacket>|HashMap<u16' crates/netsim/src; then
  echo "a device queue holding packets by value, or a hashed port demux, is back" >&2 && exit 1
fi

echo "== std-only workspace (deleted dependencies stay deleted)"
if grep -nE 'serde|proptest|\[patch' Cargo.toml crates/*/Cargo.toml \
  || grep -rn 'serde' crates/*/src; then
  echo "a crates.io dependency (or a [patch] for one) is back" >&2 && exit 1
fi

echo "== benchmark harness: self-tests + pinned-output smoke (seeds 2020 and 7)"
# benchmark/ is its own package (vendored API stubs, always --offline). The
# smoke run drives all six workloads at toy sizes and fails unless every
# repetition reproduces the outputs pinned in benchmark/expected/smoke/, so
# an engine change that moves one simulated bit stops here.
cargo test -q --offline --manifest-path benchmark/Cargo.toml
cargo run -q --release --offline --manifest-path benchmark/Cargo.toml -- --smoke > /dev/null
cargo run -q --release --offline --manifest-path benchmark/Cargo.toml -- --smoke --seed 7 \
  > /dev/null

echo "== link-delay cubics vs exact propagation delay: 10^7 seeded samples, release arithmetic"
# The packet engine's per-hop delay, a per-device link memo's cubic, must
# equal the exact geometry's to the nanosecond whatever the memos and the
# satellite samples hold; the 10^6-sample debug run is part of `cargo test`
# above.
cargo test -q --release -p hypatia-constellation --lib ephemeris::tests -- --include-ignored

echo "== SSSP repair vs full Dijkstra: K1 and S1 x 100 destinations x 200 snapshots, release arithmetic"
# Every repaired tree must equal a from-scratch one whatever the router's
# cache holds; the 240-chain debug-mode fuzz is part of `cargo test` above,
# this adds the benchmark's shells under its flap process at full size.
# The full-size gate also fails if the runner-up-gap certificates skip
# fewer than 80 % of the vertex scans on K1 or S1, so a certificate that
# silently stops certifying shows up here rather than as a slow benchmark.
cargo test -q --release -p hypatia-routing --lib incremental::tests -- --include-ignored

echo "== event queue with debug_asserts off: bucketed drain + late heap, 10^6-entry slot, pool storage bound"
# The bucketed drain (bin count, scatter, per-bin sort) and the run/late
# merge must equal the heap oracle with optimizations on too; the
# million-entry one-slot pile-up and the pool-storage bound under a
# line-rate load (pool <= 2 x peak pending + a block per occupied bucket)
# are too slow for the debug run.
cargo test -q --release -p hypatia-netsim --lib event::tests -- --include-ignored
# Slot-carrying device queues, the slab-conservation audit on every exit
# path, and the image's byte-compatibility (the pinned mid-run images of
# UDP, ping, on/off, bulk UDP, hybrid fluid and TCP under every congestion
# controller; malformed queue entries rejected), without debug's overflow
# checks.
cargo test -q --release -p hypatia-netsim --lib -- --include-ignored \
  device::tests audit::tests node::tests sim::tests::every_exit sim::tests::mid_run_image \
  sim::tests::audit_is_clean sim::tests::restore_rejects checkpoint::tests
cargo test -q --release -p hypatia-transport --test tcp_end_to_end mid_run_tcp_images

echo "== fluid solver under release arithmetic: differential fuzz, K1 gate + hybrid shard tests"
# The link-id solver — reused paths, lazy residuals — must match the
# map-based oracle bit for bit with optimizations on too (the debug run is
# part of `cargo test` above); the ignored gate adds the benchmark's scale:
# K1, 100 cities, 10^5 gravity flows, 31 snapshots, with and without
# satellite flapping.
cargo test -q --release -p hypatia-netsim --lib fluid::tests -- --include-ignored
cargo test -q --release -p hypatia --lib experiments::hybrid

echo "== ext_failure_resilience smoke run (spec round-trip + faulted sim)"
smoke_dir="$(mktemp -d)"
trap 'rm -rf "$smoke_dir"' EXIT
cargo run --release -q -p hypatia-bench --bin run_experiment -- \
  ext_failure_resilience --print-spec \
  --set duration_s=5 --set cities=10 --set pairs="Tokyo:Cairo" \
  --set fail_fracs=0.1 --set mttr_s=5 --set repair_churn_threshold=0.2 \
  > "$smoke_dir/spec.json"
# A printed spec reads back and prints the same bytes.
cargo run --release -q -p hypatia-bench --bin run_experiment -- \
  --spec "$smoke_dir/spec.json" --print-spec > "$smoke_dir/spec_again.json"
cmp "$smoke_dir/spec.json" "$smoke_dir/spec_again.json"
cargo run --release -q -p hypatia-bench --bin run_experiment -- \
  --spec "$smoke_dir/spec.json" --out "$smoke_dir/out" > /dev/null
test -f "$smoke_dir/out/manifest.json"
test -f "$smoke_dir/out/ext_failure_goodput.dat"

echo "== 4-shard smoke run (faulted) + shard-count determinism"
cargo run --release -q -p hypatia-bench --bin run_experiment -- \
  ext_failure_resilience --out "$smoke_dir/sharded" \
  --set duration_s=4 --set cities=10 --set pairs="Tokyo:Cairo" \
  --set fail_fracs=0.1 --set mttr_s=2 --set sim_shards=4 > /dev/null
test -f "$smoke_dir/sharded/manifest.json"
grep -q '"sim_shards": 4' "$smoke_dir/sharded/manifest.json"
cargo run --release -q -p hypatia-bench --bin run_experiment -- \
  ext_failure_resilience --out "$smoke_dir/serial" \
  --set duration_s=4 --set cities=10 --set pairs="Tokyo:Cairo" \
  --set fail_fracs=0.1 --set mttr_s=2 --set sim_shards=1 > /dev/null
# Byte-identity gate: artifact checksums must not depend on the shard
# count; only the wall-clock rate and engine-telemetry lines may differ.
strip_engine() {
  python3 - "$1" <<'PY'
import json, sys
doc = json.load(open(sys.argv[1]))
doc.pop("perf", None)
print(json.dumps(doc, indent=2, sort_keys=True))
PY
}
diff <(strip_engine "$smoke_dir/sharded/manifest.json") \
     <(strip_engine "$smoke_dir/serial/manifest.json")

echo "== ext_flow_scaling smoke run (10k gravity flows, trace sampling on)"
cargo run --release -q -p hypatia-bench --bin run_experiment -- \
  ext_flow_scaling --out "$smoke_dir/flows10k" \
  --set flows=10000 --set trace_sample_every=8 \
  --set cities=20 --set duration_s=1 > /dev/null
test -f "$smoke_dir/flows10k/manifest.json"
test -f "$smoke_dir/flows10k/ext_flow_scaling_events_per_sec.dat"
grep -q 'trace sampling active' "$smoke_dir/flows10k/manifest.json"

echo "== flow-table determinism gate (1k flows, sampling off: arena vs apps)"
cargo run --release -q -p hypatia-bench --bin run_experiment -- \
  ext_flow_scaling --out "$smoke_dir/flows_arena" \
  --set flows=1000 --set flow_table=arena --set perf_series=false \
  --set cities=20 --set duration_s=1 > /dev/null
cargo run --release -q -p hypatia-bench --bin run_experiment -- \
  ext_flow_scaling --out "$smoke_dir/flows_apps" \
  --set flows=1000 --set flow_table=apps --set perf_series=false \
  --set cities=20 --set duration_s=1 > /dev/null
# Byte-identity gate: arena flow tables must reproduce the per-flow-apps
# artifacts exactly; only wall-clock perf lines may differ.
diff <(strip_engine "$smoke_dir/flows_arena/manifest.json") \
     <(strip_engine "$smoke_dir/flows_apps/manifest.json")

echo "== sim_mode spec round-trip (hybrid knobs survive --print-spec)"
cargo run --release -q -p hypatia-bench --bin run_experiment -- \
  ext_hybrid_mode --print-spec \
  --set sim_mode=hybrid --set fluid_threshold_kbps=64 \
  > "$smoke_dir/hybrid_spec.json"
grep -q '"sim_mode": "hybrid"' "$smoke_dir/hybrid_spec.json"
grep -q '"fluid_threshold_kbps": 64' "$smoke_dir/hybrid_spec.json"

echo "== ext_hybrid_mode smoke run (400 gravity flows, all three modes)"
cargo run --release -q -p hypatia-bench --bin run_experiment -- \
  ext_hybrid_mode --out "$smoke_dir/hybrid" \
  --set flows=400 --set cities=10 --set flow_rate_kbps=64 > /dev/null
test -f "$smoke_dir/hybrid/manifest.json"
test -f "$smoke_dir/hybrid/ext_hybrid_packet_goodput.dat"
test -f "$smoke_dir/hybrid/ext_hybrid_fluid_goodput.dat"
test -f "$smoke_dir/hybrid/ext_hybrid_hybrid_goodput.dat"

echo "== hybrid-vs-packet goodput tolerance gate (fig02-scale workload)"
# The hybrid engine must reproduce the packet reference's goodput within
# 5% and its Jain index within 0.05 on an unbottlenecked bulk workload.
python3 - "$smoke_dir/hybrid" <<'PY'
import sys

def series(path):
    rows = {}
    for line in open(path):
        if line.startswith("#") or not line.strip():
            continue
        x, y = line.split()
        rows[float(x)] = float(y)
    return rows

base = sys.argv[1]
for metric, tol, relative in (("goodput", 0.05, True), ("jain", 0.05, False)):
    packet = series(f"{base}/ext_hybrid_packet_{metric}.dat")
    hybrid = series(f"{base}/ext_hybrid_hybrid_{metric}.dat")
    assert packet.keys() == hybrid.keys(), (metric, packet, hybrid)
    for flows, ref in packet.items():
        diff = abs(hybrid[flows] - ref)
        if relative:
            assert ref > 0, (metric, flows, ref)
            diff /= ref
        assert diff <= tol, (metric, flows, ref, hybrid[flows], diff)
print("hybrid-vs-packet tolerance gate passed")
PY

echo "== crash resilience: audit smoke + kill -9 mid-flight + resume"
cargo build --release -q -p hypatia-bench --bin run_experiment
resilience_args=(fig02_scalability --set cities=10 --set duration_s=4
  --set line_rates_mbps=10 --set slowdown=false --set audit=true
  --set checkpoint_every_s=0.5)
# Reference leg: uninterrupted, checkpointing and auditing all the way.
target/release/run_experiment "${resilience_args[@]}" \
  --out "$smoke_dir/resilience_ref" > /dev/null
! grep -q '"status"' "$smoke_dir/resilience_ref/manifest.json"
grep -q '"checkpoints"' "$smoke_dir/resilience_ref/manifest.json"
grep -q '"violations": \[\]' "$smoke_dir/resilience_ref/manifest.json"

# Victim leg: SIGKILL as soon as the first snapshot lands on disk.
target/release/run_experiment "${resilience_args[@]}" \
  --out "$smoke_dir/resilience_kill" > /dev/null 2>&1 &
victim=$!
for _ in $(seq 1 600); do
  if ls "$smoke_dir/resilience_kill/checkpoints/"*.snap > /dev/null 2>&1; then
    break
  fi
  sleep 0.1
done
kill -9 "$victim" 2> /dev/null || true
wait "$victim" 2> /dev/null || true
ls "$smoke_dir/resilience_kill/checkpoints/"*.snap > /dev/null

# Resume leg: restore the victim's snapshots, replay the tail.
target/release/run_experiment "${resilience_args[@]}" \
  --out "$smoke_dir/resilience_resumed" \
  --resume "$smoke_dir/resilience_kill/checkpoints" > /dev/null
# Byte-identity gate: the resumed run must reproduce the uninterrupted
# run's artifacts exactly. Only wall-clock perf, the snapshot count
# (the resumed leg writes fewer), and the audit count (audits restart at
# the restore point) may differ.
strip_resilience() {
  python3 - "$1" <<'PY'
import json, sys
doc = json.load(open(sys.argv[1]))
doc.pop("perf", None)
doc.pop("checkpoints", None)
doc.pop("audit", None)
print(json.dumps(doc, indent=2, sort_keys=True))
PY
}
diff <(strip_resilience "$smoke_dir/resilience_ref/manifest.json") \
     <(strip_resilience "$smoke_dir/resilience_resumed/manifest.json")
grep -q '"violations": \[\]' "$smoke_dir/resilience_resumed/manifest.json"

echo "== supervised abort smoke (deadline -> exit 8, salvaged manifest)"
set +e
target/release/run_experiment fig02_scalability --out "$smoke_dir/deadline" \
  --set cities=10 --set duration_s=60 --set line_rates_mbps=10 \
  --set slowdown=false --set checkpoint_every_s=0.2 --set deadline_s=0.5 \
  > /dev/null 2>&1
deadline_code=$?
set -e
test "$deadline_code" -eq 8
grep -q '"status": "aborted"' "$smoke_dir/deadline/manifest.json"
grep -q '"last"' "$smoke_dir/deadline/manifest.json"

echo "All checks passed."
