#!/usr/bin/env bash
# Repo-wide checks: formatting, lints (warnings are errors), tests. Runs in
# place: the workspace has no crates.io dependencies, so there is nothing
# to fetch and nothing to mirror.
# Usage: scripts/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo build --release --bin run_experiment (every CLI leg below runs this binary)"
cargo build --release -q --bin run_experiment

echo "== cargo fmt --check"
cargo fmt --all -- --check

echo "== cargo clippy -- -D warnings"
cargo clippy --all-targets -- -D warnings

echo "== cargo doc --no-deps (warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --quiet

echo "== cargo test -q --locked"
cargo test -q --locked

echo "== one event loop, one simulator, one thread primitive (deleted paths stay deleted)"
if grep -rnE 'run_serial|ForwardingUpdate|FaultUpdate \{|FluidUpdate|crossbeam|lookahead_at|Partition' \
  crates/*/src; then
  echo "a deleted engine path or dependency is back" >&2 && exit 1
fi
if grep -rnE 'struct Shard|coord_stats|coord_trace|refresh_views|Trace::merged' crates/netsim/src; then
  echo "the shard/coordinator split (a second set of stats and trace merged into views) is back" >&2 && exit 1
fi
# Model features that only their own tests reached: the on/off source, the
# nearest-only GSL policy and its ablation, per-class link rates, and the
# facade's analysis module.
if grep -rnE 'OnOffSource|GslSelection|usable_satellites|with_isl_rate|with_gsl_rate|effective_isl_rate|gsl_selection|hypatia::analysis|crate::analysis' \
  crates/*/src; then
  echo "a model feature no experiment reaches is back" >&2 && exit 1
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

echo "== SSSP repair, split across two threads, vs one thread and full Dijkstra: K1 and S1 x 100 destinations x 200 snapshots, release arithmetic"
# Every repaired tree must equal a from-scratch one whatever the router's
# cache holds; the 240-chain debug-mode fuzz is part of `cargo test` above,
# this adds the benchmark's shells under its flap process at full size.
# Every step splits its trees between the caller and one helper thread:
# the gate steps a router that never splits in lock-step and holds the
# repair counts and forwarding states of the two equal.
# The full-size gate also fails if the runner-up-gap certificates skip
# fewer than 80 % of the vertex scans on K1 or S1, so a certificate that
# silently stops certifying shows up here rather than as a slow benchmark.
cargo test -q --release -p hypatia-routing --lib incremental::tests -- --include-ignored

echo "== full SSSP: bucket queue vs heap Dijkstra, T1+K1+S1 x 100 destinations x 50 snapshots, release arithmetic"
# Every from-scratch tree (the simulator's first state, churn fallbacks,
# single-instant look-ups) comes off the monotone bucket queue; it must
# equal the binary-heap Dijkstra tree for tree on the benchmark's three
# shells under its flap process, and no snapshot of them may take the
# heap. The seeded small-graph differential (ties, leaves, bent pipe,
# masks, Floyd-Warshall) is part of `cargo test` above.
cargo test -q --release -p hypatia-routing --lib dijkstra::tests -- --include-ignored

echo "== GSL visibility pruned by orbital plane vs the full scan: T1+K1+S1+bent pipe x 100 cities x 240 instants, release arithmetic"
# Every snapshot's GSLs come from visible_satellites_into, which skips
# whole orbital planes out of a station's reach. Its lists must equal the
# per-satellite scan's bit for bit on the benchmark's shells, the K1
# bent-pipe preset, an eccentric multi-shell constellation and shells of
# one to three satellites per plane, over one orbital period; the gate
# also fails if K1 and S1 stop pruning most (station, plane) pairs.
cargo test -q --release -p hypatia-constellation --lib gsl::tests -- --include-ignored

echo "== event queue with debug_asserts off: bucketed drain + late heap, 10^6-entry slot, pool storage bound"
# The bucketed drain (bin count, scatter, per-bin sort) and the run/late
# merge must equal the heap oracle with optimizations on too; the
# million-entry one-slot pile-up and the pool-storage bound under a
# line-rate load (pool <= 2 x peak pending + a block per occupied bucket)
# are too slow for the debug run.
cargo test -q --release -p hypatia-netsim --lib event::tests -- --include-ignored
# Slot-carrying device queues, the slab-conservation audit on every exit
# path, and the image's byte-compatibility (the pinned mid-run images of
# UDP, ping, bulk UDP, hybrid fluid and TCP under every congestion
# controller; malformed queue entries rejected), without debug's overflow
# checks.
cargo test -q --release -p hypatia-netsim --lib -- --include-ignored \
  device::tests audit::tests links::tests node::tests sim::tests::every_exit sim::tests::mid_run_image \
  sim::tests::audit_is_clean sim::tests::restore_rejects checkpoint::tests
cargo test -q --release -p hypatia-transport --test tcp_end_to_end mid_run_tcp_images

echo "== fluid solver under release arithmetic: differential fuzz, K1 gate + hybrid experiment tests"
# The link-id solver — reused paths, lazy residuals — must match the
# map-based oracle bit for bit with optimizations on too (the debug run is
# part of `cargo test` above); the ignored gate adds the benchmark's scale:
# K1, 100 cities, 10^5 gravity flows, 31 snapshots, with and without
# satellite flapping.
cargo test -q --release -p hypatia-netsim --lib fluid::tests -- --include-ignored
cargo test -q --release -p hypatia --lib experiments::hybrid

echo "== every declared input moves an artifact (one off value each, every experiment's tiny spec)"
# Each experiment declares the knobs and structured fields it reads and
# whether it applies a fault scenario; its params are those of its default
# specs. One off value per declared knob and structured field, per param
# and a fault window must each change some artifact's checksum (a ground
# segment that only resolves the named pair must instead fail the run
# without a pair city); the failure names every input that moved nothing
# (flow_table is exempt: proven byte-identical by a golden test).
cargo test -q --release -p hypatia --test golden_manifest every_declared_input_moves_an_artifact \
  -- --include-ignored

echo "== ext_failure_resilience smoke run (spec round-trip + faulted sim)"
smoke_dir="$(mktemp -d)"
trap 'rm -rf "$smoke_dir"' EXIT
target/release/run_experiment \
  ext_failure_resilience --print-spec \
  --set duration_s=5 --set cities=10 --set pairs="Tokyo:Cairo" \
  --set fail_fracs=0.1 --set mttr_s=5 --set repair_churn_threshold=0.2 \
  > "$smoke_dir/spec.json"
# A printed spec reads back and prints the same bytes.
target/release/run_experiment \
  --spec "$smoke_dir/spec.json" --print-spec > "$smoke_dir/spec_again.json"
cmp "$smoke_dir/spec.json" "$smoke_dir/spec_again.json"
target/release/run_experiment \
  --spec "$smoke_dir/spec.json" --out "$smoke_dir/out" > /dev/null
test -f "$smoke_dir/out/manifest.json"
test -f "$smoke_dir/out/ext_failure_goodput.dat"

echo "== retired sim_shards knob (faulted): accepted, ignored, warns"
target/release/run_experiment \
  ext_failure_resilience --out "$smoke_dir/sharded" \
  --set duration_s=4 --set cities=10 --set pairs="Tokyo:Cairo" \
  --set fail_fracs=0.1 --set mttr_s=2 --set sim_shards=4 > /dev/null
test -f "$smoke_dir/sharded/manifest.json"
grep -q 'sim_shards ignored: the event engine runs one shard' "$smoke_dir/sharded/manifest.json"
target/release/run_experiment \
  ext_failure_resilience --out "$smoke_dir/serial" \
  --set duration_s=4 --set cities=10 --set pairs="Tokyo:Cairo" \
  --set fail_fracs=0.1 --set mttr_s=2 --set sim_shards=1 > /dev/null
# Byte-identity gate: the ignored knob changes no artifact; only the
# wall-clock perf block and (here) the warning line may differ.
# Usage: strip_engine manifest.json [extra top-level key ...]
strip_engine() {
  python3 - "$@" <<'PY'
import json, sys
doc = json.load(open(sys.argv[1]))
for key in ["perf", *sys.argv[2:]]:
    doc.pop(key, None)
print(json.dumps(doc, indent=2, sort_keys=True))
PY
}
diff <(strip_engine "$smoke_dir/sharded/manifest.json" warnings) \
     <(strip_engine "$smoke_dir/serial/manifest.json" warnings)

echo "== ext_flow_scaling smoke run (10k gravity flows; the removed trace_sample_every is refused)"
target/release/run_experiment \
  ext_flow_scaling --out "$smoke_dir/flows10k" \
  --set flows=10000 --set cities=20 --set duration_s=1 > /dev/null
test -f "$smoke_dir/flows10k/manifest.json"
test -f "$smoke_dir/flows10k/ext_flow_scaling_events_per_sec.dat"
set +e
target/release/run_experiment ext_flow_scaling --out "$smoke_dir/flows_sampled" \
  --set trace_sample_every=8 > /dev/null 2> "$smoke_dir/sampled.err"
sampled_code=$?
set -e
test "$sampled_code" -eq 5
grep -q 'trace_sample_every was removed' "$smoke_dir/sampled.err"

echo "== an input the experiment does not read is refused (exit 5, naming it)"
set +e
target/release/run_experiment fig09_timestep --out "$smoke_dir/unread" \
  --set line_rate_mbps=1 > /dev/null 2> "$smoke_dir/unread.err"
unread_code=$?
set -e
test "$unread_code" -eq 5
grep -q 'does not read line_rate_mbps' "$smoke_dir/unread.err"

echo "== a param value out of range is refused where it is read (exit 5, naming it)"
for case in "fig12_ground_view scan_step_s=0" \
            "fig10_14_15_cross_traffic multipath_stretch=0.5"; do
  experiment=${case%% *} setting=${case#* }
  set +e
  target/release/run_experiment "$experiment" --out "$smoke_dir/range" \
    --set "$setting" > /dev/null 2> "$smoke_dir/range.err"
  range_code=$?
  set -e
  test "$range_code" -eq 5
  grep -q "param \"${setting%%=*}\" expects" "$smoke_dir/range.err"
done

echo "== a structured field the experiment does not read, a knob out of its row's range (exit 5, naming it)"
# Fig. 11 always draws all three shells, so another constellation is
# refused; a 2e10 s horizon overflows every simulated instant.
for case in "fig11_constellation_czml constellation=telesat_t1" \
            "fig03_rtt_fluctuations duration_s=2e10"; do
  experiment=${case%% *} setting=${case#* }
  set +e
  target/release/run_experiment "$experiment" --out "$smoke_dir/declared" \
    --set "$setting" > /dev/null 2> "$smoke_dir/declared.err"
  declared_code=$?
  set -e
  test "$declared_code" -eq 5
  grep -q "${setting%%=*}" "$smoke_dir/declared.err"
done

echo "== Figs. 6-8: one sweep per constellation writes all 21 ECDFs"
target/release/run_experiment fig06_08_rtt_path_ecdfs --out "$smoke_dir/fig06_08" \
  --set cities=10 --set duration_s=2 --set step_ms=1000 \
  > /dev/null 2> "$smoke_dir/fig06_08.err"
test "$(grep -c 'sweeping' "$smoke_dir/fig06_08.err")" -eq 3
for c in "Telesat T1" "Kuiper K1" "Starlink S1"; do
  test "$(grep -c "sweeping $c " "$smoke_dir/fig06_08.err")" -eq 1
done
test "$(find "$smoke_dir/fig06_08" -maxdepth 1 -name '*.dat' | wc -l)" -eq 21

echo "== Fig. 5 + controller study: four flows, each simulated once, write all 10 series"
target/release/run_experiment fig05_cc_rates_rtt --out "$smoke_dir/fig05" \
  --set cities=10 --set duration_s=2 --set pairs="Tokyo:Cairo" \
  --set checkpoint_every_s=0.5 > /dev/null
test "$(find "$smoke_dir/fig05/checkpoints" -name '*.snap' | wc -l)" -eq 4
# Each 2 s flow checkpoints 3 times; a flow simulated twice rewrites its
# snapshot file but still adds to this count.
python3 - "$smoke_dir/fig05/manifest.json" <<'PY'
import json, sys
count = json.load(open(sys.argv[1]))["checkpoints"]["count"]
sys.exit(0 if count == 4 * 3 else f"{count} checkpoints: want 4 simulations x 3")
PY
for cc in newreno vegas; do
  for series in rtt cwnd throughput; do test -f "$smoke_dir/fig05/fig05_${cc}_$series.dat"; done
done
for cc in newreno vegas cubic bbr; do
  test -f "$smoke_dir/fig05/ext_bbr_study_${cc}_throughput.dat"
done
test "$(find "$smoke_dir/fig05" -maxdepth 1 -name '*.dat' | wc -l)" -eq 10

echo "== Figs. 10, 14/15 + TE study: one matrix, three simulations, all 5 artifacts"
target/release/run_experiment fig10_14_15_cross_traffic --out "$smoke_dir/cross" \
  --set cities=10 --set duration_s=2 --set pairs="Tokyo:Cairo" \
  --set snapshot_early_s=0 --set snapshot_late_s=1 \
  --set checkpoint_every_s=0.5 > /dev/null
test "$(find "$smoke_dir/cross/checkpoints" -name '*.snap' | wc -l)" -eq 3
python3 - "$smoke_dir/cross/manifest.json" <<'PY'
import json, sys
count = json.load(open(sys.argv[1]))["checkpoints"]["count"]
sys.exit(0 if count == 3 * 3 else f"{count} checkpoints: want 3 simulations x 3")
PY
for f in fig10_unused_dynamic.dat fig10_unused_frozen.dat fig14_path_util_t0.dat \
  fig14_path_util_t1.dat fig15_utilization_map.json; do
  test -f "$smoke_dir/cross/$f"
done
# Observed pairs that share a ground station are a bad spec (exit 5).
set +e
target/release/run_experiment fig10_14_15_cross_traffic --out "$smoke_dir/cross_shared" \
  --set cities=10 --set duration_s=2 --set pairs="Tokyo:Cairo;Osaka:Cairo" \
  > /dev/null 2>&1
shared_code=$?
set -e
test "$shared_code" -eq 5

echo "== flow-table determinism gate (1k flows: arena vs apps)"
target/release/run_experiment \
  ext_flow_scaling --out "$smoke_dir/flows_arena" \
  --set flows=1000 --set flow_table=arena --set perf_series=false \
  --set cities=20 --set duration_s=1 > /dev/null
target/release/run_experiment \
  ext_flow_scaling --out "$smoke_dir/flows_apps" \
  --set flows=1000 --set flow_table=apps --set perf_series=false \
  --set cities=20 --set duration_s=1 > /dev/null
# Byte-identity gate: arena flow tables must reproduce the per-flow-apps
# artifacts exactly; only wall-clock perf lines may differ.
diff <(strip_engine "$smoke_dir/flows_arena/manifest.json") \
     <(strip_engine "$smoke_dir/flows_apps/manifest.json")

echo "== sim_mode spec round-trip (hybrid knobs survive --print-spec)"
target/release/run_experiment \
  ext_hybrid_mode --print-spec \
  --set sim_mode=hybrid --set fluid_threshold_kbps=64 \
  > "$smoke_dir/hybrid_spec.json"
grep -q '"sim_mode": "hybrid"' "$smoke_dir/hybrid_spec.json"
grep -q '"fluid_threshold_kbps": 64' "$smoke_dir/hybrid_spec.json"

echo "== ext_hybrid_mode smoke run (400 gravity flows, all three modes)"
target/release/run_experiment \
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

echo "== forwarding lookahead on one core vs unpinned (ext_hybrid_mode)"
# Each simulator computes its next forwarding step on a lookahead thread
# beside the event loop; pinned to one core the two share it. Neither
# schedule may change a byte outside the wall-clock perf block.
if command -v taskset > /dev/null; then
  lookahead_args=(ext_hybrid_mode --set flows=400 --set cities=10
    --set flow_rate_kbps=64 --set perf_series=false)
  taskset -c 0 target/release/run_experiment "${lookahead_args[@]}" \
    --out "$smoke_dir/lookahead_one_core" > /dev/null
  target/release/run_experiment "${lookahead_args[@]}" \
    --out "$smoke_dir/lookahead_unpinned" > /dev/null
  diff <(strip_engine "$smoke_dir/lookahead_one_core/manifest.json") \
       <(strip_engine "$smoke_dir/lookahead_unpinned/manifest.json")
else
  echo "taskset not found: skipping the one-core lookahead leg"
fi

echo "== crash resilience: audit smoke + kill -9 mid-flight + resume"
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

echo "== crash resilience, three simulations per run: kill -9 + resume"
# ext_failure_resilience drives a baseline and one simulation per failure
# fraction, each under its own snapshot tag: a resume restores each one
# from its own snapshot (or starts it fresh when it had none yet).
failure_args=(ext_failure_resilience --set cities=10 --set duration_s=20
  --set pairs="Tokyo:Cairo" --set fail_fracs=0.1,0.2 --set mttr_s=2
  --set audit=true --set checkpoint_every_s=0.5)
target/release/run_experiment "${failure_args[@]}" \
  --out "$smoke_dir/failure_ref" > /dev/null
grep -q '"checkpoints"' "$smoke_dir/failure_ref/manifest.json"
grep -q '"violations": \[\]' "$smoke_dir/failure_ref/manifest.json"
for tag in fail_base fail_0.1 fail_0.2; do
  test -f "$smoke_dir/failure_ref/checkpoints/$tag.snap"
done
target/release/run_experiment "${failure_args[@]}" \
  --out "$smoke_dir/failure_kill" > /dev/null 2>&1 &
victim=$!
for _ in $(seq 1 600); do
  if ls "$smoke_dir/failure_kill/checkpoints/"*.snap > /dev/null 2>&1; then
    break
  fi
  sleep 0.1
done
kill -9 "$victim" 2> /dev/null || true
wait "$victim" 2> /dev/null || true
ls "$smoke_dir/failure_kill/checkpoints/"*.snap > /dev/null
target/release/run_experiment "${failure_args[@]}" \
  --out "$smoke_dir/failure_resumed" \
  --resume "$smoke_dir/failure_kill/checkpoints" > /dev/null
diff <(strip_resilience "$smoke_dir/failure_ref/manifest.json") \
     <(strip_resilience "$smoke_dir/failure_resumed/manifest.json")
grep -q '"violations": \[\]' "$smoke_dir/failure_resumed/manifest.json"

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

echo "== print-only modes: a reader closing the pipe early is a clean exit"
# `| head -1` closes stdout after one line; the producer must exit 0,
# not panic on the broken pipe.
pipe_closed_ok() {
  set +e
  target/release/run_experiment "$@" 2> /dev/null | head -1 > /dev/null
  local code=${PIPESTATUS[0]}
  set -e
  if [ "$code" -ne 0 ]; then
    echo "run_experiment $* | head -1: exit $code"
    return 1
  fi
}
pipe_closed_ok --list
for name in $(target/release/run_experiment --list | tail -n +2 | awk '{print $1}'); do
  pipe_closed_ok "$name" --print-spec
done

echo "All checks passed."
