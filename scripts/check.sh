#!/usr/bin/env bash
# Local gate: everything CI runs, in tier order. Fails fast.
set -euo pipefail
cd "$(dirname "$0")/.."

# All scratch state lives under one temp root, removed on any exit path
# (success, failure, or ^C) so aborted runs don't litter /tmp.
GATE_TMP=$(mktemp -d)
trap 'rm -rf "$GATE_TMP"' EXIT

# Mutant catalogue gate: every committed source mutation must still
# apply to the tree, so the catalogue cannot rot (scripts/mutants/).
for p in scripts/mutants/*.patch; do
  git apply --check "$p" || { echo "mutant $p no longer applies"; exit 1; }
done
echo "mutant catalogue: $(ls scripts/mutants/*.patch | wc -l) patches apply"

cargo build --release
# The workspace run includes two contracts that gate everything below:
# - Skip-engine equivalence (mitts-sim --test fast_forward): naive and
#   skip execution must produce bit-identical stats, grant ledgers, and
#   run outcomes.
# - Snapshot-resume equivalence (mitts-sim --test snapshot_equivalence
#   and --test snapshot_components): run to C, snapshot, resume into a
#   fresh twin — stats, shaper grant ledgers, audit logs, trace events,
#   and sampler rows must be bit-identical to the uninterrupted run, for
#   every bundled workload (incl. a shaped MITTS run) under both the
#   naive and the skip engine.
cargo test -q --workspace
# Mutant names gate: the test each patch names after "Caught by:" (the
# command's last word) must exist, so renaming a test cannot leave a
# mutant pointing at nothing. Listed from the build the run above made.
TEST_LIST="$GATE_TMP/tests.txt"
cargo test -q --workspace -- --list | sed -n 's/: test$//p' > "$TEST_LIST"
for p in scripts/mutants/*.patch; do
  caught_by=$(sed -n 's/^Caught by: .* //p' "$p")
  grep -qxF -- "$caught_by" "$TEST_LIST" \
    || { echo "mutant $p: its test '$caught_by' does not exist"; exit 1; }
done
echo "mutant catalogue: every patch names an existing test"
# No-debug-assertions gate: the release profile turns debug assertions
# on, so the run above cannot show that hardening works without them.
# The auditor, its oracles and the watchdog run in every build; the
# hardening suite must pass in a build with debug assertions off too.
CARGO_PROFILE_RELEASE_DEBUG_ASSERTIONS=false cargo test --release --offline -q -p mitts-sim \
  --test hardening --target-dir "$GATE_TMP/no-debug-assertions"
cargo clippy --workspace --all-targets -- -D warnings
# Rustdoc gate: a doc link to a deleted or private item fails the build.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q

# Examples gate: clippy only compiles the examples. Run each one, so an
# example that panics or exits non-zero fails the gate. Their scratch
# files go to the gate's temp root.
cargo build --release --examples
for ex in examples/*.rs; do
  name=$(basename "$ex" .rs)
  TMPDIR="$GATE_TMP" "target/release/examples/$name" >/dev/null \
    || { echo "example $name failed"; exit 1; }
done
echo "examples: every example ran to a zero exit"

# Performance gate: one traced pass of perfbench, the benchmark of record
# (perfbench/README.md). It exits non-zero unless every check holds: the
# skip engine's digests equal the naive engine's, traced reps equal
# untraced ones, the journaled capacity frontier equals the unjournaled
# one, and every single-system rep ends with zero audit violations. The
# auditor replays every DRAM dispatch through its DDR3 oracle, checks
# every dispatching scheduler pick against the policy the scheduler
# claims, and checks every shaped grant and shaper stall episode against
# the contract its shaper states, so that last check also means every
# dispatch was DDR3-legal, every pick was legal, and every shaped grant
# and stall conformed (mitts_wl4_x8's eight MITTS shapers and the
# capacity probes' shaped arms; the traced pass wraps shapers in timers
# that state no contract); the capacity probes' audit logs must agree
# across engines.
# Building it here also catches a crate change that breaks the
# benchmark's build.
PERF_LOG="$GATE_TMP/perfbench.log"
cargo run --release --quiet --offline --manifest-path perfbench/Cargo.toml -- \
  --seconds 1 --trace 1 > "$PERF_LOG" \
  || { tail -n 20 "$PERF_LOG"; echo "perfbench: a check failed"; exit 1; }
grep '^attempted' "$PERF_LOG"

# Parallel pool gate: on a multi-core host the capacity sweep's workers
# must be busy for at least 60% of its wall time. At jobs = 2 that is
# the same condition as a 1.2x speedup over one worker.
tail -n 1 "$PERF_LOG" | python3 -c '
import json, sys
m = json.load(sys.stdin)["metrics"]
par = m["capacity_x15.host.available_parallelism"]["value"]
busy = m["capacity_x15.pool.busy_frac"]["value"]
if par >= 2 and busy < 0.6:
    sys.exit(f"pool gate: capacity_x15.pool.busy_frac {busy:.2f} < 0.6 on {par:.0f} CPUs")
print(f"pool gate: capacity_x15.pool.busy_frac {busy:.2f} on {par:.0f} CPUs")
'

# Skip gate: the gaps between a core's memory requests are mostly runs of
# full-width compute, which the skip engine jumps over, so the two
# compute-heavy workloads skip at least half their cycles. Both values
# are exact simulated counts, so the gate cannot flake.
tail -n 1 "$PERF_LOG" | python3 -c '
import json, sys
m = json.load(sys.stdin)["metrics"]
for w in ("mitts_wl4_x8", "capacity_x15"):
    frac = m[f"{w}.system.skip_frac"]["value"]
    if frac < 0.5:
        sys.exit(f"skip gate: {w}.system.skip_frac {frac:.3f} < 0.5")
    print(f"skip gate: {w}.system.skip_frac {frac:.3f}")
'

# Conformance smoke gate: seeded mutation checks (each oracle must catch
# every component that misstates or breaks its spec), a short fuzz
# campaign (every fuzzed case also byte-diffed naive vs skip), a workload
# subset under the shaper/DRAM/scheduler/network-calculus oracles, the
# per-case engine differential, and the capacity-probe differential
# (engines x metrics on/off). Exits non-zero on any violation,
# undetected mutation, or engine divergence. Every oracle runs inside
# the invariant auditor, so each mutation below is caught there.
cargo build --release -p mitts-bench --bin mitts-conform
CONFORM_LOG="$GATE_TMP/conform.log"
target/release/mitts-conform --smoke | tee "$CONFORM_LOG" | tail -n 3

# Shaper-oracle gate: MITTS shapers stating a bent bin spec must reach
# the bin/credit oracle through the auditor; at least 3 detected.
shaper_detected=$(grep -c '\[shaper\].*detected' "$CONFORM_LOG" || true)
[ "$shaper_detected" -ge 3 ] \
  || { echo "shaper oracle gate: expected >=3 detected shaper mutations, saw $shaper_detected"; exit 1; }
echo "shaper oracle gate: $shaper_detected misstated bin specs detected"

# DRAM-oracle gate: DRAM models with tRCD, tCL or the burst shaved by a
# fault must break the auditor's DDR3 check; at least 3 detected.
dram_detected=$(grep -c '\[  dram\].*detected' "$CONFORM_LOG" || true)
[ "$dram_detected" -ge 3 ] \
  || { echo "DRAM oracle gate: expected >=3 detected dram mutations, saw $dram_detected"; exit 1; }
echo "DRAM oracle gate: $dram_detected shaved DRAM timings detected"

# Network-calculus oracle gate: the mutation phase must exercise the
# netcalc oracle (static/CBS/regulator shapers stating a bent arrival
# curve or delay bound) and catch at least 3 of them.
netcalc_detected=$(grep -c '\[netcalc\].*detected' "$CONFORM_LOG" || true)
[ "$netcalc_detected" -ge 3 ] \
  || { echo "netcalc oracle gate: expected >=3 detected netcalc mutations, saw $netcalc_detected"; exit 1; }
echo "netcalc oracle gate: $netcalc_detected seeded spec mutations detected"

# Scheduler-oracle gate: the sched mutations (real schedulers claiming
# the other policy, a broken youngest-first scheduler) reach the pick
# oracle through the invariant auditor; at least 3 must be detected, so
# a silent fall to zero fails here.
sched_detected=$(grep -c '\[ sched\].*detected' "$CONFORM_LOG" || true)
[ "$sched_detected" -ge 3 ] \
  || { echo "scheduler oracle gate: expected >=3 detected sched mutations, saw $sched_detected"; exit 1; }
echo "scheduler oracle gate: $sched_detected seeded scheduler mutations detected"

# Capacity smoke gate: knee-search the 2x2 smoke matrix through the
# supervised pool and write the frontier CSV + self-contained HTML
# report (both atomic; mitts-capacity structurally validates the report
# it wrote — and re-reads it from disk — exiting non-zero on anything
# malformed). Run at jobs=4 and jobs=1: probes are deterministic and the
# artifacts are rebuilt from rendered tables, so the frontier CSV must
# be byte-identical whatever the worker count. A third run on the naive
# engine is the sweep-level engine differential for capacity: its
# frontier CSV must equal the skip engine's.
cargo build --release -p mitts-bench --bin mitts-capacity
CAP4="$GATE_TMP/cap4" CAP1="$GATE_TMP/cap1" CAPN="$GATE_TMP/cap-naive"
mkdir -p "$CAP4" "$CAP1" "$CAPN"
MITTS_JOBS=4 target/release/mitts-capacity --smoke --out "$CAP4" >/dev/null
MITTS_JOBS=1 target/release/mitts-capacity --smoke --out "$CAP1" >/dev/null
MITTS_ENGINE=naive MITTS_JOBS=1 target/release/mitts-capacity --smoke --out "$CAPN" >/dev/null
for f in capacity_frontier.csv capacity_report.html; do
  [ -s "$CAP4/$f" ] || { echo "mitts-capacity did not write $f"; exit 1; }
done
diff "$CAP4/capacity_frontier.csv" "$CAP1/capacity_frontier.csv" \
  || { echo "capacity frontier CSV diverged between jobs=4 and jobs=1"; exit 1; }
diff "$CAPN/capacity_frontier.csv" "$CAP1/capacity_frontier.csv" \
  || { echo "naive-engine capacity frontier CSV diverged from the skip engine"; exit 1; }
echo "capacity smoke: report validated; frontier CSV identical at jobs=4, jobs=1 and on the naive engine"

# Kill-and-resume sweep smoke: journal a filtered run_all, die abruptly
# mid-sweep (MITTS_CRASH_AFTER), resume, and require (a) completed
# experiments are skipped on resume and (b) the final artifacts match a
# clean uninterrupted sweep byte for byte.
cargo build --release -p mitts-bench --bin run_all
STATE_A="$GATE_TMP/crash" STATE_B="$GATE_TMP/crash-clean"
mkdir -p "$STATE_A" "$STATE_B"
set +e
MITTS_SCALE=smoke MITTS_STATE_DIR="$STATE_A" MITTS_CRASH_AFTER=fig12 \
  target/release/run_all fig1 >/dev/null 2>&1
crash_rc=$?
set -e
[ "$crash_rc" -eq 3 ] || { echo "crash hook: expected exit 3, got $crash_rc"; exit 1; }
MITTS_SCALE=smoke MITTS_STATE_DIR="$STATE_A" \
  target/release/run_all --resume fig1 > "$STATE_A/resume.log"
grep -q "completed by a previous run, skipped" "$STATE_A/resume.log" \
  || { echo "resume did not skip completed experiments"; exit 1; }
MITTS_SCALE=smoke MITTS_STATE_DIR="$STATE_B" \
  target/release/run_all fig1 >/dev/null
diff -r "$STATE_A/results" "$STATE_B/results" \
  || { echo "resumed sweep diverged from the uninterrupted one"; exit 1; }
echo "kill-and-resume smoke: resumed tables are identical"

# Shaper-arm engine differential: the filtered sweeps below (`run_all a`)
# have no static, CBS or regulator arm, so Fig. 11 (static limiter) and
# Fig. 12 (CBS-1gbs and REG-1gbs) rerun on the naive engine and must
# land byte-identical tables to the skip engine's uninterrupted sweep.
for exp in fig11 fig12; do
  STATE_EXP="$GATE_TMP/naive-$exp"
  mkdir -p "$STATE_EXP"
  MITTS_SCALE=smoke MITTS_JOBS=1 MITTS_ENGINE=naive MITTS_STATE_DIR="$STATE_EXP" \
    target/release/run_all "$exp" >/dev/null
  diff "$STATE_EXP/results/$exp.txt" "$STATE_B/results/$exp.txt" \
    || { echo "naive-engine $exp diverged from the skip engine"; exit 1; }
done
echo "shaper-arm engine differential: naive/skip fig11 and fig12 tables are identical"

# Multi-channel, inter-arrival and signal-reading engine differential:
# every other sweep gate runs one-channel experiments, and none reruns
# Fig. 2 or Fig. 14 naive. `scaling` is the only experiment with two
# memory channels (16 and 25 cores); `fig02` prints the per-core
# inter-arrival histograms; `fig14` runs MISE over MITTS-shaped cores,
# the only sweep whose scheduler reads every core's signals each tick
# while shaped cores and their shapers sleep. Each reruns on both
# engines and the two tables must be byte-identical.
for exp in scaling fig02 fig14; do
  for engine in skip naive; do
    STATE_EXP="$GATE_TMP/$exp-$engine"
    mkdir -p "$STATE_EXP"
    MITTS_SCALE=smoke MITTS_JOBS=1 MITTS_ENGINE="$engine" MITTS_STATE_DIR="$STATE_EXP" \
      target/release/run_all "$exp" >/dev/null
  done
  diff "$GATE_TMP/$exp-naive/results/$exp.txt" "$GATE_TMP/$exp-skip/results/$exp.txt" \
    || { echo "naive-engine $exp diverged from the skip engine"; exit 1; }
done
echo "multi-channel, inter-arrival and signal-reading engine differential: naive/skip scaling, fig02 and fig14 identical"

# Parallel determinism gate: the same filtered sweep at MITTS_JOBS=4 and
# MITTS_JOBS=1 must land byte-identical result artifacts AND CSV dumps —
# worker scheduling may reorder execution, never output. The serial run
# doubles as the reference for the chaos gate below.
STATE_PAR="$GATE_TMP/par" STATE_SER="$GATE_TMP/ser"
CSV_PAR="$GATE_TMP/csv-par" CSV_SER="$GATE_TMP/csv-ser"
mkdir -p "$STATE_PAR" "$STATE_SER" "$CSV_PAR" "$CSV_SER"
MITTS_SCALE=smoke MITTS_JOBS=4 MITTS_STATE_DIR="$STATE_PAR" MITTS_CSV_DIR="$CSV_PAR" \
  target/release/run_all a >/dev/null
MITTS_SCALE=smoke MITTS_JOBS=1 MITTS_STATE_DIR="$STATE_SER" MITTS_CSV_DIR="$CSV_SER" \
  target/release/run_all a >/dev/null
diff -r "$STATE_PAR/results" "$STATE_SER/results" \
  || { echo "parallel sweep artifacts diverged from serial"; exit 1; }
diff -r "$CSV_PAR" "$CSV_SER" \
  || { echo "parallel sweep CSVs diverged from serial"; exit 1; }
echo "parallel determinism: jobs=4 and jobs=1 artifacts are identical"

# Engine differential gate: the same filtered sweep under the naive
# engine (MITTS_ENGINE=naive) must land byte-identical result artifacts
# to the default skip engine used by every run above — the sweep-level
# arm of the per-case differential mitts-conform runs. The naive tree
# doubles as the cross-engine reference for the chaos gate below.
STATE_NAI="$GATE_TMP/nai"
mkdir -p "$STATE_NAI"
MITTS_SCALE=smoke MITTS_JOBS=1 MITTS_ENGINE=naive MITTS_STATE_DIR="$STATE_NAI" \
  target/release/run_all a >/dev/null
diff -r "$STATE_NAI/results" "$STATE_SER/results" \
  || { echo "naive-engine sweep artifacts diverged from the skip engine"; exit 1; }
echo "engine differential: naive/skip sweep artifacts are identical"

# Chaos gate: run the same filtered sweep — on the default skip engine
# — under a seeded fault campaign (injected panics, heartbeat blackouts,
# process kills) and keep resuming. The persisted round counter decays
# the fault rate to zero, so the campaign must converge — and once it
# does, the artifacts must be byte-identical to the clean serial
# reference above AND to the clean naive-engine reference (the seeded
# chaos kill-and-resume arm of the engine differential). Transient exit
# codes 1 (quarantined experiment) and 3 (chaos kill) are expected
# mid-campaign; anything else, or no convergence within 8 rounds, fails.
STATE_CHAOS="$GATE_TMP/chaos"
mkdir -p "$STATE_CHAOS"
chaos_rc=-1
for round in $(seq 1 8); do
  resume_flag=""
  [ "$round" -gt 1 ] && resume_flag="--resume"
  set +e
  MITTS_SCALE=smoke MITTS_JOBS=2 MITTS_LEASE_TTL_MS=1000 MITTS_CHAOS=20260809 \
    MITTS_STATE_DIR="$STATE_CHAOS" \
    target/release/run_all $resume_flag a >/dev/null 2>&1
  chaos_rc=$?
  set -e
  echo "chaos round $round: exit $chaos_rc"
  [ "$chaos_rc" -eq 0 ] && break
  if [ "$chaos_rc" -ne 1 ] && [ "$chaos_rc" -ne 3 ]; then
    echo "chaos campaign: unexpected exit $chaos_rc"; exit 1
  fi
done
[ "$chaos_rc" -eq 0 ] || { echo "chaos campaign did not converge in 8 rounds"; exit 1; }
diff -r "$STATE_CHAOS/results" "$STATE_SER/results" \
  || { echo "chaos-campaign artifacts diverged from the clean serial run"; exit 1; }
diff -r "$STATE_CHAOS/results" "$STATE_NAI/results" \
  || { echo "skip-engine chaos artifacts diverged from the naive-engine reference"; exit 1; }
echo "chaos gate: campaign converged to byte-identical artifacts (incl. cross-engine)"

# fsck smoke gate: a clean completed sweep must check out clean, and a
# fixture corrupted with every seeded storage fault class (torn journal
# tail, artifact bitrot, short-written artifact, dropped rename =
# missing artifact + tmp litter, torn lease record, corrupt GA
# checkpoint) must be detected class by class, repaired, resumed to the
# exact clean result tree, and then check out clean again.
cargo build --release -p mitts-bench --bin mitts-fsck
target/release/mitts-fsck "$STATE_SER" >/dev/null \
  || { echo "mitts-fsck flagged a clean state dir"; exit 1; }
STATE_FSCK="$GATE_TMP/fsck"
cp -r "$STATE_SER" "$STATE_FSCK"
printf '{"event":"finish","na' >> "$STATE_FSCK/journal.jsonl"           # torn tail
python3 -c 'import sys; p=sys.argv[1]; b=bytearray(open(p,"rb").read()); b[len(b)//2]^=0x40; open(p,"wb").write(bytes(b))' \
  "$STATE_FSCK/results/area.txt"                                        # bitrot
python3 -c 'import sys; p=sys.argv[1]; b=open(p,"rb").read(); open(p,"wb").write(b[:len(b)//3])' \
  "$STATE_FSCK/results/phase.txt"                                       # short write
rm "$STATE_FSCK/results/scaling.txt"                                    # dropped rename...
printf 'half-written' > "$STATE_FSCK/results/.scaling.txt.tmp.1.0"      # ...plus its litter
printf '\x00\xff\x07garbage' > "$STATE_FSCK/leases/ablations.lease"     # torn lease
python3 -c 'import sys; p=sys.argv[1]; b=bytearray(open(p,"rb").read()); b[len(b)//2]^=0x40; open(p,"wb").write(bytes(b))' \
  "$(ls "$STATE_FSCK"/ga/*.gastate | head -n 1)"                        # corrupt checkpoint
FSCK_LOG="$GATE_TMP/fsck.log"
set +e
target/release/mitts-fsck "$STATE_FSCK" > "$FSCK_LOG"
fsck_rc=$?
set -e
[ "$fsck_rc" -eq 1 ] || { echo "mitts-fsck: expected exit 1 on corrupted fixture, got $fsck_rc"; cat "$FSCK_LOG"; exit 1; }
for class in torn-journal-tail artifact-crc-mismatch finish-without-artifact \
             corrupt-lease tmp-litter corrupt-gastate; do
  grep -q "\[fsck\] $class:" "$FSCK_LOG" \
    || { echo "mitts-fsck missed seeded fault class $class"; cat "$FSCK_LOG"; exit 1; }
done
set +e
target/release/mitts-fsck --repair "$STATE_FSCK" >/dev/null
repair_rc=$?
set -e
[ "$repair_rc" -eq 1 ] || { echo "mitts-fsck --repair: expected exit 1, got $repair_rc"; exit 1; }
MITTS_SCALE=smoke MITTS_STATE_DIR="$STATE_FSCK" \
  target/release/run_all --resume a >/dev/null \
  || { echo "resume after fsck repair failed"; exit 1; }
diff -r "$STATE_FSCK/results" "$STATE_SER/results" \
  || { echo "repaired+resumed results diverged from the clean reference"; exit 1; }
target/release/mitts-fsck "$STATE_FSCK" >/dev/null \
  || { echo "state dir still dirty after repair + resume"; exit 1; }
echo "fsck smoke: every seeded fault class detected, repaired, and resumed clean"

# Storage-chaos gate: run the sweep under seeded filesystem fault
# injection (MITTS_FS_FAULTS: short writes, fsync EIO, dropped renames,
# dropped dir fsyncs, bitrot at the facade layer), fsck-repair the
# battered state dir, then resume with faults off — the final result
# tree must be byte-identical to the clean serial reference. Faulty
# rounds may exit 0 (all absorbed by retries) or 1 (quarantined
# experiments, rerun on resume); anything else fails.
STATE_SC="$GATE_TMP/storage-chaos"
mkdir -p "$STATE_SC"
for round in 1 2; do
  resume_flag=""
  [ "$round" -gt 1 ] && resume_flag="--resume"
  SC_LOG="$GATE_TMP/storage-chaos-r$round.log"
  set +e
  MITTS_SCALE=smoke MITTS_JOBS=2 MITTS_FS_FAULTS=20260809 MITTS_STATE_DIR="$STATE_SC" \
    target/release/run_all $resume_flag a > "$SC_LOG" 2>&1
  sc_rc=$?
  set -e
  echo "storage-chaos round $round: exit $sc_rc"
  if [ "$sc_rc" -ne 0 ] && [ "$sc_rc" -ne 1 ]; then
    echo "storage-chaos: unexpected exit $sc_rc"; cat "$SC_LOG"; exit 1
  fi
done
grep -q "injected fault" "$GATE_TMP"/storage-chaos-r*.log \
  || { echo "storage-chaos: no faults were injected — campaign is vacuous"; exit 1; }
set +e
target/release/mitts-fsck --repair "$STATE_SC" >/dev/null
set -e
MITTS_SCALE=smoke MITTS_JOBS=1 MITTS_STATE_DIR="$STATE_SC" \
  target/release/run_all --resume a >/dev/null \
  || { echo "faults-off resume after storage chaos failed"; exit 1; }
diff -r "$STATE_SC/results" "$STATE_SER/results" \
  || { echo "storage-chaos results diverged from the clean serial reference"; exit 1; }
target/release/mitts-fsck "$STATE_SC" >/dev/null \
  || { echo "storage-chaos state dir dirty after repair + clean resume"; exit 1; }
echo "storage-chaos gate: faulty sweep repaired and resumed to byte-identical results"
