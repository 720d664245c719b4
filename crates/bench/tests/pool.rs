//! Integration gate over the supervised parallel sweep engine: lease
//! lifecycle (stale-lease reclamation, heartbeat renewal under a slow
//! experiment, clean loss when racing another claimant, no takeover of
//! a claim caught mid-write), deterministic parallel output, and
//! chaos-under-heartbeat-delay convergence. The full kill-and-resume
//! chaos campaign runs as a subprocess loop in `scripts/check.sh`.

use std::collections::BTreeSet;
use std::fs::OpenOptions;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Duration;

use mitts_bench::chaos::ChaosPlan;
use mitts_bench::journal::Journal;
use mitts_bench::lease::{self, Claim, Lease, LeaseConfig};
use mitts_bench::pool::{run_sweep, Experiment, Outcome, PoolConfig, SweepOptions};
use mitts_bench::Table;
use mitts_sim::fsio::{Fs, FsBackend};

fn tmp(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mitts-pooltest-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn quiet_cfg(jobs: usize, ttl: Duration) -> PoolConfig {
    PoolConfig {
        jobs,
        opts: SweepOptions {
            timeout: Duration::from_secs(60),
            retries: 0,
            backoff: Duration::from_millis(1),
        },
        lease: LeaseConfig::with_ttl(ttl),
        chaos: None,
        crash_after: None,
    }
}

/// A deterministic one-row table: the artifact bytes depend only on the
/// experiment name, never on scheduling.
fn demo_table(name: &str) -> Table {
    let mut t = Table::new(&format!("pool test {name}"), &["k", "v"]);
    t.row(vec![name.to_owned(), format!("{}", name.len() * 7)]);
    t
}

fn counted(
    name: &str,
    runs: &Arc<AtomicUsize>,
    body_sleep: Duration,
) -> Experiment {
    let runs = Arc::clone(runs);
    let label = name.to_owned();
    Experiment::new(
        name,
        Arc::new(move || {
            runs.fetch_add(1, Ordering::SeqCst);
            if !body_sleep.is_zero() {
                std::thread::sleep(body_sleep);
            }
            vec![demo_table(&label)]
        }),
    )
}

#[test]
fn stale_lease_from_a_dead_worker_is_reclaimed_and_rerun() {
    let dir = tmp("stale");
    let journal = Journal::open(&dir, false).unwrap();
    // A worker that was SIGKILLed long ago: its lease exists but its
    // heartbeat timestamp is ancient.
    std::fs::write(
        lease::lease_path(&journal.leases_dir(), "e0"),
        b"{\"owner\":\"99999-w0-dead\",\"seq\":4,\"ts\":1000}\n",
    )
    .unwrap();
    let runs = Arc::new(AtomicUsize::new(0));
    let experiments = vec![counted("e0", &runs, Duration::ZERO)];
    let mut done = 0;
    let report = run_sweep(
        &experiments,
        Some(journal),
        &BTreeSet::new(),
        &quiet_cfg(1, Duration::from_millis(200)),
        |_, _, out| {
            if matches!(out, Outcome::Done { .. }) {
                done += 1;
            }
        },
    );
    assert_eq!(done, 1, "the orphaned experiment must be reclaimed and run");
    assert_eq!(runs.load(Ordering::SeqCst), 1);
    assert_eq!(report.failed, 0);
    assert!(dir.join("results").join("e0.txt").is_file(), "artifact must land");
    assert!(
        !lease::lease_path(&dir.join("leases"), "e0").exists(),
        "the reclaimed lease must be released after completion"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn claimant_facing_a_fresh_foreign_lease_adopts_its_finish_without_running() {
    let dir = tmp("foreign");
    // "Process A" finished e0 and still holds a fresh lease on it (e.g.
    // it is mid-heartbeat about to release).
    let mut a = Journal::open(&dir, false).unwrap();
    a.record_start("e0", 1, "processA-w0");
    a.record_finish("e0", &demo_table("e0").render()).unwrap();
    let cfg = LeaseConfig::with_ttl(Duration::from_secs(30));
    let Claim::Acquired(held) = Lease::acquire(&a.leases_dir(), "e0", "processA-w0", &cfg).unwrap()
    else {
        panic!("fresh dir must acquire");
    };
    drop(a);

    // "Process B" sweeps the same journal without --resume semantics for
    // e0 (empty completed set): it must lose the claim cleanly and adopt
    // the stored artifact instead of rerunning.
    let b = Journal::open(&dir, true).unwrap();
    let runs = Arc::new(AtomicUsize::new(0));
    let experiments = vec![counted("e0", &runs, Duration::ZERO)];
    let mut adopted = None;
    let report = run_sweep(
        &experiments,
        Some(b),
        &BTreeSet::new(),
        &quiet_cfg(2, Duration::from_secs(30)),
        |_, _, out| {
            if let Outcome::Skipped(artifact) = out {
                adopted = Some(artifact.clone());
            }
        },
    );
    assert_eq!(report.skipped, 1, "the losing claimant must adopt, not rerun");
    assert_eq!(runs.load(Ordering::SeqCst), 0, "the body must never run");
    assert_eq!(adopted.as_deref(), Some(demo_table("e0").render().as_str()));
    drop(held);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn heartbeat_renewal_keeps_a_slow_experiment_owned() {
    let dir = tmp("heartbeat");
    let journal = Journal::open(&dir, false).unwrap();
    let leases = journal.leases_dir();
    let ttl = Duration::from_millis(1000);
    let runs = Arc::new(AtomicUsize::new(0));
    // The experiment runs for several TTLs; only heartbeats keep it owned.
    let experiments = vec![counted("slow", &runs, Duration::from_millis(2500))];

    let stop = Arc::new(AtomicBool::new(false));
    let rival_acquired = Arc::new(AtomicUsize::new(0));
    let rival = {
        let (stop, acquired) = (Arc::clone(&stop), Arc::clone(&rival_acquired));
        let leases = leases.clone();
        let cfg = LeaseConfig::with_ttl(ttl);
        std::thread::spawn(move || {
            // Wait for the worker's claim to exist, then keep trying to
            // steal it. A healthy heartbeat must always win.
            while !stop.load(Ordering::SeqCst) {
                if lease::lease_path(&leases, "slow").exists() {
                    match Lease::acquire(&leases, "slow", "rival", &cfg) {
                        Ok(Claim::Acquired(l)) => {
                            acquired.fetch_add(1, Ordering::SeqCst);
                            l.release();
                        }
                        Ok(Claim::Held { .. }) | Err(_) => {}
                    }
                }
                std::thread::sleep(Duration::from_millis(100));
            }
        })
    };

    let mut done = 0;
    run_sweep(&experiments, Some(journal), &BTreeSet::new(), &quiet_cfg(1, ttl), |_, _, out| {
        if matches!(out, Outcome::Done { .. }) {
            done += 1;
        }
    });
    stop.store(true, Ordering::SeqCst);
    rival.join().unwrap();
    assert_eq!(done, 1);
    assert_eq!(runs.load(Ordering::SeqCst), 1, "the slow experiment must run exactly once");
    assert_eq!(
        rival_acquired.load(Ordering::SeqCst),
        0,
        "a renewed lease must never look stale to a rival"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The host filesystem, except that the first `create_new` stops
/// between creating its file and writing the bytes — the window in which
/// a claim written that way exists but is still empty — until the test
/// lets it go.
#[derive(Debug)]
struct PausedCreate {
    inner: Fs,
    armed: AtomicBool,
    /// Both parties pass once the paused file exists.
    created: Barrier,
    /// Both parties pass once the paused write may finish.
    resume: Barrier,
}

impl FsBackend for PausedCreate {
    fn create_new(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        if !self.armed.swap(false, Ordering::SeqCst) {
            return self.inner.create_new(path, bytes);
        }
        let mut file = OpenOptions::new().write(true).create_new(true).open(path)?;
        self.created.wait();
        self.resume.wait();
        file.write_all(bytes)
    }
    fn link_new(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.inner.link_new(from, to)
    }
    fn append(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.inner.append(path, bytes)
    }
    fn sync(&self, path: &Path) -> io::Result<()> {
        self.inner.sync(path)
    }
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.inner.rename(from, to)
    }
    fn fsync_dir(&self, dir: &Path) -> io::Result<()> {
        self.inner.fsync_dir(dir)
    }
    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.inner.remove_file(path)
    }
    fn truncate(&self, path: &Path, len: u64) -> io::Result<()> {
        self.inner.truncate(path, len)
    }
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.inner.read(path)
    }
    fn read_dir(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        self.inner.read_dir(dir)
    }
    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        self.inner.create_dir_all(dir)
    }
    fn exists(&self, path: &Path) -> bool {
        self.inner.exists(path)
    }
}

#[test]
fn a_claim_caught_mid_write_is_never_taken_over() {
    let dir = tmp("midwrite");
    let backend = Arc::new(PausedCreate {
        inner: Fs::real(),
        armed: AtomicBool::new(true),
        created: Barrier::new(2),
        resume: Barrier::new(2),
    });
    let fs = Fs::with_backend(Arc::clone(&backend) as Arc<dyn FsBackend>);
    let cfg = LeaseConfig::with_ttl(Duration::from_secs(30));
    // The first claimant stops inside its first create; the second
    // claims in full inside that window; then the first one finishes.
    let claims = std::thread::scope(|s| {
        let first = s.spawn(|| Lease::acquire_with(fs.clone(), &dir, "e0", "first", &cfg));
        backend.created.wait();
        let second = Lease::acquire_with(fs.clone(), &dir, "e0", "second", &cfg);
        backend.resume.wait();
        [first.join().unwrap().unwrap(), second.unwrap()]
    });
    let winners: Vec<&str> = claims
        .iter()
        .filter_map(|c| match c {
            Claim::Acquired(l) => Some(l.owner()),
            Claim::Held { .. } => None,
        })
        .collect();
    assert_eq!(winners.len(), 1, "exactly one claimant may own the lease: {winners:?}");
    let on_disk = lease::read_lease(&lease::lease_path(&dir, "e0")).unwrap().unwrap();
    assert_eq!(on_disk.owner, winners[0], "the lease file names the winner");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn two_sweeps_racing_one_journal_run_each_experiment_exactly_once() {
    let dir = tmp("race");
    drop(Journal::open(&dir, false).unwrap()); // initialise the state dir
    let names: Vec<String> = (0..6).map(|i| format!("race{i}")).collect();
    let runs: Vec<Arc<AtomicUsize>> =
        names.iter().map(|_| Arc::new(AtomicUsize::new(0))).collect();
    // Both sweeps run two workers. The first four experiments hold their
    // worker until all four workers are inside one, so every claim of
    // that round is made while the other sweep holds live leases.
    let all_workers_busy = Arc::new(Barrier::new(4));
    let make = || -> Vec<Experiment> {
        names
            .iter()
            .zip(&runs)
            .enumerate()
            .map(|(i, (n, r))| {
                let (runs, label) = (Arc::clone(r), n.clone());
                let gate = (i < 4).then(|| Arc::clone(&all_workers_busy));
                Experiment::new(
                    n.as_str(),
                    Arc::new(move || {
                        runs.fetch_add(1, Ordering::SeqCst);
                        if let Some(gate) = &gate {
                            gate.wait();
                        }
                        vec![demo_table(&label)]
                    }),
                )
            })
            .collect()
    };
    let sweep = |experiments: Vec<Experiment>, dir: &Path| {
        let journal = Journal::open(dir, true).unwrap();
        let mut statuses = Vec::new();
        let report = run_sweep(
            &experiments,
            Some(journal),
            &BTreeSet::new(),
            &quiet_cfg(2, Duration::from_secs(30)),
            |_, name, out| statuses.push((name.to_owned(), out.clone())),
        );
        (report, statuses)
    };
    let (ra, rb) = std::thread::scope(|s| {
        let a = s.spawn(|| sweep(make(), &dir));
        let b = s.spawn(|| sweep(make(), &dir));
        (a.join().unwrap(), b.join().unwrap())
    });
    for (name, r) in names.iter().zip(&runs) {
        assert_eq!(
            r.load(Ordering::SeqCst),
            1,
            "{name} must run exactly once across both racing sweeps"
        );
        assert!(dir.join("results").join(format!("{name}.txt")).is_file());
    }
    for (report, statuses) in [&ra, &rb] {
        assert_eq!(report.failed + report.interrupted, 0, "{statuses:?}");
        assert_eq!(report.done + report.skipped, names.len(), "{statuses:?}");
        // Determinism: whatever the interleaving, each sweep reports in
        // experiment order.
        let order: Vec<&str> = statuses.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(order, names.iter().map(String::as_str).collect::<Vec<_>>());
    }
    assert_eq!(ra.0.done + rb.0.done, names.len(), "every finish has exactly one author");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn chaos_heartbeat_delays_converge_to_serial_artifacts() {
    let names: Vec<String> = (0..4).map(|i| format!("chaos{i}")).collect();
    let ttl = Duration::from_millis(300);
    // Round 2 of a campaign injects only heartbeat silences (kills and
    // panics are over by then) — safe to run in-process. Pick a seed
    // whose plan actually silences at least one of our experiments.
    let seed = (0..200u64)
        .find(|&s| {
            let p = ChaosPlan::new(s, 2);
            names.iter().any(|n| p.heartbeat_delay(n, ttl).is_some())
        })
        .expect("some seed must silence something");

    let run = |dir: &Path, jobs: usize, chaos: Option<ChaosPlan>| {
        let journal = Journal::open(dir, false).unwrap();
        // Bodies outlast the silence window (1.5 x ttl), so a silenced
        // worker's lease really does go stale mid-run and gets stolen.
        let experiments: Vec<Experiment> = names
            .iter()
            .map(|n| {
                let label = n.clone();
                Experiment::new(
                    n.as_str(),
                    Arc::new(move || {
                        std::thread::sleep(Duration::from_millis(600));
                        vec![demo_table(&label)]
                    }),
                )
            })
            .collect();
        let mut cfg = quiet_cfg(jobs, ttl);
        cfg.chaos = chaos;
        run_sweep(&experiments, Some(journal), &BTreeSet::new(), &cfg, |_, _, _| {})
    };

    let clean = tmp("chaos-clean");
    let report = run(&clean, 1, None);
    assert_eq!(report.done, names.len());

    let chaotic = tmp("chaos-noisy");
    let report = run(&chaotic, 2, Some(ChaosPlan::new(seed, 2)));
    assert_eq!(report.failed + report.interrupted, 0);
    assert_eq!(report.done + report.skipped, names.len());

    for n in &names {
        let a = std::fs::read(clean.join("results").join(format!("{n}.txt"))).unwrap();
        let b = std::fs::read(chaotic.join("results").join(format!("{n}.txt"))).unwrap();
        assert_eq!(a, b, "{n}: chaos run must converge to byte-identical artifacts");
    }
    let _ = std::fs::remove_dir_all(&clean);
    let _ = std::fs::remove_dir_all(&chaotic);
}

#[test]
fn two_run_all_processes_racing_one_state_dir_share_the_work_cleanly() {
    let dir = tmp("procs");
    let bin = env!("CARGO_BIN_EXE_run_all");
    let spawn = || {
        let mut c = std::process::Command::new(bin);
        c.arg("--resume") // both append to the shared journal
            .arg("area") // the cheapest experiment: pure arithmetic
            .env("MITTS_STATE_DIR", &dir)
            .env("MITTS_SCALE", "smoke")
            .env("MITTS_JOBS", "2")
            .env_remove("MITTS_CHAOS")
            .env_remove("MITTS_CRASH_AFTER")
            .stdout(std::process::Stdio::piped())
            .stderr(std::process::Stdio::piped());
        c.spawn().unwrap()
    };
    let (a, b) = (spawn(), spawn());
    let (oa, ob) = (a.wait_with_output().unwrap(), b.wait_with_output().unwrap());
    assert!(oa.status.success(), "first racer failed: {}", String::from_utf8_lossy(&oa.stderr));
    assert!(ob.status.success(), "second racer failed: {}", String::from_utf8_lossy(&ob.stderr));

    let journal = std::fs::read_to_string(dir.join("journal.jsonl")).unwrap();
    let count = |event: &str| {
        journal
            .lines()
            .filter(|l| l.contains(&format!("\"event\":\"{event}\"")) && l.contains("\"area\""))
            .count()
    };
    assert_eq!(count("finish"), 1, "exactly one process may record the finish:\n{journal}");
    assert_eq!(count("start"), 1, "the losing claimant must never start the experiment:\n{journal}");
    assert!(dir.join("results").join("area.txt").is_file());
    let _ = std::fs::remove_dir_all(&dir);
}
