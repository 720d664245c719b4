//! Per-experiment worker leases: the claim protocol of the parallel
//! sweep engine.
//!
//! A lease is one file under `MITTS_STATE_DIR/leases/<name>.lease`
//! holding the current owner, a monotonically increasing sequence
//! number, and a wall-clock heartbeat timestamp:
//!
//! ```text
//! {"owner":"12345-w2-9f3a","seq":7,"ts":1754700000123}
//! ```
//!
//! * **Claim** — [`Fs::publish_new`] writes and fsyncs the record under a
//!   temporary name, then hard-links it into place with no-clobber
//!   semantics, so initial acquisition is atomic even across processes
//!   and a lease file is never visible empty or half-written: a rival
//!   claimant sees no lease or the complete record, never a torn one it
//!   would take for stale. A claim that survives a crash is readable
//!   and one that doesn't is absent.
//! * **Heartbeat** — the owning worker rewrites the record (atomic
//!   temp + rename) with a bumped `seq` and fresh `ts` every
//!   [`LeaseConfig::heartbeat`]. A renewal first re-reads the file and
//!   *abandons* (returns lost) if the owner changed — a worker that
//!   stalled past the TTL and was reclaimed never writes again.
//! * **Staleness** — a lease whose `ts` is older than
//!   [`LeaseConfig::ttl`] belongs to a worker presumed dead (crashed,
//!   SIGKILLed, or wedged). Any worker may then *take it over*: write a
//!   fresh record to a temp file and rename it over the lease, then read
//!   back and keep it only if the read-back shows its own owner id —
//!   racing reclaimers resolve to one winner.
//!
//! The renew-vs-takeover race (owner re-reads itself, reclaimer renames,
//! owner renames back) can leave both sides believing they own the lease
//! for at most one heartbeat: the next renewal of whichever side lost
//! the last rename reads the other's owner id and abandons. The sweep
//! engine tolerates the transient overlap because experiments are
//! deterministic, result artifacts are written atomically, and the
//! journal's first `finish` record wins — a duplicated run can only
//! produce identical bytes, never a second completion.
//!
//! All lease I/O goes through the [`mitts_sim::fsio`] facade, so the
//! protocol runs under storage fault injection: a short write or fsync
//! error fails the claim before it is published; bitrot at rest
//! leaves an unparseable record, which every reader takes for an
//! empty-owner stale lease and reclaims; directory-fsync failures are counted by the
//! facade instead of silently discarded. Records are encoded and read
//! with [`mitts_sim::obs::json`], the journal's codec.

use std::fmt::Write as _;
use std::io;
use std::path::{Path, PathBuf};
use std::time::{Duration, SystemTime};

use mitts_sim::fsio::{self, Fs};
use mitts_sim::obs::json::{self, push_escaped, JsonValue};

/// Lease timing policy.
#[derive(Debug, Clone, Copy)]
pub struct LeaseConfig {
    /// Age beyond which a lease is presumed dead and may be reclaimed.
    pub ttl: Duration,
    /// Renewal cadence of a healthy owner (a fraction of `ttl`, so
    /// several renewals must be missed before reclamation).
    pub heartbeat: Duration,
}

impl LeaseConfig {
    /// Policy from `MITTS_LEASE_TTL_MS` (default 5000 ms, floor 50 ms);
    /// the heartbeat is a quarter of the TTL.
    pub fn from_env() -> Self {
        let ttl_ms = std::env::var("MITTS_LEASE_TTL_MS")
            .ok()
            .and_then(|v| v.trim().parse::<u64>().ok())
            .unwrap_or(5_000)
            .max(50);
        LeaseConfig::with_ttl(Duration::from_millis(ttl_ms))
    }

    /// Policy with an explicit TTL (tests use short ones).
    pub fn with_ttl(ttl: Duration) -> Self {
        LeaseConfig { ttl, heartbeat: (ttl / 4).max(Duration::from_millis(10)) }
    }
}

/// The parsed on-disk record of a lease file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LeaseRecord {
    /// Owner id (`pid-worker-token`).
    pub owner: String,
    /// Renewal counter.
    pub seq: u64,
    /// Heartbeat timestamp, milliseconds since the Unix epoch.
    pub ts_ms: u64,
}

impl LeaseRecord {
    fn render(&self) -> String {
        let mut out = String::from("{\"owner\":");
        push_escaped(&mut out, &self.owner);
        let _ = writeln!(out, ",\"seq\":{},\"ts\":{}}}", self.seq, self.ts_ms);
        out
    }

    fn parse(text: &str) -> Option<LeaseRecord> {
        let record = json::parse(text).ok()?;
        Some(LeaseRecord {
            owner: record.get("owner").and_then(JsonValue::as_str)?.to_owned(),
            seq: record.get("seq").and_then(JsonValue::as_u64)?,
            ts_ms: record.get("ts").and_then(JsonValue::as_u64)?,
        })
    }

    /// Whether this record is older than `ttl` at wall-clock `now_ms`.
    /// A timestamp in the future (clock skew between hosts sharing a
    /// state dir) counts as fresh — skew must never cause reclamation.
    pub fn is_stale(&self, ttl: Duration, now_ms: u64) -> bool {
        now_ms.saturating_sub(self.ts_ms) > ttl.as_millis() as u64
    }
}

/// Milliseconds since the Unix epoch.
pub fn now_ms() -> u64 {
    SystemTime::now()
        .duration_since(SystemTime::UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

/// Path of the lease file for `name` under `leases_dir`.
pub fn lease_path(leases_dir: &Path, name: &str) -> PathBuf {
    leases_dir.join(format!("{name}.lease"))
}

/// Reads and parses a lease file through the process-global filesystem
/// handle. See [`read_lease_with`].
pub fn read_lease(path: &Path) -> io::Result<Option<LeaseRecord>> {
    read_lease_with(&fsio::global(), path)
}

/// Reads and parses a lease file. `Ok(None)` means the file does not
/// exist (the experiment is unclaimed); an unparseable file — torn by a
/// short write, hit by bitrot — is reported as a record with an empty
/// owner and `ts` 0, which every reader treats as stale — a corrupt
/// claim never wedges the sweep.
pub fn read_lease_with(fs: &Fs, path: &Path) -> io::Result<Option<LeaseRecord>> {
    match fs.read_to_string_lossy(path) {
        Ok(text) => Ok(Some(LeaseRecord::parse(&text).unwrap_or(LeaseRecord {
            owner: String::new(),
            seq: 0,
            ts_ms: 0,
        }))),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(e),
    }
}

/// Outcome of an acquisition attempt.
#[derive(Debug)]
pub enum Claim {
    /// The caller now owns the lease.
    Acquired(Lease),
    /// A live (non-stale) owner holds it; back off and let them run.
    Held {
        /// The current owner's id.
        owner: String,
        /// Milliseconds since their last heartbeat.
        age_ms: u64,
    },
}

/// An owned, renewable claim on one experiment.
#[derive(Debug)]
pub struct Lease {
    path: PathBuf,
    owner: String,
    seq: u64,
    fs: Fs,
}

impl Lease {
    /// Attempts to claim `name` for `owner` through the process-global
    /// filesystem handle. See [`Lease::acquire_with`].
    pub fn acquire(
        leases_dir: &Path,
        name: &str,
        owner: &str,
        cfg: &LeaseConfig,
    ) -> io::Result<Claim> {
        Lease::acquire_with(fsio::global(), leases_dir, name, owner, cfg)
    }

    /// Attempts to claim `name` for `owner` on `fs`. Creation is atomic
    /// ([`Fs::publish_new`]); an existing fresh lease yields
    /// [`Claim::Held`]; a stale one is taken over by atomic replacement
    /// with read-back verification.
    pub fn acquire_with(
        fs: Fs,
        leases_dir: &Path,
        name: &str,
        owner: &str,
        cfg: &LeaseConfig,
    ) -> io::Result<Claim> {
        fs.create_dir_all(leases_dir)?;
        let path = lease_path(leases_dir, name);
        let record = LeaseRecord { owner: owner.to_owned(), seq: 1, ts_ms: now_ms() };
        // Directory durability is best-effort (counted): a claim whose
        // entry is lost in a crash is simply absent on restart, which
        // costs a rerun, never a wrong result.
        match fs.publish_new(&path, record.render().as_bytes()) {
            Ok(()) => Ok(Claim::Acquired(Lease {
                path,
                owner: owner.to_owned(),
                seq: record.seq,
                fs,
            })),
            Err(e) if e.kind() == io::ErrorKind::AlreadyExists => {
                let Some(current) = read_lease_with(&fs, &path)? else {
                    // Vanished between publish and read (owner
                    // released): try again from scratch, once.
                    return Lease::acquire_with(fs, leases_dir, name, owner, cfg);
                };
                let now = now_ms();
                if !current.is_stale(cfg.ttl, now) {
                    return Ok(Claim::Held {
                        owner: current.owner,
                        age_ms: now.saturating_sub(current.ts_ms),
                    });
                }
                // Stale: take over by atomic replacement, then verify.
                let fresh = LeaseRecord {
                    owner: owner.to_owned(),
                    seq: current.seq + 1,
                    ts_ms: now,
                };
                fs.write_atomic_str(&path, &fresh.render())?;
                fs.fsync_dir_best_effort(leases_dir);
                match read_lease_with(&fs, &path)? {
                    Some(after) if after.owner == owner => Ok(Claim::Acquired(Lease {
                        path,
                        owner: owner.to_owned(),
                        seq: fresh.seq,
                        fs,
                    })),
                    Some(after) => Ok(Claim::Held {
                        owner: after.owner,
                        age_ms: now_ms().saturating_sub(after.ts_ms),
                    }),
                    None => Lease::acquire_with(fs, leases_dir, name, owner, cfg),
                }
            }
            // A failed publish leaves no lease file behind.
            Err(e) => Err(e),
        }
    }

    /// Renews the heartbeat. Returns `Ok(false)` — *lost* — when the
    /// lease now names another owner (it went stale and was reclaimed);
    /// the caller must abandon the experiment and discard its result.
    pub fn renew(&mut self) -> io::Result<bool> {
        match read_lease_with(&self.fs, &self.path)? {
            Some(current) if current.owner == self.owner => {
                self.seq = current.seq + 1;
                let record = LeaseRecord {
                    owner: self.owner.clone(),
                    seq: self.seq,
                    ts_ms: now_ms(),
                };
                self.fs.write_atomic_str(&self.path, &record.render())?;
                Ok(true)
            }
            _ => Ok(false),
        }
    }

    /// Whether the on-disk record still names this owner.
    pub fn still_mine(&self) -> bool {
        matches!(read_lease_with(&self.fs, &self.path), Ok(Some(r)) if r.owner == self.owner)
    }

    /// Releases the claim: removes the file iff it is still ours.
    pub fn release(self) {
        if self.still_mine() {
            let _ = self.fs.remove_file(&self.path);
        }
    }

    /// The owner id this lease was acquired with.
    pub fn owner(&self) -> &str {
        &self.owner
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("mitts-lease-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn record_round_trips() {
        let r = LeaseRecord { owner: "1-w0-abc".into(), seq: 12, ts_ms: 1700000000123 };
        assert_eq!(LeaseRecord::parse(&r.render()), Some(r));
    }

    #[test]
    fn record_encodes_to_the_fixture_bytes() {
        let r = LeaseRecord { owner: "7-w0-\"q\\\n\u{1}".into(), seq: 1, ts_ms: 1_792_141_061_366 };
        let fixture = include_str!("../tests/fixtures/fixture.lease");
        assert_eq!(r.render(), fixture);
        assert_eq!(LeaseRecord::parse(fixture), Some(r));
    }

    #[test]
    fn future_timestamps_are_fresh_not_stale() {
        let r = LeaseRecord { owner: "x".into(), seq: 1, ts_ms: u64::MAX / 2 };
        assert!(!r.is_stale(Duration::from_millis(100), 0));
    }

    #[test]
    fn corrupt_lease_reads_as_stale() {
        let dir = tmp("corrupt");
        std::fs::create_dir_all(&dir).unwrap();
        let path = lease_path(&dir, "x");
        std::fs::write(&path, b"torn garbage").unwrap();
        let r = read_lease(&path).unwrap().expect("file exists");
        assert!(r.is_stale(Duration::from_secs(3600), now_ms()));
        let cfg = LeaseConfig::with_ttl(Duration::from_secs(5));
        match Lease::acquire(&dir, "x", "me", &cfg).unwrap() {
            Claim::Acquired(l) => assert_eq!(l.owner(), "me"),
            Claim::Held { .. } => panic!("corrupt lease must be reclaimable"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn binary_garbage_lease_reads_as_stale() {
        // Bitrot can leave invalid UTF-8; the lossy read must degrade to
        // an unparseable (stale) record, not an error.
        let dir = tmp("bitrot");
        std::fs::create_dir_all(&dir).unwrap();
        let path = lease_path(&dir, "x");
        std::fs::write(&path, [0xff, 0xfe, 0x00, 0x9b]).unwrap();
        let r = read_lease(&path).unwrap().expect("file exists");
        assert!(r.owner.is_empty());
        assert!(r.is_stale(Duration::from_secs(3600), now_ms()));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn release_then_reacquire() {
        let dir = tmp("release");
        let cfg = LeaseConfig::with_ttl(Duration::from_secs(5));
        let Claim::Acquired(l) = Lease::acquire(&dir, "e", "a", &cfg).unwrap() else {
            panic!("fresh dir must acquire");
        };
        l.release();
        match Lease::acquire(&dir, "e", "b", &cfg).unwrap() {
            Claim::Acquired(l2) => assert_eq!(l2.owner(), "b"),
            Claim::Held { .. } => panic!("released lease must be acquirable"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
