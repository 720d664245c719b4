//! State-directory integrity checking and repair: the engine behind the
//! `mitts-fsck` binary.
//!
//! A `MITTS_STATE_DIR` accumulates journal records, result artifacts,
//! worker leases, GA checkpoints, and snapshots across many processes
//! and (under storage faults) many partial failures. [`check`] scans the
//! whole tree and classifies every inconsistency into a greppable
//! finding class; with `repair` it restores the directory to a state a
//! `--resume` sweep can safely continue from.
//!
//! | class | meaning | repair |
//! |---|---|---|
//! | `torn-journal-tail` | journal ends mid-record (crash/short write) | truncate to last complete line |
//! | `corrupt-journal-line` | a complete line fails its CRC (bitrot, interleave) | drop the line, rewrite journal atomically |
//! | `finish-without-artifact` | finish record but no artifact (dropped rename) | none needed — resume reruns it |
//! | `artifact-crc-mismatch` | artifact bytes differ from the finish CRC (bitrot, short write) | quarantine the artifact |
//! | `orphan-artifact` | artifact with no finish record | none needed — resume overwrites it |
//! | `corrupt-lease` | unparseable lease record | remove |
//! | `stale-lease` | lease older than the TTL (owner dead) | remove |
//! | `live-lease` | fresh lease — a sweep may be running | none (warns) |
//! | `tmp-litter` | orphaned `.X.tmp.P.S` temp file | remove |
//! | `corrupt-gastate` | GA checkpoint fails its container CRC | quarantine |
//! | `corrupt-snapshot` | `.snap` file fails its container CRC | quarantine |
//!
//! Quarantined files move under `<state>/quarantine/` (never deleted):
//! corruption is evidence, and the repair must be inspectable.
//!
//! Every repair is conservative in the same direction as the readers'
//! own hardening — it can demote state to "rerun this experiment",
//! never promote anything to "complete". Running `mitts-fsck --repair`
//! between a faulty sweep and its resume therefore cannot change the
//! final result tree, which is exactly what the storage-chaos gate in
//! `scripts/check.sh` asserts byte-for-byte.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};

use mitts_sim::fsio::{self, is_tmp_litter, Fs};
use mitts_sim::snapshot::{crc32, Snapshot};

use crate::journal::{line_valid, parse_finish};
use crate::lease::{self, LeaseConfig};

/// What [`check`] did (or would do) about a finding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Harmless to resume; reported for visibility only.
    None,
    /// Repairable; `repair = true` performed it, `false` only reported.
    Repairable,
    /// Repaired in this run.
    Repaired,
}

/// One inconsistency found in the state directory.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Greppable class id (see the module table).
    pub class: &'static str,
    /// The offending path (the journal for line-level findings).
    pub path: PathBuf,
    /// Human-readable specifics.
    pub detail: String,
    /// Disposition.
    pub action: Action,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[fsck] {}: {} — {}", self.class, self.path.display(), self.detail)?;
        match self.action {
            Action::None => write!(f, " (no repair needed)"),
            Action::Repairable => write!(f, " (repairable; rerun with --repair)"),
            Action::Repaired => write!(f, " (repaired)"),
        }
    }
}

/// Outcome of one [`check`] run.
#[derive(Debug, Default)]
pub struct FsckReport {
    /// Everything found, in scan order.
    pub findings: Vec<Finding>,
}

impl FsckReport {
    /// Whether the directory was fully clean.
    pub fn clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Count of findings repaired this run.
    pub fn repaired(&self) -> usize {
        self.findings.iter().filter(|f| f.action == Action::Repaired).count()
    }

    /// Count of findings a `--repair` run would still fix.
    pub fn repairable(&self) -> usize {
        self.findings.iter().filter(|f| f.action == Action::Repairable).count()
    }

    /// The process exit code contract: 0 clean, 1 findings (repaired or
    /// not — rerun fsck to confirm clean), 2 is reserved for
    /// unrecoverable scan failures (the binary maps errors to it).
    pub fn exit_code(&self) -> i32 {
        if self.clean() {
            0
        } else {
            1
        }
    }
}

struct Fsck {
    fs: Fs,
    dir: PathBuf,
    repair: bool,
    report: FsckReport,
}

/// Scans the state directory at `dir`, reporting (and with `repair`,
/// fixing) every inconsistency. Errors only when the directory itself is
/// unusable — per-file problems become findings, not errors.
pub fn check(dir: &Path, repair: bool) -> io::Result<FsckReport> {
    let fs = fsio::global();
    if !fs.exists(dir) {
        return Err(io::Error::new(
            io::ErrorKind::NotFound,
            format!("state dir {} does not exist", dir.display()),
        ));
    }
    let mut f = Fsck { fs, dir: dir.to_path_buf(), repair, report: FsckReport::default() };
    let finished = f.check_journal()?;
    f.check_artifacts(&finished);
    f.check_leases();
    f.check_ga_and_snapshots();
    f.check_tmp_litter();
    Ok(f.report)
}

impl Fsck {
    fn finding(&mut self, class: &'static str, path: &Path, detail: String, action: Action) {
        self.report.findings.push(Finding { class, path: path.to_path_buf(), detail, action });
    }

    fn acted(&self) -> Action {
        if self.repair {
            Action::Repaired
        } else {
            Action::Repairable
        }
    }

    /// Moves a corrupt file under `<state>/quarantine/`, suffixing on
    /// name collision so repeated repairs never overwrite evidence.
    fn quarantine(&mut self, path: &Path) -> bool {
        let qdir = self.dir.join("quarantine");
        if self.fs.create_dir_all(&qdir).is_err() {
            return false;
        }
        let name = path.file_name().map(|n| n.to_string_lossy().into_owned()).unwrap_or_default();
        let mut dest = qdir.join(&name);
        let mut n = 1u32;
        while self.fs.exists(&dest) {
            dest = qdir.join(format!("{name}.{n}"));
            n += 1;
        }
        self.fs.rename(path, &dest).is_ok()
    }

    /// Verifies journal framing and line CRCs; returns the map of
    /// trusted finish records (`name -> Some(artifact_crc)`).
    fn check_journal(&mut self) -> io::Result<BTreeMap<String, Option<u32>>> {
        let path = self.dir.join("journal.jsonl");
        let mut finished: BTreeMap<String, Option<u32>> = BTreeMap::new();
        let Ok(bytes) = self.fs.read(&path) else {
            // No journal: an unjournaled or never-started state dir.
            return Ok(finished);
        };
        let text = String::from_utf8_lossy(&bytes);
        // A torn tail is an unterminated final record.
        let torn = !text.is_empty() && !text.ends_with('\n');
        let mut valid_lines: Vec<&str> = Vec::new();
        let mut corrupt = 0usize;
        let mut complete_lines = text.lines().count();
        if torn {
            complete_lines = complete_lines.saturating_sub(1);
        }
        for line in text.lines().take(complete_lines) {
            if line_valid(line) {
                valid_lines.push(line);
            } else {
                corrupt += 1;
            }
        }
        if torn {
            let tail = text.lines().next_back().unwrap_or("");
            self.finding(
                "torn-journal-tail",
                &path,
                format!("unterminated final record ({} bytes)", tail.len()),
                self.acted(),
            );
        }
        if corrupt > 0 {
            self.finding(
                "corrupt-journal-line",
                &path,
                format!("{corrupt} line(s) fail framing or CRC"),
                self.acted(),
            );
        }
        if self.repair && (torn || corrupt > 0) {
            // One rewrite repairs both: keep exactly the valid complete
            // lines, atomically.
            let mut fixed = valid_lines.join("\n");
            if !fixed.is_empty() {
                fixed.push('\n');
            }
            self.fs.write_atomic_str(&path, &fixed)?;
        }
        for (name, crc) in valid_lines.iter().filter_map(|line| parse_finish(line)) {
            finished.insert(name, crc.and_then(|c| c.parse().ok()));
        }
        Ok(finished)
    }

    /// Cross-checks `results/` against the journal's finish records.
    fn check_artifacts(&mut self, finished: &BTreeMap<String, Option<u32>>) {
        let results = self.dir.join("results");
        let on_disk: BTreeSet<PathBuf> =
            self.fs.read_dir(&results).unwrap_or_default().into_iter().collect();
        for (name, want_crc) in finished {
            let path = results.join(format!("{name}.txt"));
            let Ok(bytes) = self.fs.read(&path) else {
                self.finding(
                    "finish-without-artifact",
                    &path,
                    format!("journal records {name} finished but the artifact is missing"),
                    Action::None, // resume rejects the finish and reruns
                );
                continue;
            };
            if let Some(want) = want_crc {
                let got = crc32(&bytes);
                if got != *want {
                    self.finding(
                        "artifact-crc-mismatch",
                        &path,
                        format!("artifact CRC {got:#010x} != recorded {want:#010x}"),
                        self.acted(),
                    );
                    if self.repair {
                        self.quarantine(&path);
                    }
                }
            }
        }
        for path in on_disk {
            let name = path.file_name().map(|n| n.to_string_lossy().into_owned());
            let Some(name) = name else { continue };
            if is_tmp_litter(&name) {
                continue; // handled by the litter sweep
            }
            let stem = name.strip_suffix(".txt").unwrap_or(&name);
            if !finished.contains_key(stem) {
                self.finding(
                    "orphan-artifact",
                    &path,
                    "artifact has no finish record".to_owned(),
                    Action::None, // resume reruns and overwrites it
                );
            }
        }
    }

    /// Lease liveness: corrupt and stale leases are removable; a fresh
    /// one means a sweep may be running right now.
    fn check_leases(&mut self) {
        let leases = self.dir.join("leases");
        let ttl = LeaseConfig::from_env().ttl;
        let now = lease::now_ms();
        for path in self.fs.read_dir(&leases).unwrap_or_default() {
            let name = path.file_name().map(|n| n.to_string_lossy().into_owned());
            let Some(name) = name else { continue };
            if is_tmp_litter(&name) {
                continue;
            }
            match lease::read_lease_with(&self.fs, &path) {
                Ok(Some(r)) if r.owner.is_empty() => {
                    self.finding(
                        "corrupt-lease",
                        &path,
                        "unparseable lease record (torn write or bitrot)".to_owned(),
                        self.acted(),
                    );
                    if self.repair {
                        let _ = self.fs.remove_file(&path);
                    }
                }
                Ok(Some(r)) if r.is_stale(ttl, now) => {
                    self.finding(
                        "stale-lease",
                        &path,
                        format!(
                            "owner {} last heartbeat {} ms ago (ttl {} ms)",
                            r.owner,
                            now.saturating_sub(r.ts_ms),
                            ttl.as_millis()
                        ),
                        self.acted(),
                    );
                    if self.repair {
                        let _ = self.fs.remove_file(&path);
                    }
                }
                Ok(Some(r)) => {
                    self.finding(
                        "live-lease",
                        &path,
                        format!("owner {} is live — is a sweep still running?", r.owner),
                        Action::None,
                    );
                }
                _ => {}
            }
        }
    }

    /// Container-CRC validation of GA checkpoints (`ga/*.gastate*`) and
    /// any `.snap` snapshot files in the tree.
    fn check_ga_and_snapshots(&mut self) {
        for path in self.walk(&self.dir.clone()) {
            let name = path.file_name().map(|n| n.to_string_lossy().into_owned());
            let Some(name) = name else { continue };
            if is_tmp_litter(&name) {
                continue;
            }
            let class = if name.contains(".gastate") {
                "corrupt-gastate"
            } else if name.ends_with(".snap") {
                "corrupt-snapshot"
            } else {
                continue;
            };
            let Ok(bytes) = self.fs.read(&path) else { continue };
            if let Err(e) = Snapshot::from_bytes(&bytes) {
                self.finding(class, &path, format!("container validation failed: {e}"), self.acted());
                if self.repair {
                    self.quarantine(&path);
                }
            }
        }
    }

    /// Sweeps orphaned atomic-write temp files (crash or dropped-rename
    /// litter) anywhere under the state dir.
    fn check_tmp_litter(&mut self) {
        for path in self.walk(&self.dir.clone()) {
            let name = path.file_name().map(|n| n.to_string_lossy().into_owned());
            let Some(name) = name else { continue };
            if is_tmp_litter(&name) {
                self.finding(
                    "tmp-litter",
                    &path,
                    "orphaned atomic-write temp file".to_owned(),
                    self.acted(),
                );
                if self.repair {
                    let _ = self.fs.remove_file(&path);
                }
            }
        }
    }

    /// All files under `root`, depth-first, skipping the quarantine dir
    /// (its contents are evidence, not live state).
    fn walk(&self, root: &Path) -> Vec<PathBuf> {
        let mut out = Vec::new();
        let mut stack = vec![root.to_path_buf()];
        while let Some(dir) = stack.pop() {
            if dir.file_name().is_some_and(|n| n == "quarantine") {
                continue;
            }
            for entry in self.fs.read_dir(&dir).unwrap_or_default() {
                if std::fs::metadata(&entry).map(|m| m.is_dir()).unwrap_or(false) {
                    stack.push(entry);
                } else {
                    out.push(entry);
                }
            }
        }
        out.sort();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::Journal;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mitts-fsck-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn classes(report: &FsckReport) -> BTreeSet<&'static str> {
        report.findings.iter().map(|f| f.class).collect()
    }

    /// Names that attack the journal codec and its line framing.
    const NASTY: [&str; 3] = ["q\"uote", "new\nline\u{1}", "x,\"crc\":7}"];

    #[test]
    fn clean_state_dir_is_clean() {
        let dir = scratch("clean");
        let mut j = Journal::open(&dir, false).unwrap();
        for name in ["a"].into_iter().chain(NASTY) {
            j.record_start(name, 1, "w0");
            j.record_finish(name, &format!("table {name}\n")).unwrap();
        }
        drop(j);
        let report = check(&dir, false).unwrap();
        assert!(report.clean(), "unexpected findings: {:?}", report.findings);
        assert_eq!(report.exit_code(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_state_dir_is_an_error() {
        let dir = scratch("gone");
        std::fs::remove_dir_all(&dir).unwrap();
        assert!(check(&dir, false).is_err());
    }

    #[test]
    fn detects_and_repairs_every_seeded_fault_class() {
        let dir = scratch("classes");
        let mut j = Journal::open(&dir, false).unwrap();
        j.record_finish("good", "good table\n").unwrap();
        j.record_finish("rotted", "rotted table\n").unwrap();
        j.record_finish("dropped", "dropped table\n").unwrap();
        let journal_path = j.journal_path();
        drop(j);
        // bitrot: flip one byte of a finished artifact.
        let rotted = dir.join("results").join("rotted.txt");
        let mut bytes = std::fs::read(&rotted).unwrap();
        bytes[2] ^= 0x20;
        std::fs::write(&rotted, &bytes).unwrap();
        // dropped rename: finish record whose artifact never landed,
        // with the temp file still sitting next to it.
        std::fs::remove_file(dir.join("results").join("dropped.txt")).unwrap();
        std::fs::write(dir.join("results").join(".dropped.txt.tmp.1.0"), b"dropped table\n")
            .unwrap();
        // short write / torn tail: unterminated journal record.
        let mut jb = std::fs::read(&journal_path).unwrap();
        jb.extend_from_slice(b"{\"event\":\"finish\",\"na");
        std::fs::write(&journal_path, &jb).unwrap();
        // corrupt lease + stale shape: garbage record.
        std::fs::write(dir.join("leases").join("x.lease"), b"\xff garbage").unwrap();
        // corrupt GA checkpoint.
        std::fs::create_dir_all(dir.join("ga")).unwrap();
        std::fs::write(dir.join("ga").join("t.gastate"), b"not a snapshot").unwrap();

        let report = check(&dir, false).unwrap();
        let found = classes(&report);
        for expected in [
            "torn-journal-tail",
            "artifact-crc-mismatch",
            "finish-without-artifact",
            "corrupt-lease",
            "tmp-litter",
            "corrupt-gastate",
        ] {
            assert!(found.contains(expected), "missing {expected}: {found:?}");
        }
        assert_eq!(report.exit_code(), 1);
        assert_eq!(report.repaired(), 0, "dry run must not repair");

        let repaired = check(&dir, true).unwrap();
        assert!(repaired.repaired() > 0);
        // After repair: torn tail gone, litter swept, corrupt artifact
        // quarantined (not deleted), lease removed.
        assert!(!dir.join("results").join(".dropped.txt.tmp.1.0").exists());
        assert!(!dir.join("leases").join("x.lease").exists());
        assert!(!rotted.exists());
        assert!(dir.join("quarantine").join("rotted.txt").exists(), "evidence preserved");
        assert!(dir.join("quarantine").join("t.gastate").exists());
        let text = std::fs::read_to_string(&journal_path).unwrap();
        assert!(text.ends_with('\n'), "torn tail must be gone");
        assert!(text.lines().all(line_valid), "every surviving line is a complete record");

        // Second pass: only the expected residue (the rotted/dropped
        // experiments now lack artifacts, which resume rereuns).
        let after = check(&dir, false).unwrap();
        let residue = classes(&after);
        assert!(
            residue.iter().all(|c| *c == "finish-without-artifact"),
            "unexpected residue: {:?}",
            after.findings
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn orphan_artifacts_and_live_leases_are_reported_not_touched() {
        let dir = scratch("orphan");
        let j = Journal::open(&dir, false).unwrap();
        drop(j);
        std::fs::write(dir.join("results").join("mystery.txt"), b"who wrote this\n").unwrap();
        let fresh = crate::lease::LeaseRecord {
            owner: "9-w0-live".to_owned(),
            seq: 1,
            ts_ms: lease::now_ms(),
        };
        std::fs::write(
            dir.join("leases").join("busy.lease"),
            format!("{{\"owner\":\"{}\",\"seq\":1,\"ts\":{}}}\n", fresh.owner, fresh.ts_ms),
        )
        .unwrap();
        let report = check(&dir, true).unwrap();
        let found = classes(&report);
        assert!(found.contains("orphan-artifact"));
        assert!(found.contains("live-lease"));
        // repair touches neither.
        assert!(dir.join("results").join("mystery.txt").exists());
        assert!(dir.join("leases").join("busy.lease").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_journal_line_is_dropped_on_repair() {
        let dir = scratch("corruptline");
        let mut j = Journal::open(&dir, false).unwrap();
        j.record_finish(NASTY[0], "table a\n").unwrap();
        j.record_finish(NASTY[2], "table b\n").unwrap();
        let path = j.journal_path();
        drop(j);
        // Flip a byte in the middle of the first line.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[10] ^= 0x08;
        std::fs::write(&path, &bytes).unwrap();
        let report = check(&dir, true).unwrap();
        assert!(classes(&report).contains("corrupt-journal-line"));
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 1, "only the valid line survives: {text}");
        // The journal reader agrees with fsck's rewrite.
        let j = Journal::open(&dir, true).unwrap();
        assert_eq!(j.completed().into_iter().collect::<Vec<_>>(), [NASTY[2]]);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
