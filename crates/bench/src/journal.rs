//! Crash-safe sweep state: a write-ahead journal plus atomically-written
//! per-experiment result artifacts under `MITTS_STATE_DIR`.
//!
//! The protocol is the classic WAL dance:
//!
//! 1. `start <name>` is appended (and flushed) to `journal.jsonl`
//!    *before* an experiment runs;
//! 2. the finished tables are written to `results/<name>.txt` via
//!    [`mitts_sim::fsio::Fs::write_atomic`] (temp file + fsync +
//!    rename), so a kill mid-write can never leave a truncated artifact;
//! 3. `finish <name>` is appended only after the artifact is durable,
//!    carrying the artifact's CRC-32;
//! 4. the artifact's temporary files left by other processes
//!    (`.<name>.txt.tmp.<pid>.<seq>` with another pid) are removed.
//!
//! Step 4 is safe because only the lease holder of `<name>` records its
//! `finish`: a writer of another process does not hold the lease, and
//! the lease protocol says it never writes `<name>` again. Without it, a
//! kill (a crash, or a chaos `exit(3)`) landing while another worker is
//! inside the atomic write orphans that worker's temporary file, which
//! every later `--resume` would keep. This process's own temporary files
//! are never removed, so several processes sweeping one state dir stay
//! correct.
//!
//! Recovery ([`Journal::completed`]) trusts an experiment only when the
//! `finish` record is intact (every journal line carries its own
//! CRC-32), the artifact exists, *and* the artifact's bytes still match
//! the CRC the finish record captured — a crash between steps leaves at
//! worst a `start` with no `finish` (rerun), and at-rest corruption of
//! an artifact demotes it back to incomplete instead of being served.
//! Each record is one JSON object written with
//! [`mitts_sim::obs::json::push_escaped`] and read back with
//! [`mitts_sim::obs::json::parse`], the codec the trace tools share.
//!
//! All persistence goes through the [`mitts_sim::fsio`] facade, so the
//! whole protocol runs under storage fault injection and the
//! record/replay crash-consistency checker. Storage failure modes are
//! tolerated, never trusted:
//!
//! * a **torn tail** (crash or short write mid-append) is truncated on
//!   the next `--resume` open and the journal continues from the last
//!   complete line;
//! * a **corrupt line** (bitrot, interleaved partial writes) fails its
//!   CRC and is ignored — `completed()` can under-report (rerun: safe),
//!   never misparse;
//! * a **failed append** costs at most a rerun of one experiment.
//!
//! Scheduling lives elsewhere: the supervised parallel pool
//! ([`crate::pool`]) claims experiments through per-worker leases
//! ([`crate::lease`], under `<state>/leases/`) and drives this journal
//! from many workers at once — every append here is a single flushed
//! `write(2)` of one line, so concurrent writers (even separate
//! processes appending to the same journal in O_APPEND mode) interleave
//! whole records, never torn ones.

use std::collections::BTreeSet;
use std::io;
use std::path::{Path, PathBuf};

use mitts_sim::fsio::{self, Fs};
use mitts_sim::obs::json::{self, push_escaped, JsonValue};
use mitts_sim::snapshot::crc32;
use mitts_tuner::{GaResult, GeneticTuner, Genome};

/// The sweep state directory from `MITTS_STATE_DIR`, if configured.
pub fn state_dir() -> Option<PathBuf> {
    std::env::var_os("MITTS_STATE_DIR").filter(|v| !v.is_empty()).map(PathBuf::from)
}

/// Append-only experiment journal rooted at a state directory.
#[derive(Debug)]
pub struct Journal {
    dir: PathBuf,
    fs: Fs,
}

impl Journal {
    /// Opens (creating if needed) the journal under `dir` on the
    /// process-global filesystem handle. See [`Journal::open_with`].
    pub fn open(dir: &Path, resume: bool) -> io::Result<Journal> {
        Journal::open_with(fsio::global(), dir, resume)
    }

    /// Opens (creating if needed) the journal under `dir` on `fs`. With
    /// `resume = false` any previous journal is truncated — the sweep
    /// starts from scratch (stale leases included); with `resume = true`
    /// the existing journal is kept, its torn tail (if a crash or short
    /// write left one) truncated back to the last complete line, and
    /// appended to.
    pub fn open_with(fs: Fs, dir: &Path, resume: bool) -> io::Result<Journal> {
        fs.create_dir_all(&dir.join("results"))?;
        fs.create_dir_all(&dir.join("leases"))?;
        let journal = Journal { dir: dir.to_path_buf(), fs };
        if resume {
            journal.recover_tail()?;
        } else {
            journal.fs.truncate(&journal.journal_path(), 0)?;
            // A fresh sweep owns the state dir outright: leases from a
            // previous (possibly crashed) sweep are meaningless now.
            if let Ok(entries) = journal.fs.read_dir(&dir.join("leases")) {
                for path in entries {
                    let _ = journal.fs.remove_file(&path);
                }
            }
        }
        // Make the journal itself and the directory skeleton durable, so
        // a crash immediately after open cannot lose the entries.
        let _ = journal.fs.append(&journal.journal_path(), b"");
        journal.fs.fsync_dir_best_effort(dir);
        Ok(journal)
    }

    /// Opens the journal at [`state_dir`], or `None` when
    /// `MITTS_STATE_DIR` is unset.
    pub fn from_env(resume: bool) -> io::Result<Option<Journal>> {
        match state_dir() {
            Some(dir) => Journal::open(&dir, resume).map(Some),
            None => Ok(None),
        }
    }

    /// The filesystem handle this journal persists through.
    pub fn fs(&self) -> &Fs {
        &self.fs
    }

    /// Path of the journal file itself.
    pub fn journal_path(&self) -> PathBuf {
        self.dir.join("journal.jsonl")
    }

    /// Path of the durable result artifact for `name`.
    pub fn artifact_path(&self, name: &str) -> PathBuf {
        self.dir.join("results").join(format!("{name}.txt"))
    }

    /// Directory of per-experiment worker leases (see [`crate::lease`]).
    pub fn leases_dir(&self) -> PathBuf {
        self.dir.join("leases")
    }

    /// Truncates an unterminated tail record (no trailing newline) left
    /// by a crash or short write mid-append, keeping every complete
    /// line. Missing journal = nothing to recover.
    fn recover_tail(&self) -> io::Result<()> {
        let path = self.journal_path();
        let Ok(bytes) = self.fs.read(&path) else { return Ok(()) };
        let keep = match bytes.iter().rposition(|&b| b == b'\n') {
            Some(last_nl) => last_nl + 1,
            None => 0,
        };
        if keep < bytes.len() {
            self.fs.truncate(&path, keep as u64)?;
            let _ = self.fs.sync(&path);
        }
        Ok(())
    }

    /// Experiments the journal records as finished *and* whose result
    /// artifact is present (and matches the CRC captured at finish time)
    /// — the set `--resume` may skip. Re-reads the journal file, so
    /// concurrent workers (or a second process sharing the state dir)
    /// observe each other's completions. Lines that fail their CRC are
    /// ignored: corruption can demote an experiment to "rerun", never
    /// promote one to "done".
    pub fn completed(&self) -> BTreeSet<String> {
        let mut done = BTreeSet::new();
        let Ok(text) = self.fs.read_to_string_lossy(&self.journal_path()) else {
            return done;
        };
        for line in text.lines() {
            let Some((name, artifact_crc)) = parse_finish(line) else { continue };
            let path = self.artifact_path(&name);
            let Ok(bytes) = self.fs.read(&path) else { continue };
            // Old finish records without an artifact CRC are trusted on
            // existence alone; new ones must match bit for bit.
            let crc_ok = match artifact_crc {
                Some(want) => want.parse::<u32>().map(|w| w == crc32(&bytes)).unwrap_or(false),
                None => true,
            };
            if crc_ok {
                done.insert(name);
            }
        }
        done
    }

    fn append(&mut self, event: &str, name: &str, extra: &[(&str, &str)]) {
        let mut body = String::from("{\"event\":");
        push_escaped(&mut body, event);
        body.push_str(",\"name\":");
        push_escaped(&mut body, name);
        for (k, v) in extra {
            body.push(',');
            push_escaped(&mut body, k);
            body.push(':');
            push_escaped(&mut body, v);
        }
        body.push('}');
        let line = seal_line(&body);
        // The journal is the crash-safety backbone: flush every record.
        // Failures are tolerated (worst case: a finished experiment
        // reruns on resume) and sync failures are counted by the facade.
        let path = self.journal_path();
        let _ = self.fs.append(&path, line.as_bytes());
        let _ = self.fs.sync(&path);
    }

    /// Records that an attempt of `name` is beginning on `worker`.
    pub fn record_start(&mut self, name: &str, attempt: u32, worker: &str) {
        self.append(
            "start",
            name,
            &[("attempt", &attempt.to_string()), ("worker", worker)],
        );
    }

    /// Durably writes the result artifact, then records completion with
    /// the artifact's CRC-32, then removes the artifact's temporary
    /// files that other processes left (see the module docs).
    pub fn record_finish(&mut self, name: &str, rendered: &str) -> io::Result<()> {
        let path = self.artifact_path(name);
        self.fs.write_atomic_str(&path, rendered)?;
        let crc = crc32(rendered.as_bytes()).to_string();
        self.append("finish", name, &[("artifact_crc", &crc)]);
        self.remove_orphaned_tmps(&path);
        Ok(())
    }

    /// Removes the `.<file>.tmp.<pid>.<seq>` siblings of `path` whose pid
    /// is not this process's: each was left by a writer killed inside
    /// [`Fs::write_atomic`], and that writer never writes again. This
    /// process's own are left alone. Best-effort: a leftover that
    /// survives is tmp litter for `mitts-fsck`.
    fn remove_orphaned_tmps(&self, path: &Path) {
        let (Some(dir), Some(file)) = (path.parent(), path.file_name()) else { return };
        let prefix = format!(".{}.tmp.", file.to_string_lossy());
        let own = std::process::id().to_string();
        let Ok(entries) = self.fs.read_dir(dir) else { return };
        for entry in entries {
            let name = entry.file_name().map(|n| n.to_string_lossy()).unwrap_or_default();
            let pid = name.strip_prefix(&prefix).and_then(|rest| rest.split('.').next());
            if pid.is_some_and(|pid| pid != own) {
                let _ = self.fs.remove_file(&entry);
            }
        }
    }

    /// Records a failed attempt and why.
    pub fn record_fail(&mut self, name: &str, attempt: u32, reason: &str) {
        self.append("fail", name, &[("attempt", &attempt.to_string()), ("reason", reason)]);
    }

    /// Records that `worker` lost its lease on `name` mid-run (the
    /// experiment was reclaimed by a survivor; this worker discarded its
    /// result).
    pub fn record_lease_lost(&mut self, name: &str, worker: &str) {
        self.append("lease_lost", name, &[("worker", worker)]);
    }

    /// Records that an experiment exhausted its retry budget and was
    /// quarantined — the sweep continues without it.
    pub fn record_quarantine(&mut self, name: &str, reason: &str) {
        self.append("quarantine", name, &[("reason", reason)]);
    }

    /// Records that the sweep was interrupted during `name`.
    pub fn record_interrupted(&mut self, name: &str) {
        self.append("interrupted", name, &[]);
    }
}

/// Appends the line CRC to a record body (`{...}` without trailing
/// newline), producing the on-disk form `{...,"crc":N}\n`. The CRC
/// covers the body exactly as it would read without the crc member, so
/// [`line_valid`] can verify by reconstruction.
pub(crate) fn seal_line(body: &str) -> String {
    debug_assert!(body.starts_with('{') && body.ends_with('}'));
    let inner = &body[..body.len() - 1];
    format!("{inner},\"crc\":{}}}\n", crc32(body.as_bytes()))
}

/// Whether a journal line is a complete, uncorrupted record: well-formed
/// framing with a trailing `"crc"` member whose value matches the CRC-32
/// of the rest of the record. Torn tails, bit flips, and interleaved
/// partial writes all fail here and are skipped by readers.
pub(crate) fn line_valid(line: &str) -> bool {
    let tag = ",\"crc\":";
    let Some(idx) = line.rfind(tag) else { return false };
    if !line.ends_with('}') || !line.starts_with('{') {
        return false;
    }
    let digits = &line[idx + tag.len()..line.len() - 1];
    let Ok(want) = digits.parse::<u32>() else { return false };
    let body = format!("{}}}", &line[..idx]);
    crc32(body.as_bytes()) == want
}

/// The `(name, artifact_crc)` of a `finish` line that passes
/// [`line_valid`], `None` for any other line. The CRC is absent in
/// records older than the field.
pub(crate) fn parse_finish(line: &str) -> Option<(String, Option<String>)> {
    if !line_valid(line) {
        return None;
    }
    let record = json::parse(line).ok()?;
    let field = |key| record.get(key).and_then(JsonValue::as_str);
    if field("event")? != "finish" {
        return None;
    }
    Some((field("name")?.to_owned(), field("artifact_crc").map(str::to_owned)))
}

/// Runs a GA search with per-generation checkpointing when
/// `MITTS_STATE_DIR` is set (and a plain [`GeneticTuner::optimize`]
/// otherwise). The state is persisted atomically to
/// `<state>/ga/<tag>.gastate` after every generation, keeping the
/// previous generation at `<tag>.gastate.prev`; an interrupted search
/// resumed from either file reaches the identical final genome. Resume
/// prefers the latest checkpoint and falls back to the previous one when
/// the latest fails its container CRC (bitrot, short write) — a stale or
/// foreign state file (different search parameters, corruption in both
/// generations) is ignored and the search starts over.
///
/// Fitness evaluation inside [`GeneticTuner::optimize_resumable`] runs
/// on the same `MITTS_JOBS`-sized work-stealing loop as the sweep pool
/// (`mitts_sim::par`), and scores land in per-genome slots — so a
/// parallel search checkpoints, resumes, and converges bit-identically
/// to a serial one.
pub fn optimize_checkpointed<F>(ga: &mut GeneticTuner, tag: &str, fitness: F) -> GaResult
where
    F: Fn(&Genome) -> f64 + Sync,
{
    let Some(dir) = state_dir() else {
        return ga.optimize(fitness);
    };
    let fs = fsio::global();
    let ga_dir = dir.join("ga");
    let _ = fs.create_dir_all(&ga_dir);
    let path = ga_dir.join(format!("{tag}.gastate"));
    let prev = ga_dir.join(format!("{tag}.gastate.prev"));
    let resume = [&path, &prev]
        .into_iter()
        .find_map(|p| fs.read(p).ok().and_then(|bytes| ga.decode_state(&bytes).ok()));
    ga.optimize_resumable(fitness, resume, |tuner, state| {
        // Keep the previous generation as the fallback before the new
        // checkpoint replaces the latest.
        if fs.exists(&path) {
            let _ = fs.rename(&path, &prev);
        }
        let _ = fs.write_atomic(&path, &tuner.encode_state(state));
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mitts-journal-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn finish_is_trusted_only_with_artifact() {
        let dir = scratch("trust");
        let mut j = Journal::open(&dir, false).unwrap();
        j.record_start("a", 1, "w0");
        j.record_finish("a", "table a\n").unwrap();
        // "b" gets a finish record but its artifact vanishes (simulated
        // crash between rename and replay, or manual deletion).
        j.record_finish("b", "table b\n").unwrap();
        std::fs::remove_file(j.artifact_path("b")).unwrap();
        // "c" started but never finished.
        j.record_start("c", 1, "w1");
        let done = j.completed();
        assert!(done.contains("a"));
        assert!(!done.contains("b"), "finish without artifact must rerun");
        assert!(!done.contains("c"), "start without finish must rerun");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupted_artifact_is_demoted_to_incomplete() {
        let dir = scratch("rot");
        let mut j = Journal::open(&dir, false).unwrap();
        j.record_finish("a", "pristine table\n").unwrap();
        assert!(j.completed().contains("a"));
        // One flipped byte at rest: the finish record's CRC no longer
        // matches, so resume must rerun instead of serving rot.
        let path = j.artifact_path("a");
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[3] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        assert!(
            !j.completed().contains("a"),
            "an artifact failing its finish-record CRC must not be trusted"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn finish_removes_temporary_files_other_processes_left() {
        // A worker killed inside the atomic write of `a` leaves its
        // temporary file under its own pid; the next lease holder's
        // finish removes it, but never a temporary file of its own
        // process, nor one of another artifact.
        let dir = scratch("orphans");
        let mut j = Journal::open(&dir, false).unwrap();
        let results = dir.join("results");
        let other = std::process::id().wrapping_add(1);
        let orphan = results.join(format!(".a.txt.tmp.{other}.3"));
        let own = results.join(format!(".a.txt.tmp.{}.7", std::process::id()));
        let unrelated = results.join(format!(".ab.txt.tmp.{other}.0"));
        for path in [&orphan, &own, &unrelated] {
            std::fs::write(path, "half-written").unwrap();
        }
        j.record_finish("a", "table a\n").unwrap();
        assert!(!orphan.exists(), "another process's orphaned temporary file survived");
        assert!(own.exists(), "this process's own temporary file was removed");
        assert!(unrelated.exists(), "another artifact's temporary file was removed");
        assert!(j.completed().contains("a"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fresh_open_truncates_and_clears_leases_but_resume_appends() {
        let dir = scratch("trunc");
        let mut j = Journal::open(&dir, false).unwrap();
        j.record_finish("old", "old table\n").unwrap();
        std::fs::write(j.leases_dir().join("old.lease"), b"{}").unwrap();
        drop(j);
        let j = Journal::open(&dir, true).unwrap();
        assert!(j.completed().contains("old"), "resume keeps the journal");
        drop(j);
        let j = Journal::open(&dir, false).unwrap();
        assert!(j.completed().is_empty(), "a non-resume open starts a fresh sweep");
        assert!(
            std::fs::read_dir(j.leases_dir()).unwrap().next().is_none(),
            "a fresh sweep clears stale leases"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_truncated_on_resume() {
        let dir = scratch("torn");
        let mut j = Journal::open(&dir, false).unwrap();
        j.record_finish("a", "table a\n").unwrap();
        j.record_finish("b", "table b\n").unwrap();
        let path = j.journal_path();
        drop(j);
        // A crash mid-append leaves an unterminated partial record.
        let clean_len = std::fs::metadata(&path).unwrap().len();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(b"{\"event\":\"finish\",\"name\":\"gho");
        std::fs::write(&path, &bytes).unwrap();
        let j = Journal::open(&dir, true).unwrap();
        assert_eq!(
            std::fs::metadata(&path).unwrap().len(),
            clean_len,
            "resume truncates the torn tail back to the last complete line"
        );
        let done = j.completed();
        assert!(done.contains("a") && done.contains("b"));
        assert!(!done.contains("gho"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn line_crc_rejects_bit_flips_and_forgeries() {
        let sealed = seal_line("{\"event\":\"finish\",\"name\":\"a\"}");
        let line = sealed.trim_end();
        assert!(line_valid(line));
        // Any single-character corruption breaks validity.
        let flipped = line.replace("finish", "finisj");
        assert!(!line_valid(&flipped));
        // A record with no CRC (a torn prefix of a longer line that
        // happens to end at `}`) is rejected too.
        assert!(!line_valid("{\"event\":\"finish\",\"name\":\"a\"}"));
        // Two records merged onto one line (lost newline) fail framing.
        let merged = format!("{line}{line}");
        assert!(!line_valid(&merged));
    }

    #[test]
    fn journal_lines_round_trip_special_characters() {
        let dir = scratch("nasty");
        let nasty = "quote \" backslash \\ newline \n tab \t ctl \u{1} ,\"crc\":7}";
        let mut j = Journal::open(&dir, false).unwrap();
        j.record_fail(nasty, 2, nasty);
        j.record_finish(nasty, "table\n").unwrap();
        let text = std::fs::read_to_string(j.journal_path()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2, "escaping keeps one record per line");
        assert!(lines.iter().all(|l| line_valid(l)));
        let fail = json::parse(lines[0]).expect("valid record");
        for key in ["name", "reason"] {
            assert_eq!(fail.get(key).and_then(JsonValue::as_str), Some(nasty));
        }
        assert_eq!(fail.get("event").and_then(JsonValue::as_str), Some("fail"));
        assert_eq!(parse_finish(lines[0]), None, "a fail record is not a finish");
        let (name, crc) = parse_finish(lines[1]).expect("finish record");
        assert_eq!(name, nasty);
        assert_eq!(crc, Some(crc32(b"table\n").to_string()));
        assert!(j.completed().contains(nasty));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn ga_checkpoint_keeps_previous_generation_as_fallback() {
        let dir = scratch("gaprev");
        let fs = fsio::global();
        let ga_dir = dir.join("ga");
        fs.create_dir_all(&ga_dir).unwrap();
        let path = ga_dir.join("t.gastate");
        let prev = ga_dir.join("t.gastate.prev");
        // Emulate two checkpoint rounds through the same rename dance
        // optimize_checkpointed performs.
        fs.write_atomic(&path, b"gen1").unwrap();
        if fs.exists(&path) {
            fs.rename(&path, &prev).unwrap();
        }
        fs.write_atomic(&path, b"gen2").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"gen2");
        assert_eq!(std::fs::read(&prev).unwrap(), b"gen1");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
