//! Crash-consistency checks for the journal/lease/artifact protocol.
//!
//! The ALICE-style checker records the full persistence op sequence of
//! a scripted two-experiment sweep on the replay backend, then
//! materializes **every prefix** of that op log under every crash
//! variant (durability floor, everything-survived ceiling, seeded torn
//! writes) into a real scratch directory and asserts the recovery
//! invariant on each: every experiment the recovered journal reports
//! complete has a byte-exact artifact — crashes may lose work (rerun on
//! resume) but can never fabricate or corrupt a "done" result. Each
//! crash state must also survive `mitts-fsck` (check and repair) with
//! the invariant intact.
//!
//! The torn-tail proptest attacks the same invariant from the byte
//! level: an arbitrary byte-prefix cut of a real journal file must
//! recover to a usable journal whose completed-set is still truthful.
//!
//! The fixture tests pin the on-disk record format: a journal and a
//! lease file committed under `tests/fixtures/` must still read back,
//! and the same records written today must be the same bytes.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use mitts_bench::lease::{self, LeaseRecord};
use mitts_bench::{fsck, journal::Journal};
use mitts_sim::fsio::{CrashVariant, Fs};
use proptest::prelude::*;

/// Experiment names that attack the journal's JSON codec and line
/// framing: a quote, a newline, control characters, and a `,"crc":`
/// substring that mimics the per-line CRC member.
const NASTY: [&str; 3] = ["q\"uote", "new\nline\ttab\u{1}", "x,\"crc\":123}"];

static CASE: AtomicU64 = AtomicU64::new(0);

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "mitts-storage-{tag}-{}-{}",
        std::process::id(),
        CASE.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The recovery invariant: everything `completed()` claims is backed by
/// a byte-exact artifact. Returns the completed set for extra checks.
fn assert_truthful(dir: &Path, truth: &BTreeMap<&str, &str>, ctx: &str) -> Vec<String> {
    let j = Journal::open(dir, true).unwrap_or_else(|e| panic!("{ctx}: reopen failed: {e}"));
    let done = j.completed();
    for name in &done {
        let want = truth
            .get(name.as_str())
            .unwrap_or_else(|| panic!("{ctx}: completed() invented experiment {name:?}"));
        let got = std::fs::read(j.artifact_path(name))
            .unwrap_or_else(|e| panic!("{ctx}: {name} complete but artifact unreadable: {e}"));
        assert_eq!(
            got,
            want.as_bytes(),
            "{ctx}: {name} complete but artifact bytes differ"
        );
    }
    done.into_iter().collect()
}

/// Enumerates every crash prefix × variant of a scripted sweep and
/// checks recovery plus fsck on each — the ALICE loop.
#[test]
fn every_crash_prefix_recovers_or_is_detected() {
    let root = PathBuf::from("/state");
    let (fs, handle) = Fs::replay();
    let truth: BTreeMap<&str, &str> =
        [("e0", "table for e0\n"), ("e1", "table for e1\n")].into_iter().collect();

    let mut j = Journal::open_with(fs.clone(), &root, false).unwrap();
    for (name, rendered) in &truth {
        j.record_start(name, 1, "w0");
        j.record_finish(name, rendered).unwrap();
    }
    drop(j);

    let variants =
        [CrashVariant::Floor, CrashVariant::Ceiling, CrashVariant::Torn(7), CrashVariant::Torn(40)];
    let mut states = 0usize;
    for prefix in 0..=handle.op_count() {
        for (v, variant) in variants.into_iter().enumerate() {
            let target = scratch("alice");
            handle.materialize(prefix, variant, &root, &target).unwrap();
            let ctx = format!("prefix {prefix}/{} variant {v}", handle.op_count());

            // Recovery must be truthful on the raw crash state...
            assert_truthful(&target, &truth, &ctx);
            // ...fsck must cope with it (check, then repair)...
            let report = fsck::check(&target, false)
                .unwrap_or_else(|e| panic!("{ctx}: fsck check errored: {e}"));
            let _ = report.exit_code();
            fsck::check(&target, true)
                .unwrap_or_else(|e| panic!("{ctx}: fsck repair errored: {e}"));
            // ...and repair must preserve the invariant.
            assert_truthful(&target, &truth, &format!("{ctx} post-repair"));

            states += 1;
            let _ = std::fs::remove_dir_all(&target);
        }
    }
    assert!(states >= 4, "enumeration was vacuous");

    // Sanity that the checker has teeth: the full log at the ceiling
    // recovers both experiments.
    let target = scratch("alice-full");
    handle.materialize(handle.op_count(), CrashVariant::Ceiling, &root, &target).unwrap();
    let done = assert_truthful(&target, &truth, "full ceiling");
    assert_eq!(done, vec!["e0".to_string(), "e1".to_string()]);
    let _ = std::fs::remove_dir_all(&target);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// An arbitrary byte-prefix cut of the journal (a crashed short
    /// append at the byte level) recovers or is detected — completed()
    /// stays truthful and the journal remains appendable.
    #[test]
    fn torn_journal_byte_prefix_recovers_or_is_detected(cut_seed in any::<u64>()) {
        let dir = scratch("torn");
        let truth: BTreeMap<&str, &str> = [
            (NASTY[0], "alpha table\n"),
            (NASTY[1], "beta table\n"),
            (NASTY[2], "gamma table\n"),
        ]
        .into_iter()
        .collect();
        {
            let mut j = Journal::open(&dir, false).unwrap();
            for (name, rendered) in &truth {
                j.record_start(name, 1, "w0");
                j.record_finish(name, rendered).unwrap();
            }
        }
        let journal_file = dir.join("journal.jsonl");
        let bytes = std::fs::read(&journal_file).unwrap();
        let cut = (cut_seed as usize) % (bytes.len() + 1);
        std::fs::write(&journal_file, &bytes[..cut]).unwrap();

        let done = assert_truthful(&dir, &truth, &format!("cut at {cut}/{}", bytes.len()));

        // The recovered journal is still a working journal: a finish
        // appended after recovery is visible and truthful.
        let mut j = Journal::open(&dir, true).unwrap();
        j.record_start("d", 1, "w0");
        j.record_finish("d", "delta table\n").unwrap();
        let after = j.completed();
        prop_assert!(after.contains("d"), "post-recovery append lost");
        for name in done {
            prop_assert!(
                after.contains(name.as_str()),
                "recovery lost previously-complete {name:?}"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The record sequence that wrote `tests/fixtures/journal.jsonl`. Names,
/// workers and reasons carry quotes, newlines, control characters, a
/// `,"crc":` substring and non-ASCII text.
fn write_fixture_records(j: &mut Journal) {
    j.record_start("fig12", 1, "w0");
    j.record_finish("fig12", "table fig12\n").unwrap();
    j.record_fail("q\"uote", 1, "panicked: \"boom\"\n\tat line 3\u{1}");
    j.record_start("new\nline", 2, "4242-w1-9f3a");
    j.record_finish("new\nline", "table new line\n").unwrap();
    j.record_lease_lost("ctl\u{1}\u{1f}", "w\\1");
    j.record_quarantine("x,\"crc\":123}", "reason with ,\"crc\":9 inside");
    j.record_finish("x,\"crc\":123}", "table crc\n").unwrap();
    j.record_interrupted("ünï—code");
    j.record_finish("ünï—code", "table unicode\n").unwrap();
}

/// The experiments the fixture journal finished, with their artifacts.
const FIXTURE_FINISHED: [(&str, &str); 4] = [
    ("fig12", "table fig12\n"),
    ("new\nline", "table new line\n"),
    ("x,\"crc\":123}", "table crc\n"),
    ("ünï—code", "table unicode\n"),
];

#[test]
fn fixture_journal_reads_back_and_is_rewritten_byte_for_byte() {
    let fixture = include_str!("fixtures/journal.jsonl");

    let dir = scratch("fixture-read");
    let j = Journal::open(&dir, false).unwrap();
    std::fs::write(j.journal_path(), fixture).unwrap();
    for (name, table) in FIXTURE_FINISHED {
        std::fs::write(j.artifact_path(name), table).unwrap();
    }
    let want: BTreeSet<String> = FIXTURE_FINISHED.iter().map(|(n, _)| n.to_string()).collect();
    assert_eq!(j.completed(), want, "every finish in the fixture journal is recovered");
    let report = fsck::check(&dir, false).unwrap();
    assert!(report.clean(), "fixture state dir must check clean: {:?}", report.findings);
    let _ = std::fs::remove_dir_all(&dir);

    let dir = scratch("fixture-write");
    let mut j = Journal::open(&dir, false).unwrap();
    write_fixture_records(&mut j);
    assert_eq!(
        std::fs::read_to_string(j.journal_path()).unwrap(),
        fixture,
        "the same records must encode to the fixture's bytes"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fixture_lease_reads_back() {
    let dir = scratch("fixture-lease");
    let path = lease::lease_path(&dir, "fixture");
    std::fs::write(&path, include_str!("fixtures/fixture.lease")).unwrap();
    let want = LeaseRecord {
        owner: "7-w0-\"q\\\n\u{1}".to_owned(),
        seq: 1,
        ts_ms: 1_792_141_061_366,
    };
    assert_eq!(lease::read_lease(&path).unwrap(), Some(want));
    let _ = std::fs::remove_dir_all(&dir);
}
