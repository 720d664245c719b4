//! Deterministic checkpoint/resume: a versioned, CRC-checked binary
//! snapshot of the complete simulation state.
//!
//! A [`Snapshot`] is a self-describing container of named sections. Each
//! section carries its own CRC-32, so a flipped byte anywhere surfaces as
//! a [`SnapshotError`] on load — never a panic, never silently wrong
//! state. The format is versioned; a snapshot from a different format
//! version is rejected with a clear error.
//!
//! The contract (pinned by `tests/snapshot_equivalence.rs`): run a
//! [`crate::system::System`] to cycle *C*, [`crate::system::System::snapshot`]
//! it, rebuild an identically configured system via
//! [`crate::system::SystemBuilder::resume_from`], and the resumed run
//! produces **bit-identical** statistics, grant ledgers, audit logs, and
//! trace-event streams versus the uninterrupted run — under both the
//! naive and the skip engine.
//!
//! # What is (and is not) captured
//!
//! The snapshot captures all *mutable* simulation state: core pipelines
//! and trace cursors, shaper credits and replenish phase, cache arrays
//! and MSHRs, controller queues, DRAM bank/bus timing, scheduler state,
//! RNG streams, and auditor/observer counters. It does **not** capture
//! the *configuration* (traces, shapers, schedulers, sinks must be
//! reconstructed identically by the caller — a config digest guards
//! against mismatches), nor the contents of trace sinks or retained
//! sampler rows (events already emitted live in the caller's sink; the
//! resumed system emits the remainder of the stream).

pub mod codec;

use std::fmt;
use std::path::Path;

pub use codec::{crc32, Dec, Enc};

/// Magic bytes identifying a MITTS snapshot file.
pub const MAGIC: &[u8; 8] = b"MITTSNAP";
/// Current snapshot format version. Bumped on any layout change.
pub const FORMAT_VERSION: u32 = 13;

/// Error produced when building, encoding, or decoding a snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The buffer does not start with the snapshot magic.
    BadMagic,
    /// The snapshot was written by an incompatible format version.
    Version {
        /// Version found in the snapshot header.
        found: u32,
        /// Version this build understands.
        expected: u32,
    },
    /// A section's CRC-32 did not match its payload.
    Crc {
        /// Name of the corrupted section.
        section: String,
    },
    /// The payload is structurally invalid (truncated, bad lengths,
    /// invalid enum tags, trailing bytes).
    Corrupt(String),
    /// A component in the system does not support snapshotting (e.g. a
    /// custom trace source or scheduler without save/load support).
    Unsupported {
        /// Human-readable component position, e.g. `core 3 trace source`.
        component: String,
    },
    /// The snapshot does not match the system it is being restored into
    /// (different configuration, component kinds, or topology).
    Mismatch(String),
    /// Snapshotting was refused because the system is in a state that
    /// cannot be captured (the forward-progress watchdog has fired).
    Stalled,
    /// An I/O error while reading or writing a snapshot file.
    Io(String),
}

impl SnapshotError {
    /// Shorthand for a [`SnapshotError::Corrupt`] with a static reason.
    pub fn corrupt(reason: impl Into<String>) -> Self {
        SnapshotError::Corrupt(reason.into())
    }

    /// Shorthand for a [`SnapshotError::Unsupported`] component.
    pub fn unsupported(component: impl Into<String>) -> Self {
        SnapshotError::Unsupported { component: component.into() }
    }

    /// Shorthand for a [`SnapshotError::Mismatch`].
    pub fn mismatch(reason: impl Into<String>) -> Self {
        SnapshotError::Mismatch(reason.into())
    }
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::BadMagic => write!(f, "not a MITTS snapshot (bad magic)"),
            SnapshotError::Version { found, expected } => write!(
                f,
                "snapshot format version {found} is not supported (this build reads {expected})"
            ),
            SnapshotError::Crc { section } => {
                write!(f, "snapshot section `{section}` failed its CRC check (corrupted data)")
            }
            SnapshotError::Corrupt(reason) => write!(f, "corrupt snapshot: {reason}"),
            SnapshotError::Unsupported { component } => {
                write!(f, "{component} does not support snapshotting")
            }
            SnapshotError::Mismatch(reason) => {
                write!(f, "snapshot does not match this system: {reason}")
            }
            SnapshotError::Stalled => {
                write!(f, "cannot snapshot a stalled system (watchdog has fired)")
            }
            SnapshotError::Io(e) => write!(f, "snapshot I/O error: {e}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> Self {
        SnapshotError::Io(e.to_string())
    }
}

/// A validated snapshot: named sections with per-section CRCs inside a
/// versioned container.
///
/// Produced by [`crate::system::System::snapshot`] (or
/// [`Snapshot::from_bytes`] / [`Snapshot::read_from`] when loading one
/// back); consumed by [`crate::system::SystemBuilder::resume_from`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    sections: Vec<(String, Vec<u8>)>,
}

impl Snapshot {
    /// Looks up a section payload by name.
    pub fn section(&self, name: &str) -> Result<&[u8], SnapshotError> {
        self.sections
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, p)| p.as_slice())
            .ok_or_else(|| SnapshotError::mismatch(format!("missing section `{name}`")))
    }

    /// Names of all sections, in encoding order.
    pub fn section_names(&self) -> impl Iterator<Item = &str> {
        self.sections.iter().map(|(n, _)| n.as_str())
    }

    /// Serializes the snapshot to its on-disk byte form:
    /// `MAGIC ++ body ++ crc32(body)` where `body` starts with the format
    /// version. The trailing whole-container CRC guarantees *every*
    /// single-byte corruption is detected (section names and length
    /// prefixes included), while the per-section CRCs inside the body
    /// localize corruption to a named section.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut e = Enc::new();
        e.u32(FORMAT_VERSION);
        e.usize(self.sections.len());
        for (name, payload) in &self.sections {
            e.str(name);
            e.u32(crc32(payload));
            e.bytes(payload);
        }
        let body = e.into_bytes();
        let mut out = Vec::with_capacity(MAGIC.len() + body.len() + 4);
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&body);
        out.extend_from_slice(&crc32(&body).to_le_bytes());
        out
    }

    /// Parses and validates a snapshot from bytes: magic, format version,
    /// the whole-container CRC, and every section CRC are checked up
    /// front.
    pub fn from_bytes(bytes: &[u8]) -> Result<Snapshot, SnapshotError> {
        if bytes.len() < MAGIC.len() || &bytes[..MAGIC.len()] != MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        if bytes.len() < MAGIC.len() + 8 {
            return Err(SnapshotError::corrupt("snapshot shorter than its header"));
        }
        let (body, trailer) = bytes[MAGIC.len()..].split_at(bytes.len() - MAGIC.len() - 4);
        let mut d = Dec::new(body);
        let version = d.u32()?;
        if version != FORMAT_VERSION {
            return Err(SnapshotError::Version { found: version, expected: FORMAT_VERSION });
        }
        let stored = u32::from_le_bytes([trailer[0], trailer[1], trailer[2], trailer[3]]);
        if crc32(body) != stored {
            return Err(SnapshotError::Crc { section: "(container)".into() });
        }
        let count = d.usize()?;
        let mut sections = Vec::new();
        for _ in 0..count {
            let name = d.str()?.to_owned();
            let crc = d.u32()?;
            let payload = d.bytes()?.to_vec();
            if crc32(&payload) != crc {
                return Err(SnapshotError::Crc { section: name });
            }
            sections.push((name, payload));
        }
        d.finish()?;
        Ok(Snapshot { sections })
    }

    /// Writes the snapshot atomically (temp file + rename + fsync) to
    /// `path`.
    pub fn write_to(&self, path: &Path) -> Result<(), SnapshotError> {
        crate::fsio::write_atomic(path, &self.to_bytes())?;
        Ok(())
    }

    /// Reads and validates a snapshot from `path`.
    pub fn read_from(path: &Path) -> Result<Snapshot, SnapshotError> {
        let bytes = std::fs::read(path)?;
        Snapshot::from_bytes(&bytes)
    }
}

/// Incremental builder used by `System::snapshot` to assemble sections.
#[derive(Debug, Default)]
pub struct SnapshotWriter {
    sections: Vec<(String, Vec<u8>)>,
}

impl SnapshotWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        SnapshotWriter::default()
    }

    /// Adds a section whose payload is produced by `fill`.
    pub fn section(&mut self, name: &str, fill: impl FnOnce(&mut Enc)) {
        let mut e = Enc::new();
        fill(&mut e);
        self.sections.push((name.to_owned(), e.into_bytes()));
    }

    /// Finalizes into a [`Snapshot`].
    pub fn finish(self) -> Snapshot {
        Snapshot { sections: self.sections }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Snapshot {
        let mut w = SnapshotWriter::new();
        w.section("meta", |e| {
            e.u64(123);
            e.str("config");
        });
        w.section("core.0", |e| e.u64s(&[1, 2, 3]));
        w.finish()
    }

    #[test]
    fn container_round_trip() {
        let snap = sample();
        let bytes = snap.to_bytes();
        let back = Snapshot::from_bytes(&bytes).unwrap();
        assert_eq!(snap, back);
        assert_eq!(back.section_names().collect::<Vec<_>>(), vec!["meta", "core.0"]);
        let mut d = Dec::new(back.section("meta").unwrap());
        assert_eq!(d.u64().unwrap(), 123);
    }

    #[test]
    fn every_single_byte_flip_is_detected() {
        let bytes = sample().to_bytes();
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x01;
            assert!(
                Snapshot::from_bytes(&bad).is_err(),
                "flip at byte {i} must be rejected"
            );
        }
    }

    #[test]
    fn truncation_at_every_length_is_detected() {
        let bytes = sample().to_bytes();
        for cut in 0..bytes.len() {
            assert!(Snapshot::from_bytes(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn wrong_version_is_a_clear_error() {
        let mut bytes = sample().to_bytes();
        // The version is the u32 right after the magic.
        bytes[8] = 0xFF;
        match Snapshot::from_bytes(&bytes) {
            Err(SnapshotError::Version { expected, .. }) => {
                assert_eq!(expected, FORMAT_VERSION);
            }
            other => panic!("expected version error, got {other:?}"),
        }
    }

    #[test]
    fn missing_section_is_a_mismatch() {
        let snap = sample();
        assert!(matches!(snap.section("nope"), Err(SnapshotError::Mismatch(_))));
    }

    #[test]
    fn error_display_is_single_line() {
        let errors = [
            SnapshotError::BadMagic,
            SnapshotError::Version { found: 9, expected: 1 },
            SnapshotError::Crc { section: "core.0".into() },
            SnapshotError::corrupt("bad"),
            SnapshotError::unsupported("core 0 trace source"),
            SnapshotError::mismatch("cores differ"),
            SnapshotError::Stalled,
            SnapshotError::Io("denied".into()),
        ];
        for e in errors {
            let s = e.to_string();
            assert!(!s.is_empty() && !s.contains('\n'), "{s:?}");
        }
    }
}
