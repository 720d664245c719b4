//! Checkpoint conformance for the MITTS shaper itself: its snapshot must
//! round-trip encode → decode → re-encode bit-identically, a resumed
//! shaper must make exactly the decisions the uninterrupted one makes,
//! and a snapshot taken under a different configuration must be refused.

use mitts_core::{BinConfig, BinSpec, MittsShaper};
use mitts_sim::shaper::SourceShaper;
use mitts_sim::snapshot::{Dec, Enc, SnapshotError};

fn sparse_config(period: u64) -> BinConfig {
    let spec = BinSpec::paper_default();
    let mut credits = vec![0u32; spec.bins()];
    credits[1] = 3;
    credits[4] = 5;
    credits[8] = 2;
    BinConfig::new(spec, credits, period).unwrap()
}

/// Drives the shaper through grants, denies, replenishments, and LLC
/// feedback so every mutable field is exercised.
fn exercise(s: &mut MittsShaper, from: u64, to: u64) {
    for now in from..to {
        s.tick(now);
        if now % 3 == 0 {
            if let mitts_sim::shaper::ShapeDecision::Grant(token) = s.try_issue(now) {
                // Every 4th grant turns out to be an LLC hit (refund
                // path, §III-D hybrid placement).
                s.on_llc_response(now + 20, token, now % 12 == 0);
            }
        }
    }
}

#[test]
fn mitts_shaper_round_trips_bit_identically() {
    let mut original = MittsShaper::new(sparse_config(700));
    exercise(&mut original, 0, 5_000);

    let mut e = Enc::new();
    original.save_state(&mut e);
    let bytes = e.into_bytes();

    let mut resumed = MittsShaper::new(sparse_config(700));
    let mut d = Dec::new(&bytes);
    resumed.load_state(&mut d).expect("own snapshot must load");
    d.finish().expect("decode must consume every byte");

    let mut e2 = Enc::new();
    resumed.save_state(&mut e2);
    assert_eq!(bytes, e2.into_bytes(), "re-encode must be bit-identical");

    // The ledger the tuner reads is restored exactly...
    assert_eq!(original.live_credits(), resumed.live_credits());
    assert_eq!(original.grants_per_bin(), resumed.grants_per_bin());
    assert_eq!(original.counters(), resumed.counters());

    // ...and, the real contract, the *future* is identical: decisions,
    // replenishments, and ledgers agree cycle for cycle across several
    // replenish periods.
    exercise(&mut original, 5_000, 12_000);
    exercise(&mut resumed, 5_000, 12_000);
    assert_eq!(original.live_credits(), resumed.live_credits());
    assert_eq!(original.grants_per_bin(), resumed.grants_per_bin());
    assert_eq!(original.counters(), resumed.counters());
}

#[test]
fn mitts_shaper_refuses_a_foreign_configuration() {
    let mut original = MittsShaper::new(sparse_config(700));
    exercise(&mut original, 0, 2_000);
    let mut e = Enc::new();
    original.save_state(&mut e);
    let bytes = e.into_bytes();

    // Same bins, different replenish period: must be a mismatch, because
    // the snapshot only carries mutable state on top of the config.
    let mut other = MittsShaper::new(sparse_config(900));
    let err = other
        .load_state(&mut Dec::new(&bytes))
        .expect_err("a different replenish period must not load");
    assert!(matches!(err, SnapshotError::Mismatch(_)), "got {err:?}");

    // Truncated state must be a decode error, never a panic.
    let mut third = MittsShaper::new(sparse_config(700));
    let cut = bytes.len() - 3;
    assert!(third.load_state(&mut Dec::new(&bytes[..cut])).is_err());
}
