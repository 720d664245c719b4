//! Seeded chaos campaigns for the parallel sweep engine: the
//! generalization of the old single-point `MITTS_CRASH_AFTER` hook into
//! a deterministic fault *plan*.
//!
//! `MITTS_CHAOS=<seed>` arms the plan. Every fault decision is a pure
//! hash of `(seed, round, experiment, attempt, fault kind)` — no RNG
//! state, no wall clock — so a campaign is exactly reproducible from its
//! seed. Three fault kinds map onto the three ways a real worker dies:
//!
//! * **injected panic** — the experiment body panics mid-run, exercising
//!   per-attempt `catch_unwind` isolation, bounded-backoff retries, and
//!   quarantine when the retry budget runs out;
//! * **heartbeat delay** — the owning worker silently skips lease
//!   renewals for 1.5 × TTL, so the lease goes stale *while the
//!   experiment still runs* and a survivor reclaims it — the
//!   SIGSTOP/overload shape of failure;
//! * **process kill** — `exit(3)` either after the N-th journal `finish`
//!   or mid-flight inside a chosen victim experiment, the
//!   SIGKILL/power-loss shape (`MITTS_CRASH_AFTER`'s generalization).
//!
//! # Convergence by construction
//!
//! Each process invocation under a journaled sweep bumps a persisted
//! *round* counter (`<state>/chaos.round`). Fault probabilities decay
//! with the round and reach zero at round [`ChaosPlan::QUIET_ROUND`]:
//! a kill-and-resume loop is therefore guaranteed to terminate, and the
//! chaos gate's invariant is checkable — however the early rounds died,
//! the final resumed sweep must produce artifacts byte-identical to a
//! clean serial run.

use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use mitts_sim::rng::{fnv1a, splitmix64};

/// A deterministic, decaying fault plan for one sweep process.
#[derive(Debug)]
pub struct ChaosPlan {
    seed: u64,
    round: u64,
    /// At most one process kill fires per invocation, whichever trigger
    /// (finish-count or mid-run) is reached first.
    kill_armed: AtomicBool,
}

impl ChaosPlan {
    /// First round with no faults at all; every campaign is quiet from
    /// here on, which is what guarantees convergence.
    pub const QUIET_ROUND: u64 = 3;

    /// A plan for an explicit `(seed, round)` — tests drive rounds by
    /// hand; binaries use [`ChaosPlan::from_env`].
    pub fn new(seed: u64, round: u64) -> ChaosPlan {
        ChaosPlan { seed, round, kill_armed: AtomicBool::new(false) }
    }

    /// Reads `MITTS_CHAOS=<seed>`; `None` when unset. With a state
    /// directory, the persisted round counter is read and bumped so each
    /// resume of the same campaign runs a later (calmer) round; without
    /// one the round is always 0 (useful only for one-shot fault
    /// demonstrations — convergence needs the journal).
    pub fn from_env(state_dir: Option<&Path>) -> Option<ChaosPlan> {
        let seed = std::env::var("MITTS_CHAOS").ok()?.trim().parse::<u64>().ok()?;
        let round = match state_dir {
            Some(dir) => {
                let path = dir.join("chaos.round");
                let round = std::fs::read_to_string(&path)
                    .ok()
                    .and_then(|s| s.trim().parse::<u64>().ok())
                    .unwrap_or(0);
                let _ = std::fs::create_dir_all(dir);
                let _ = mitts_sim::fsio::write_atomic_str(
                    &path,
                    &format!("{}\n", round + 1),
                );
                round
            }
            None => 0,
        };
        Some(ChaosPlan::new(seed, round))
    }

    /// Which campaign round this process runs.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Whether this round injects any faults at all.
    pub fn active(&self) -> bool {
        self.round < Self::QUIET_ROUND
    }

    /// Hash in `[0, 1000)` for one decision point.
    fn roll(&self, name: &str, attempt: u32, kind: &str) -> u64 {
        splitmix64(
            self.seed
                ^ self.round.wrapping_mul(0x9E37_79B9)
                ^ fnv1a(name.as_bytes()).rotate_left(17)
                ^ (attempt as u64) << 7
                ^ fnv1a(kind.as_bytes()),
        ) % 1000
    }

    /// Should this attempt of `name` panic mid-experiment? Probability
    /// 1/2 in round 0, 1/4 in round 1, 0 after.
    pub fn inject_panic(&self, name: &str, attempt: u32) -> bool {
        let threshold = match self.round {
            0 => 500,
            1 => 250,
            _ => 0,
        };
        self.roll(name, attempt, "panic") < threshold
    }

    /// Should the worker running `name` go silent (skip lease renewals)
    /// long enough for its lease to be reclaimed? Returns the length of
    /// the silence window: 1.5 × `ttl` guarantees staleness.
    pub fn heartbeat_delay(&self, name: &str, ttl: Duration) -> Option<Duration> {
        let threshold = match self.round {
            0 | 1 => 333,
            2 => 250,
            _ => 0,
        };
        (self.roll(name, 0, "heartbeat") < threshold).then(|| ttl + ttl / 2)
    }

    /// Kill the process once the N-th `finish` record lands (rounds 0–1).
    pub fn kill_after_finishes(&self) -> Option<u64> {
        match self.round {
            0 => Some(1 + self.roll("", 0, "kill-finish") % 2),
            1 => Some(2 + self.roll("", 0, "kill-finish") % 2),
            _ => None,
        }
    }

    /// Kill the process mid-flight inside `name` (round 0, ~1/4 of
    /// experiments are candidates; the first one reached fires).
    pub fn kill_mid_run(&self, name: &str) -> bool {
        self.round == 0 && self.roll(name, 0, "kill-mid") < 250
    }

    /// Claims the single per-process kill. The first caller gets `true`
    /// and must exit; later triggers are ignored.
    pub fn try_arm_kill(&self) -> bool {
        !self.kill_armed.swap(true, Ordering::SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_deterministic() {
        let a = ChaosPlan::new(7, 0);
        let b = ChaosPlan::new(7, 0);
        for name in ["fig12", "fig13", "bins"] {
            for attempt in 1..3 {
                assert_eq!(a.inject_panic(name, attempt), b.inject_panic(name, attempt));
            }
            assert_eq!(
                a.heartbeat_delay(name, Duration::from_millis(400)),
                b.heartbeat_delay(name, Duration::from_millis(400))
            );
            assert_eq!(a.kill_mid_run(name), b.kill_mid_run(name));
        }
        assert_eq!(a.kill_after_finishes(), b.kill_after_finishes());
    }

    #[test]
    fn quiet_round_injects_nothing() {
        let p = ChaosPlan::new(0xC4A05, ChaosPlan::QUIET_ROUND);
        assert!(!p.active());
        for name in ["a", "b", "c", "fig12", "scaling"] {
            for attempt in 1..4 {
                assert!(!p.inject_panic(name, attempt));
            }
            assert!(p.heartbeat_delay(name, Duration::from_secs(1)).is_none());
            assert!(!p.kill_mid_run(name));
        }
        assert!(p.kill_after_finishes().is_none());
    }

    #[test]
    fn some_seed_injects_each_fault_kind_in_round_zero() {
        // Not a tautology: verifies the thresholds are live, i.e. a
        // campaign actually exercises every failure path.
        let names: Vec<String> = (0..64).map(|i| format!("exp{i}")).collect();
        let p = ChaosPlan::new(99, 0);
        assert!(names.iter().any(|n| p.inject_panic(n, 1)));
        assert!(names
            .iter()
            .any(|n| p.heartbeat_delay(n, Duration::from_millis(100)).is_some()));
        assert!(names.iter().any(|n| p.kill_mid_run(n)));
        assert!(p.kill_after_finishes().is_some());
    }

    #[test]
    fn kill_arms_exactly_once() {
        let p = ChaosPlan::new(1, 0);
        assert!(p.try_arm_kill());
        assert!(!p.try_arm_kill());
    }

    #[test]
    fn round_counter_persists_and_decays() {
        let dir = std::env::temp_dir()
            .join(format!("mitts-chaos-round-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("chaos.round"), b"2\n").unwrap();
        // from_env reads MITTS_CHAOS; avoid env mutation in tests by
        // exercising the round file contract directly.
        let round = std::fs::read_to_string(dir.join("chaos.round"))
            .unwrap()
            .trim()
            .parse::<u64>()
            .unwrap();
        let plan = ChaosPlan::new(5, round);
        assert_eq!(plan.round(), 2);
        assert!(plan.active());
        assert!(!ChaosPlan::new(5, round + 1).active());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
