//! Two-stage SIGINT handling for long-running sweeps.
//!
//! The first Ctrl-C requests a *graceful* stop: the handler only sets a
//! flag, and the sweep loop finishes (or abandons) its current unit of
//! work, flushes its journal, and writes partial tables with
//! `status=interrupted`. A second Ctrl-C aborts the process immediately
//! with the conventional exit status 130 (128 + SIGINT), for when the
//! current unit of work is itself stuck.
//!
//! No external crates: the handler is registered through libc's `signal`
//! via a minimal FFI declaration, and the second-stage abort uses
//! `_exit`, which is async-signal-safe (`std::process::exit` runs
//! destructors and is not).

use std::sync::atomic::{AtomicU32, Ordering};

const SIGINT: i32 = 2;

extern "C" {
    fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    fn _exit(status: i32) -> !;
}

static SIGINT_COUNT: AtomicU32 = AtomicU32::new(0);

extern "C" fn on_sigint(_sig: i32) {
    let prev = SIGINT_COUNT.fetch_add(1, Ordering::SeqCst);
    if prev >= 1 {
        // Second Ctrl-C: abort now. Only async-signal-safe calls here.
        unsafe { _exit(130) }
    }
}

/// Installs the two-stage handler. Idempotent; call once at startup of a
/// binary that wants graceful interruption.
pub fn install_sigint_handler() {
    unsafe {
        signal(SIGINT, on_sigint);
    }
}

/// Whether a graceful stop has been requested (at least one SIGINT
/// arrived). Poll this between units of work.
pub fn interrupted() -> bool {
    SIGINT_COUNT.load(Ordering::SeqCst) > 0
}

/// Sleeps for up to `d`, waking early on a graceful-stop request.
/// Returns `true` if the sleep was cut short by an interrupt — backoff
/// pauses and idle polling must stay responsive to Ctrl-C.
pub fn sleep_interruptibly(d: std::time::Duration) -> bool {
    let deadline = std::time::Instant::now() + d;
    loop {
        if interrupted() {
            return true;
        }
        let now = std::time::Instant::now();
        if now >= deadline {
            return false;
        }
        std::thread::sleep((deadline - now).min(std::time::Duration::from_millis(25)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    extern "C" {
        fn raise(signum: i32) -> i32;
    }

    #[test]
    fn first_sigint_sets_the_flag_without_exiting() {
        install_sigint_handler();
        assert!(!interrupted());
        unsafe {
            raise(SIGINT);
        }
        assert!(interrupted(), "first Ctrl-C must request a graceful stop");
        // Clear the flag again: the pool tests running beside this one in
        // the same process poll it and would read their sweeps as
        // interrupted.
        SIGINT_COUNT.store(0, Ordering::SeqCst);
        // Deliberately not raising a second SIGINT: that would _exit the
        // test process. The second stage is exercised end to end by the
        // kill-and-resume smoke in scripts/check.sh.
    }
}
