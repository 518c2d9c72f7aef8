//! SIGINT/SIGTERM handling without a libc dependency.
//!
//! The workspace has no crates.io access, so this hand-declares the
//! one C symbol it needs. The handler does the only async-signal-safe
//! thing possible — it stores into a process-global atomic — and a
//! watcher thread owned by the caller polls that flag and runs the
//! actual shutdown (which takes locks and does I/O, neither of which
//! is legal inside a signal handler).

use std::sync::atomic::{AtomicBool, Ordering};

static TRIGGERED: AtomicBool = AtomicBool::new(false);
static USR1: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
mod unix {
    extern "C" fn on_signal(_sig: i32) {
        super::TRIGGERED.store(true, std::sync::atomic::Ordering::SeqCst);
    }

    extern "C" fn on_usr1(_sig: i32) {
        super::USR1.store(true, std::sync::atomic::Ordering::SeqCst);
    }

    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    #[cfg(target_os = "macos")]
    const SIGUSR1: i32 = 30;
    #[cfg(not(target_os = "macos"))]
    const SIGUSR1: i32 = 10;

    pub(super) fn install() {
        unsafe {
            signal(SIGINT, on_signal);
            signal(SIGTERM, on_signal);
        }
    }

    pub(super) fn install_usr1() {
        unsafe {
            signal(SIGUSR1, on_usr1);
        }
    }
}

/// Install SIGINT and SIGTERM handlers that set the shutdown flag.
/// No-op on non-Unix platforms (shutdown is then only reachable
/// programmatically). Idempotent.
pub fn install_shutdown_signals() {
    #[cfg(unix)]
    unix::install();
}

/// Install a SIGUSR1 handler that sets the dump flag. The serve loop
/// polls [`take_usr1`] and writes a flight-recorder dump when it
/// fires. No-op on non-Unix platforms. Idempotent.
pub fn install_usr1_signal() {
    #[cfg(unix)]
    unix::install_usr1();
}

/// Whether a shutdown signal has been received.
pub fn shutdown_requested() -> bool {
    TRIGGERED.load(Ordering::SeqCst)
}

/// Consume a pending SIGUSR1: returns `true` at most once per signal.
pub fn take_usr1() -> bool {
    USR1.swap(false, Ordering::SeqCst)
}

/// Reset the flags (tests only; real daemons exit after one shutdown).
pub fn reset_for_tests() {
    TRIGGERED.store(false, Ordering::SeqCst);
    USR1.store(false, Ordering::SeqCst);
}
