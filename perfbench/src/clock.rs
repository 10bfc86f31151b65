//! The benchmark's only reader of the wall clock.
//!
//! The workspace determinism lint (detlint rule D002) keeps clock reads
//! and blocking waits out of simulation code. Measuring elapsed time is
//! this package's whole job, so every timing, deadline and pause goes
//! through these three functions, each carrying the lint's reasoned
//! pragma. No reading ever reaches the measured program's inputs.

use std::time::{Duration, Instant, SystemTime};

/// The current monotonic instant.
pub fn now() -> Instant {
    // detlint: allow(D002) reason="benchmark timing; never an input of the measured program"
    Instant::now()
}

/// The current calendar time (for the provenance record's date).
pub fn system_now() -> SystemTime {
    // detlint: allow(D002) reason="provenance date of a result record; never an input of the measured program"
    SystemTime::now()
}

/// Sleeps for `duration` (polling intervals and the watchdog).
pub fn pause(duration: Duration) {
    // detlint: allow(D002) reason="bounded polling waits on child processes; never an input of the measured program"
    std::thread::sleep(duration);
}
