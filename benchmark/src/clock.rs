//! One monotonic clock for every stamp in the process: nanoseconds since the
//! first call. Spans from different threads compare directly.

use std::sync::OnceLock;
use std::time::{Duration, Instant};

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Nanoseconds since the process epoch (the first call to this function).
pub fn now_ns() -> u64 {
    let epoch = *EPOCH.get_or_init(Instant::now);
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Sleeps until the clock reads `deadline_ns` (returns at once if it already
/// does).
pub fn sleep_until(deadline_ns: u64) {
    let now = now_ns();
    if deadline_ns > now {
        std::thread::sleep(Duration::from_nanos(deadline_ns - now));
    }
}

pub const SECOND: u64 = 1_000_000_000;
