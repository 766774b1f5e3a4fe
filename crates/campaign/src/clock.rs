//! The harness-boundary wall clock.
//!
//! This is the *only* place in the campaign crate allowed to read the
//! host's wall clock (`cargo xtask lint` bans `Instant`/`SystemTime`
//! everywhere else in the crate). Cell execution and result merging are
//! pure functions of cell configs; wall time exists solely to report
//! harness throughput (progress, ETA, `BENCH_campaign.json`) and can
//! never influence what a cell computes or how results are merged.

/// A monotonically measured span started at the harness boundary.
#[derive(Debug, Clone, Copy)]
pub struct HarnessClock {
    // lint: allow(wallclock) — this module is the harness boundary; the
    // reading never reaches cell execution or merge logic.
    start: std::time::Instant,
}

impl HarnessClock {
    /// Starts measuring now.
    pub fn start() -> Self {
        // lint: allow(wallclock) — harness boundary (see module docs).
        HarnessClock { start: std::time::Instant::now() }
    }

    /// Nanoseconds elapsed since [`start`](Self::start).
    pub fn elapsed_nanos(&self) -> u64 {
        self.start.elapsed().as_nanos() as u64
    }
}

/// Simulated cycles per wall-clock second over a span of `wall_nanos`
/// (`None` for an untimed or unmeasurably short span).
pub fn cycles_per_sec(cycles: u64, wall_nanos: u64) -> Option<f64> {
    (wall_nanos > 0).then(|| cycles as f64 * 1e9 / wall_nanos as f64)
}

/// A wall-clock deadline, created and compared only here at the harness
/// boundary. The campaign service hands these to its deadline timer;
/// serve/submit code asks `expired()`/`remaining_ms()` and never names
/// `Instant` itself, so the wallclock lint stays meaningful: decisions
/// driven by wall time are confined to explicitly harness-side types.
#[derive(Debug, Clone, Copy)]
pub struct Deadline {
    // lint: allow(wallclock) — harness boundary (see module docs).
    at: std::time::Instant,
}

impl Deadline {
    /// A deadline `ms` milliseconds from now.
    pub fn after_ms(ms: u64) -> Self {
        // lint: allow(wallclock) — harness boundary (see module docs).
        Deadline { at: std::time::Instant::now() + std::time::Duration::from_millis(ms) }
    }

    /// Whether the deadline has passed.
    pub fn expired(&self) -> bool {
        // lint: allow(wallclock) — harness boundary (see module docs).
        std::time::Instant::now() >= self.at
    }

    /// Milliseconds until the deadline (0 once passed).
    pub fn remaining_ms(&self) -> u64 {
        // lint: allow(wallclock) — harness boundary (see module docs).
        let now = std::time::Instant::now();
        self.at.saturating_duration_since(now).as_millis() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn elapsed_is_monotone() {
        let clock = HarnessClock::start();
        let a = clock.elapsed_nanos();
        let b = clock.elapsed_nanos();
        assert!(b >= a);
    }

    #[test]
    fn deadline_expiry_is_ordered() {
        let soon = Deadline::after_ms(0);
        let late = Deadline::after_ms(3_600_000);
        std::thread::sleep(std::time::Duration::from_millis(2));
        assert!(soon.expired());
        assert_eq!(soon.remaining_ms(), 0);
        assert!(!late.expired());
        assert!(late.remaining_ms() > 3_000_000);
    }
}
