//! Typed simulation errors: configuration problems, watchdog stalls, and
//! protocol invariant violations.
//!
//! [`System::run`](crate::System::run) returns these
//! instead of silently spinning to `max_cycles` when the machine wedges,
//! so a coherence bug (say, a lost `InvAck`) surfaces as a structured
//! report naming the culprit line and cycle rather than as a hung run.

use inpg_coherence::CoherenceError;
use inpg_noc::NocViolation;
use inpg_sim::{Addr, ConfigError, CoreId, Cycle};
use std::fmt;

/// A forward-progress stall detected by the watchdog.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StallReport {
    /// Cycle at which the watchdog fired.
    pub cycle: Cycle,
    /// The configured stall window, in cycles.
    pub window: u64,
    /// The progress metric (flit hops + deliveries + completed critical
    /// sections) frozen since the window began.
    pub progress: u64,
    /// Multi-line machine state: per-core/L1/home status, per-router
    /// buffer occupancy and credits, live barrier entries, and the oldest
    /// in-flight packet's position.
    pub detail: String,
    /// Recovery retransmissions fired before the stall (0 with recovery
    /// off — a watchdog abort under recovery-on means the retry budget
    /// or timeout did not cover the injected fault).
    pub retransmits: u64,
    /// Retransmission timeouts that had already hit the backoff ceiling.
    pub backoff_ceiling_hits: u64,
    /// Big routers permanently degraded to pass-through.
    pub routers_pass_through: u64,
}

impl fmt::Display for StallReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "stall: no forward progress for {} cycles (progress metric stuck at {} since \
             cycle {})",
            self.window,
            self.progress,
            self.cycle.as_u64().saturating_sub(self.window),
        )?;
        writeln!(
            f,
            "recovery: {} retransmit(s), {} backoff ceiling hit(s), {} router(s) in \
             pass-through",
            self.retransmits, self.backoff_ceiling_hits, self.routers_pass_through,
        )?;
        write!(f, "{}", self.detail.trim_end())
    }
}

/// A protocol invariant the checker found broken.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InvariantViolation {
    /// A network-level invariant failed (packet conservation, buffer or
    /// credit accounting, barrier TTL bounds).
    Noc {
        /// Cycle of the check.
        cycle: Cycle,
        /// The underlying network violation.
        violation: NocViolation,
    },
    /// More than one L1 holds `addr` in a writable (M/E) state.
    MultipleOwners {
        /// Cycle of the check.
        cycle: Cycle,
        /// The multiply-owned block address.
        addr: Addr,
        /// Every core holding the block in M or E.
        owners: Vec<CoreId>,
    },
    /// The system is quiescent yet a core is still waiting for
    /// invalidation acknowledgements that can no longer arrive — the
    /// signature of a dropped or mis-relayed `InvAck`.
    AckConservation {
        /// Cycle of the check.
        cycle: Cycle,
        /// The waiting core.
        core: CoreId,
        /// The contended block address.
        addr: Addr,
        /// Acknowledgements the home told the core to expect.
        expected: u16,
        /// Acknowledgements actually collected.
        received: u16,
        /// Cycle the stalled transaction was issued.
        issued_at: Cycle,
    },
    /// A component's entry in the per-tile activity schedule disagrees
    /// with its state: a tick it needed could be skipped (or an idle
    /// component ticked).
    StaleSchedule {
        /// Cycle of the check.
        cycle: Cycle,
        /// `home bank`, `L1` or `core`.
        component: &'static str,
        /// The tile.
        core: CoreId,
        /// The cycle the schedule holds ([`Cycle::MAX`] = never).
        scheduled: Cycle,
        /// The cycle the component's state says it next has work.
        due: Cycle,
    },
}

impl fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InvariantViolation::Noc { cycle, violation } => {
                write!(f, "cycle {}: {violation}", cycle.as_u64())
            }
            InvariantViolation::MultipleOwners { cycle, addr, owners } => {
                write!(
                    f,
                    "cycle {}: SWMR violated at {addr}: cores {owners:?} all hold the \
                     block in a writable state",
                    cycle.as_u64()
                )
            }
            InvariantViolation::AckConservation {
                cycle,
                core,
                addr,
                expected,
                received,
                issued_at,
            } => {
                write!(
                    f,
                    "cycle {}: ack conservation violated: {core} has waited since cycle {} \
                     for invalidation acks on {addr} ({received}/{expected} collected) \
                     with the network and all homes idle — an InvAck was lost",
                    cycle.as_u64(),
                    issued_at.as_u64()
                )
            }
            InvariantViolation::StaleSchedule { cycle, component, core, scheduled, due } => {
                let at = |c: &Cycle| {
                    if *c == Cycle::MAX { "never".to_string() } else { c.as_u64().to_string() }
                };
                write!(
                    f,
                    "cycle {}: stale activity schedule: {component} of {core} is scheduled \
                     for cycle {} but next has work at cycle {}",
                    cycle.as_u64(),
                    at(scheduled),
                    at(due)
                )
            }
        }
    }
}

impl std::error::Error for InvariantViolation {}

/// Any way a checked simulation run can fail.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The configuration was rejected before the run started.
    Config(ConfigError),
    /// The watchdog detected a forward-progress stall.
    Stall(StallReport),
    /// The invariant checker caught a protocol violation.
    Invariant(InvariantViolation),
    /// A pure protocol state machine rejected a delivered message — a
    /// lost, duplicated or misrouted packet upstream.
    Protocol {
        /// Cycle the offending message was processed.
        cycle: Cycle,
        /// The violation raised by the L1 or home step function.
        error: CoherenceError,
    },
    /// The harness raised the run's [`inpg_sim::AbortHandle`] — a
    /// deadline passed or a shutdown began — and the simulator wound
    /// down cooperatively at its next abort-poll point. Not a protocol
    /// failure: the machine was healthy, the caller stopped waiting.
    Aborted {
        /// Cycle at which the abort was observed.
        cycle: Cycle,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Config(e) => write!(f, "configuration error: {}", e.message()),
            SimError::Stall(report) => write!(f, "{report}"),
            SimError::Invariant(v) => write!(f, "invariant violation: {v}"),
            SimError::Protocol { cycle, error } => {
                write!(f, "cycle {}: protocol violation: {error}", cycle.as_u64())
            }
            SimError::Aborted { cycle } => {
                write!(f, "aborted by the harness at cycle {}", cycle.as_u64())
            }
        }
    }
}

impl std::error::Error for SimError {}

impl From<ConfigError> for SimError {
    fn from(e: ConfigError) -> Self {
        SimError::Config(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stall_report_names_window_and_cycle() {
        let report = StallReport {
            cycle: Cycle::new(30_000),
            window: 10_000,
            progress: 421,
            detail: "core 5: spinning\n".into(),
            retransmits: 3,
            backoff_ceiling_hits: 1,
            routers_pass_through: 2,
        };
        let text = report.to_string();
        assert!(text.contains("10000 cycles"), "{text}");
        assert!(text.contains("stuck at 421"), "{text}");
        assert!(text.contains("core 5: spinning"), "{text}");
        assert!(text.contains("3 retransmit(s)"), "{text}");
        assert!(text.contains("1 backoff ceiling hit(s)"), "{text}");
        assert!(text.contains("2 router(s) in pass-through"), "{text}");
    }

    #[test]
    fn ack_conservation_names_culprits() {
        let v = InvariantViolation::AckConservation {
            cycle: Cycle::new(5_000),
            core: CoreId::new(7),
            addr: Addr::new(0x80),
            expected: 3,
            received: 2,
            issued_at: Cycle::new(1_200),
        };
        let text = v.to_string();
        assert!(text.contains("cycle 5000"), "{text}");
        assert!(text.contains("2/3"), "{text}");
        assert!(text.contains("InvAck was lost"), "{text}");
    }

    #[test]
    fn sim_error_wraps_config_error() {
        let err: SimError = ConfigError::new("bad mesh").into();
        assert!(err.to_string().contains("bad mesh"));
    }

    #[test]
    fn aborted_names_the_cycle() {
        let err = SimError::Aborted { cycle: Cycle::new(4096) };
        assert!(err.to_string().contains("aborted"), "{err}");
        assert!(err.to_string().contains("4096"), "{err}");
    }
}
