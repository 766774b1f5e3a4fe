//! Full-system configuration.

use inpg_locks::LockPrimitive;
use inpg_noc::NocConfig;
use inpg_sim::ConfigError;

/// Configuration of the complete many-core system (Table 1 defaults).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SystemConfig {
    /// NoC geometry, buffering and big-router deployment.
    pub noc: NocConfig,
    /// Lock primitive used by all critical sections.
    pub primitive: LockPrimitive,
    /// QSL retry budget before sleeping (Table 1: 128).
    pub retry_budget: u32,
    /// Whether OCOR is active: lock request packets carry
    /// remaining-times-of-retry priorities and routers arbitrate by them.
    pub ocor: bool,
    /// L1 hit latency in cycles (Table 1: 2).
    pub l1_hit_latency: u64,
    /// L2 bank access latency in cycles (Table 1: 6).
    pub l2_latency: u64,
    /// Context-switch cost of entering the QSL sleep phase.
    pub sleep_entry_cycles: u64,
    /// Cost of waking a slept thread (context switch back in).
    pub wakeup_cycles: u64,
    /// Safety bound on simulated cycles.
    pub max_cycles: u64,
    /// Record a full per-thread phase timeline (Figure 9 profiles).
    pub record_timeline: bool,
    /// Forward-progress watchdog: abort with a structured stall report
    /// when no event retires for this many consecutive cycles. `None`
    /// disables the watchdog. Armed by
    /// [`System::run`](crate::System::run).
    pub watchdog_cycles: Option<u64>,
    /// Run the protocol invariant checker every this many cycles.
    /// `None` disables checking. Run by
    /// [`System::run`](crate::System::run).
    pub invariant_check_interval: Option<u64>,
    /// Arm the fault-recovery layer: timeout-based retransmission of
    /// wedged exclusive transactions with exponential backoff, plus
    /// sequence-numbered dedup at the home nodes. Off by default so
    /// injected faults surface as aborts unless recovery is requested.
    pub recover: bool,
    /// Base retransmission timeout in cycles. Must dwarf the worst-case
    /// transaction service latency: a spurious timeout wastes a reissue
    /// and (in a corner case involving simultaneous grant and abort)
    /// can mis-count acknowledgements.
    pub recovery_timeout: u64,
    /// Retransmissions allowed per transaction before recovery gives up
    /// and lets the watchdog report the stall.
    pub recovery_retry_budget: u32,
}

impl SystemConfig {
    /// The paper's Table-1 platform with the default iNPG deployment.
    pub fn paper_default() -> Self {
        SystemConfig {
            noc: NocConfig::paper_default(),
            primitive: LockPrimitive::Qsl,
            retry_budget: 128,
            ocor: false,
            l1_hit_latency: 2,
            l2_latency: 6,
            sleep_entry_cycles: 1_500,
            wakeup_cycles: 2_500,
            max_cycles: 200_000_000,
            record_timeline: false,
            watchdog_cycles: None,
            invariant_check_interval: None,
            recover: false,
            recovery_timeout: 8_192,
            recovery_retry_budget: 8,
        }
    }

    /// The Original baseline: no big routers, no OCOR.
    pub fn baseline() -> Self {
        SystemConfig { noc: NocConfig::baseline(), ..Self::paper_default() }
    }

    /// Number of cores (= mesh nodes).
    pub fn cores(&self) -> usize {
        self.noc.nodes()
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] when the NoC config is invalid or the
    /// retry budget is zero.
    pub fn validate(&self) -> Result<(), ConfigError> {
        self.noc.validate()?;
        if self.retry_budget == 0 {
            return Err(ConfigError::new("retry budget must be nonzero"));
        }
        if self.max_cycles == 0 {
            return Err(ConfigError::new("max_cycles must be nonzero"));
        }
        if self.watchdog_cycles == Some(0) {
            return Err(ConfigError::new("watchdog window must be nonzero"));
        }
        if self.invariant_check_interval == Some(0) {
            return Err(ConfigError::new("invariant check interval must be nonzero"));
        }
        if self.recover {
            if self.recovery_timeout == 0 {
                return Err(ConfigError::new("recovery timeout must be nonzero"));
            }
            if self.recovery_retry_budget == 0 {
                return Err(ConfigError::new("recovery retry budget must be nonzero"));
            }
        }
        Ok(())
    }

    /// Arms (or disarms) the recovery layer (builder style).
    #[must_use]
    pub fn with_recovery(mut self, enabled: bool) -> Self {
        self.recover = enabled;
        self
    }

    /// When OCOR is enabled, the NoC must arbitrate by priority; this
    /// returns the config with the two flags consistent.
    #[must_use]
    pub fn with_ocor(mut self, enabled: bool) -> Self {
        self.ocor = enabled;
        self.noc.ocor_arbitration = enabled;
        self
    }
}

impl Default for SystemConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_is_valid() {
        let cfg = SystemConfig::paper_default();
        assert!(cfg.validate().is_ok());
        assert_eq!(cfg.cores(), 64);
        assert_eq!(cfg.retry_budget, 128);
    }

    #[test]
    fn with_ocor_keeps_flags_consistent() {
        let cfg = SystemConfig::baseline().with_ocor(true);
        assert!(cfg.ocor);
        assert!(cfg.noc.ocor_arbitration);
        let cfg = cfg.with_ocor(false);
        assert!(!cfg.noc.ocor_arbitration);
    }

    #[test]
    fn invalid_budget_rejected() {
        let mut cfg = SystemConfig::paper_default();
        cfg.retry_budget = 0;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn recovery_knobs_validated_only_when_armed() {
        let mut cfg = SystemConfig::paper_default();
        cfg.recovery_timeout = 0;
        cfg.recovery_retry_budget = 0;
        assert!(cfg.validate().is_ok(), "recovery off: knobs unchecked");
        let cfg = cfg.with_recovery(true);
        assert!(cfg.validate().is_err(), "zero timeout rejected when armed");
        let mut cfg = SystemConfig::paper_default().with_recovery(true);
        assert!(cfg.validate().is_ok());
        cfg.recovery_retry_budget = 0;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn zero_watchdog_and_interval_rejected() {
        let mut cfg = SystemConfig::paper_default();
        cfg.watchdog_cycles = Some(0);
        assert!(cfg.validate().is_err());
        cfg.watchdog_cycles = Some(10_000);
        assert!(cfg.validate().is_ok());

        cfg.invariant_check_interval = Some(0);
        assert!(cfg.validate().is_err());
        cfg.invariant_check_interval = Some(512);
        assert!(cfg.validate().is_ok());
    }
}
