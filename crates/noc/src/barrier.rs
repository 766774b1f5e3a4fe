//! The locking barrier table inside a big router (paper §4.1, Figure 6).
//!
//! Each big router keeps a small table of *lock barriers*. A barrier is
//! installed for a lock address when the first exclusive lock request
//! (`GetX`) for that address is transferred through the router. While the
//! barrier lives, subsequent `GetX` requests for the same address are
//! *stopped*: an early-invalidation (EI) entry is created to track the
//! four phases of the interception —
//!
//! 1. `Inv` — the early invalidation packet is generated,
//! 2. `GetXFwd` — the stopped request is converted to a `FwdGetX` and
//!    forwarded to the home node,
//! 3. `InvAck` — the acknowledgement for the early invalidation returns
//!    to this router,
//! 4. `AckFwd` — the acknowledgement is relayed to the home node.
//!
//! A barrier's TTL (128 cycles by default) counts down only while the
//! barrier has no live EI entries and resets whenever one is created; the
//! barrier is deleted when the TTL reaches zero. When the table is full,
//! requests pass through as in a normal router.
//!
//! The protocol-relevant state lives in the pure [`BarrierFsm`]; the
//! [`LockingBarrierTable`] wraps it with the [`BarrierStats`] counters.
//! The `inpg-analysis` model checker drives `BarrierFsm` directly,
//! treating TTL expiry as a nondeterministic transition
//! ([`BarrierFsm::force_expire`]) instead of counting cycles.

use inpg_sim::{Addr, CoreId};

/// One barrier table's live entries, as reported by
/// [`LockingBarrierTable::snapshot`]: `(lock address, ttl, live EIs)`.
pub type BarrierSnapshot = Vec<(Addr, u32, usize)>;

/// Progress of one early invalidation (paper Figure 6's 4-phase entry).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EiPhase {
    /// Early `Inv` generated and `FwdGetX` relayed; awaiting the ack.
    AwaitingAck,
    /// Ack received and relayed to the home node; entry about to be freed.
    Complete,
}

/// One early-invalidation entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EiEntry {
    /// The core whose stopped `GetX` this entry tracks.
    pub core: CoreId,
    /// Current phase.
    pub phase: EiPhase,
}

/// One lock barrier.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Barrier {
    /// The lock's block address.
    pub addr: Addr,
    /// Remaining TTL in cycles.
    pub ttl: u32,
    /// Live early-invalidation entries.
    pub eis: Vec<EiEntry>,
}

/// What [`BarrierFsm::observe_transfer`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Observe {
    /// A new barrier was installed.
    Installed,
    /// A barrier for the block already exists.
    AlreadyPresent,
    /// The table is full; the request passes through.
    TableFull,
}

/// What [`BarrierFsm::take_ack`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TakeAck {
    /// A matching EI entry completed; the caller relays the ack.
    Relayed,
    /// No matching entry: the ack is stale and dropped.
    Stale,
}

/// Health of one big router's barrier table — the graceful-degradation
/// state machine.
///
/// A table under resource pressure (barrier slots or the EI pool
/// exhausted) is *Degraded*: requests pass through like in a normal
/// router until the backlog drains, at which point the table heals. A
/// *PassThrough* table has failed permanently (injected router failure):
/// it intercepts nothing for the rest of the run, while in-flight early
/// acknowledgements still drain to the home node via the stale-ack relay
/// path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum RouterHealth {
    /// Full iNPG interception service.
    #[default]
    Healthy,
    /// Resource pressure: new requests pass through until the table
    /// drains, then the router heals itself.
    Degraded,
    /// Permanent failure: pass-through (Original behaviour) for the rest
    /// of the run.
    PassThrough,
}

impl std::fmt::Display for RouterHealth {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RouterHealth::Healthy => f.write_str("healthy"),
            RouterHealth::Degraded => f.write_str("degraded"),
            RouterHealth::PassThrough => f.write_str("pass-through"),
        }
    }
}

/// The pure, timing-free barrier state machine: barriers, EI entries and
/// the pool bound — everything the interception protocol depends on,
/// with no statistics and no wall-clock.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct BarrierFsm {
    /// Live barriers in installation order.
    pub barriers: Vec<Barrier>,
    capacity: usize,
    ei_capacity: usize,
    ei_in_use: usize,
    default_ttl: u32,
}

impl BarrierFsm {
    /// Creates the state machine with `capacity` lock barriers, a shared
    /// pool of `ei_capacity` EI entries and the given TTL in cycles.
    pub fn new(capacity: usize, ei_capacity: usize, default_ttl: u32) -> Self {
        BarrierFsm {
            barriers: Vec::with_capacity(capacity.min(64)),
            capacity,
            ei_capacity,
            ei_in_use: 0,
            default_ttl,
        }
    }

    /// Records that a `GetX` for `addr` was transferred through this
    /// router, installing a barrier if none exists and the table has
    /// space.
    pub fn observe_transfer(&mut self, addr: Addr) -> Observe {
        let addr = addr.block();
        if self.barrier_index(addr).is_some() {
            return Observe::AlreadyPresent;
        }
        if self.barriers.len() >= self.capacity {
            return Observe::TableFull;
        }
        self.barriers.push(Barrier { addr, ttl: self.default_ttl, eis: Vec::new() });
        Observe::Installed
    }

    /// Whether a `GetX` for `addr` arriving now would be stopped: a
    /// barrier exists and the EI pool has space.
    pub fn should_stop(&self, addr: Addr) -> bool {
        self.barrier_index(addr.block()).is_some() && self.ei_in_use < self.ei_capacity
    }

    /// Whether a barrier for `addr` currently exists (regardless of EI
    /// pool occupancy).
    pub fn has_barrier(&self, addr: Addr) -> bool {
        self.barrier_index(addr.block()).is_some()
    }

    /// Stops a `GetX` from `core`: creates an EI entry in the
    /// `AwaitingAck` phase and resets the barrier's TTL. Returns `false`
    /// (without changing state) when no barrier exists or the EI pool is
    /// exhausted — callers gate on [`should_stop`](Self::should_stop).
    #[must_use]
    pub fn stop(&mut self, addr: Addr, core: CoreId) -> bool {
        let addr = addr.block();
        if self.ei_in_use >= self.ei_capacity {
            return false;
        }
        let default_ttl = self.default_ttl;
        let Some(idx) = self.barrier_index(addr) else { return false };
        let barrier = &mut self.barriers[idx];
        barrier.ttl = default_ttl;
        barrier.eis.push(EiEntry { core, phase: EiPhase::AwaitingAck });
        self.ei_in_use += 1;
        true
    }

    /// Consumes the early acknowledgement from `core` for `addr`: a
    /// matching `AwaitingAck` entry completes the `InvAck` and `AckFwd`
    /// phases together and is freed.
    pub fn take_ack(&mut self, addr: Addr, core: CoreId) -> TakeAck {
        let addr = addr.block();
        let Some(idx) = self.barrier_index(addr) else {
            return TakeAck::Stale;
        };
        let barrier = &mut self.barriers[idx];
        let Some(pos) = barrier
            .eis
            .iter()
            .position(|ei| ei.core == core && ei.phase == EiPhase::AwaitingAck)
        else {
            return TakeAck::Stale;
        };
        barrier.eis.remove(pos);
        self.ei_in_use -= 1;
        TakeAck::Relayed
    }

    /// Advances one cycle: barriers with no live EI entries count down
    /// and expire at zero. Returns the number of expired barriers.
    pub fn tick(&mut self) -> u64 {
        let mut expired = 0;
        self.barriers.retain_mut(|barrier| {
            if barrier.eis.is_empty() {
                barrier.ttl = barrier.ttl.saturating_sub(1);
                if barrier.ttl == 0 {
                    expired += 1;
                    return false;
                }
            }
            true
        });
        expired
    }

    /// Expires the barrier for `addr` immediately if it exists and has no
    /// live EI entries — the model checker's nondeterministic stand-in
    /// for TTL countdown (a barrier without live EIs may expire at *any*
    /// time, so every such state must tolerate expiry).
    pub fn force_expire(&mut self, addr: Addr) -> bool {
        let addr = addr.block();
        let Some(idx) = self.barrier_index(addr) else { return false };
        if !self.barriers[idx].eis.is_empty() {
            return false;
        }
        self.barriers.remove(idx);
        true
    }

    /// Live barrier count.
    pub fn barrier_count(&self) -> usize {
        self.barriers.len()
    }

    /// Live EI entries across all barriers.
    pub fn ei_count(&self) -> usize {
        self.ei_in_use
    }

    /// The TTL barriers are installed (and refreshed) with.
    pub fn default_ttl(&self) -> u32 {
        self.default_ttl
    }

    /// Snapshot of the live barriers: `(lock block, ttl, live EI
    /// entries)` per entry.
    pub fn snapshot(&self) -> BarrierSnapshot {
        self.barriers.iter().map(|b| (b.addr, b.ttl, b.eis.len())).collect()
    }

    /// Discards every barrier and EI entry (fault injection: the table
    /// loses its state mid-run).
    pub fn flush(&mut self) {
        self.barriers.clear();
        self.ei_in_use = 0;
    }

    /// Forces every live barrier's TTL to `ttl` cycles (fault injection).
    pub fn set_all_ttls(&mut self, ttl: u32) {
        for barrier in &mut self.barriers {
            barrier.ttl = ttl.max(1);
        }
    }

    /// Clamps the shared EI pool to at most `capacity` entries (fault
    /// injection: pool exhaustion).
    pub fn clamp_ei_capacity(&mut self, capacity: usize) {
        self.ei_capacity = self.ei_capacity.min(capacity);
    }

    fn barrier_index(&self, addr: Addr) -> Option<usize> {
        self.barriers.iter().position(|b| b.addr == addr)
    }
}

/// Counters the barrier table exposes for evaluation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BarrierStats {
    /// Barriers installed over the run.
    pub barriers_installed: u64,
    /// Barriers that expired via TTL.
    pub barriers_expired: u64,
    /// GetX requests stopped (early invalidations generated).
    pub requests_stopped: u64,
    /// GetX requests that passed because the table or EI pool was full.
    pub passes_table_full: u64,
    /// Early acknowledgements matched and relayed.
    pub acks_relayed: u64,
    /// Router-sink packets that matched no EI entry and were dropped.
    pub stale_acks_dropped: u64,
    /// Times this table entered the Degraded health state.
    pub degraded_transitions: u64,
    /// 1 while this table is permanently pass-through (summing the field
    /// across routers counts the failed population).
    pub in_pass_through: u64,
}

/// The locking barrier table of one big router: the [`BarrierFsm`] plus
/// its statistics.
///
/// # Example
///
/// ```
/// use inpg_noc::barrier::LockingBarrierTable;
/// use inpg_sim::{Addr, CoreId};
///
/// let mut table = LockingBarrierTable::new(16, 16, 128);
/// let lock = Addr::new(0x8000);
/// // First GetX transfers: installs the barrier, passes through.
/// assert!(!table.should_stop(lock));
/// table.observe_transfer(lock);
/// // Second GetX for the same lock is stopped.
/// assert!(table.should_stop(lock));
/// table.stop(lock, CoreId::new(9));
/// // The loser's ack comes back and is relayed.
/// assert!(table.take_ack(lock, CoreId::new(9)));
/// ```
#[derive(Debug, Clone)]
pub struct LockingBarrierTable {
    fsm: BarrierFsm,
    stats: BarrierStats,
    health: RouterHealth,
}

impl LockingBarrierTable {
    /// Creates a table with `capacity` lock barriers, `ei_capacity`
    /// early-invalidation entries (a pool shared across barriers) and the
    /// given TTL in cycles.
    pub fn new(capacity: usize, ei_capacity: usize, default_ttl: u32) -> Self {
        LockingBarrierTable {
            fsm: BarrierFsm::new(capacity, ei_capacity, default_ttl),
            stats: BarrierStats::default(),
            health: RouterHealth::Healthy,
        }
    }

    /// The table's current health state.
    pub fn health(&self) -> RouterHealth {
        self.health
    }

    /// Fails the router's table permanently: all barrier and EI state is
    /// discarded and the router passes every request through (Original
    /// behaviour) for the rest of the run. In-flight early acks still
    /// drain via the stale-ack relay path.
    pub fn fail(&mut self) {
        self.fsm.flush();
        self.health = RouterHealth::PassThrough;
        self.stats.in_pass_through = 1;
    }

    /// Marks resource pressure: a Healthy table degrades (pass-through
    /// until it drains). Degraded and PassThrough tables stay put.
    fn note_pressure(&mut self) {
        match self.health {
            RouterHealth::Healthy => {
                self.health = RouterHealth::Degraded;
                self.stats.degraded_transitions += 1;
            }
            RouterHealth::Degraded | RouterHealth::PassThrough => {}
        }
    }

    /// The pure protocol state (for invariant checks and diagnostics).
    pub fn fsm(&self) -> &BarrierFsm {
        &self.fsm
    }

    /// Records that a `GetX` for `addr` was transferred through this
    /// router, installing a barrier if none exists and the table has
    /// space. Returns `true` if a new barrier was installed.
    pub fn observe_transfer(&mut self, addr: Addr) -> bool {
        match self.health {
            RouterHealth::PassThrough => return false,
            RouterHealth::Healthy | RouterHealth::Degraded => {}
        }
        match self.fsm.observe_transfer(addr) {
            Observe::Installed => {
                self.stats.barriers_installed += 1;
                true
            }
            Observe::AlreadyPresent => false,
            Observe::TableFull => {
                self.stats.passes_table_full += 1;
                self.note_pressure();
                false
            }
        }
    }

    /// Whether a `GetX` for `addr` arriving now would be stopped: a
    /// barrier exists and the EI pool has space.
    pub fn should_stop(&self, addr: Addr) -> bool {
        match self.health {
            RouterHealth::PassThrough => false,
            RouterHealth::Healthy | RouterHealth::Degraded => self.fsm.should_stop(addr),
        }
    }

    /// Whether a barrier for `addr` currently exists (regardless of EI
    /// pool occupancy).
    pub fn has_barrier(&self, addr: Addr) -> bool {
        self.fsm.has_barrier(addr)
    }

    /// Stops a `GetX` from `core`: creates an EI entry in the
    /// `AwaitingAck` phase and resets the barrier's TTL.
    ///
    /// # Panics
    ///
    /// Panics if [`should_stop`](Self::should_stop) would return `false`;
    /// callers must check first.
    pub fn stop(&mut self, addr: Addr, core: CoreId) {
        assert!(self.fsm.stop(addr, core), "stop without a barrier or EI pool space");
        self.stats.requests_stopped += 1;
    }

    /// Records that the table or pool was full and a request passed.
    pub fn note_pass_full(&mut self) {
        self.stats.passes_table_full += 1;
        self.note_pressure();
    }

    /// Consumes the early acknowledgement from `core` for `addr`.
    /// Returns `true` when a matching EI entry existed (the caller relays
    /// the ack to the home node); `false` for a stale ack.
    pub fn take_ack(&mut self, addr: Addr, core: CoreId) -> bool {
        match self.fsm.take_ack(addr, core) {
            TakeAck::Relayed => {
                self.stats.acks_relayed += 1;
                true
            }
            TakeAck::Stale => {
                self.stats.stale_acks_dropped += 1;
                false
            }
        }
    }

    /// Advances one cycle: barriers with no live EI entries count down and
    /// expire at zero; a Degraded table heals once fully drained.
    pub fn tick(&mut self) {
        self.stats.barriers_expired += self.fsm.tick();
        match self.health {
            RouterHealth::Degraded => {
                if self.fsm.barrier_count() == 0 && self.fsm.ei_count() == 0 {
                    self.health = RouterHealth::Healthy;
                }
            }
            RouterHealth::Healthy | RouterHealth::PassThrough => {}
        }
    }

    /// Whether [`tick`](Self::tick) can change anything: a live barrier
    /// has a TTL to count down, or a degraded table may heal. An empty
    /// Healthy or PassThrough table ticks as a no-op.
    pub fn needs_tick(&self) -> bool {
        self.fsm.barrier_count() > 0 || self.health == RouterHealth::Degraded
    }

    /// Live barrier count.
    pub fn barrier_count(&self) -> usize {
        self.fsm.barrier_count()
    }

    /// Live EI entries across all barriers.
    pub fn ei_count(&self) -> usize {
        self.fsm.ei_count()
    }

    /// Accumulated counters.
    pub fn stats(&self) -> BarrierStats {
        self.stats
    }

    /// The TTL barriers are installed (and refreshed) with.
    pub fn default_ttl(&self) -> u32 {
        self.fsm.default_ttl()
    }

    /// Snapshot of the live barriers: `(lock block, ttl, live EI entries)`
    /// per entry. Used by invariant checks and stall reports.
    pub fn snapshot(&self) -> BarrierSnapshot {
        self.fsm.snapshot()
    }

    /// Discards every barrier and EI entry (fault injection: the table
    /// loses its state mid-run). Outstanding early-inv acks arriving later
    /// are treated as stale — and still relayed to the home node, which
    /// deduplicates them, so the protocol degrades instead of wedging.
    pub fn flush(&mut self) {
        self.fsm.flush();
    }

    /// Forces every live barrier's TTL to `ttl` cycles (fault injection:
    /// a TTL-expiry storm). Barriers with live EI entries still wait for
    /// their acks before counting down.
    pub fn set_all_ttls(&mut self, ttl: u32) {
        self.fsm.set_all_ttls(ttl);
    }

    /// Clamps the shared EI pool to at most `capacity` entries (fault
    /// injection: pool exhaustion). With a full pool every competing
    /// request passes through to the home node as in a normal router.
    pub fn clamp_ei_capacity(&mut self, capacity: usize) {
        self.fsm.clamp_ei_capacity(capacity);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> LockingBarrierTable {
        LockingBarrierTable::new(4, 4, 8)
    }

    #[test]
    fn first_transfer_installs_barrier() {
        let mut t = table();
        assert!(t.observe_transfer(Addr::new(0x100)));
        assert!(!t.observe_transfer(Addr::new(0x100)), "no duplicate barrier");
        assert_eq!(t.barrier_count(), 1);
        assert!(t.has_barrier(Addr::new(0x100)));
    }

    #[test]
    fn barrier_keys_on_block_address() {
        let mut t = table();
        t.observe_transfer(Addr::new(0x100));
        // Same 128-byte block, different word.
        assert!(t.should_stop(Addr::new(0x108)));
    }

    #[test]
    fn stop_requires_barrier() {
        let mut t = table();
        assert!(!t.should_stop(Addr::new(0x100)));
        t.observe_transfer(Addr::new(0x100));
        assert!(t.should_stop(Addr::new(0x100)));
        t.stop(Addr::new(0x100), CoreId::new(3));
        assert_eq!(t.ei_count(), 1);
    }

    #[test]
    fn table_capacity_limits_barriers() {
        let mut t = table();
        for i in 0..4 {
            assert!(t.observe_transfer(Addr::new(i * 128)));
        }
        assert!(!t.observe_transfer(Addr::new(4 * 128)), "table full");
        assert_eq!(t.barrier_count(), 4);
        assert_eq!(t.stats().passes_table_full, 1);
    }

    #[test]
    fn ei_pool_limits_stops() {
        let mut t = table();
        t.observe_transfer(Addr::new(0));
        for core in 0..4 {
            assert!(t.should_stop(Addr::new(0)));
            t.stop(Addr::new(0), CoreId::new(core));
        }
        assert!(!t.should_stop(Addr::new(0)), "EI pool exhausted");
    }

    #[test]
    fn ack_completes_and_frees_entry() {
        let mut t = table();
        t.observe_transfer(Addr::new(0));
        t.stop(Addr::new(0), CoreId::new(7));
        assert!(t.take_ack(Addr::new(0), CoreId::new(7)));
        assert_eq!(t.ei_count(), 0);
        assert_eq!(t.stats().acks_relayed, 1);
    }

    #[test]
    fn stale_ack_is_dropped() {
        let mut t = table();
        t.observe_transfer(Addr::new(0));
        assert!(!t.take_ack(Addr::new(0), CoreId::new(9)));
        assert!(!t.take_ack(Addr::new(0x5000), CoreId::new(9)));
        assert_eq!(t.stats().stale_acks_dropped, 2);
    }

    #[test]
    fn ttl_counts_down_only_without_eis() {
        let mut t = table();
        t.observe_transfer(Addr::new(0));
        t.stop(Addr::new(0), CoreId::new(1));
        for _ in 0..20 {
            t.tick();
        }
        assert_eq!(t.barrier_count(), 1, "live EI entry pins the barrier");
        assert!(t.take_ack(Addr::new(0), CoreId::new(1)));
        for _ in 0..7 {
            t.tick();
        }
        assert_eq!(t.barrier_count(), 1, "TTL of 8 not yet expired");
        t.tick();
        assert_eq!(t.barrier_count(), 0, "TTL expired");
        assert_eq!(t.stats().barriers_expired, 1);
    }

    #[test]
    fn stop_resets_ttl() {
        let mut t = table();
        t.observe_transfer(Addr::new(0));
        for _ in 0..7 {
            t.tick();
        }
        t.stop(Addr::new(0), CoreId::new(1));
        assert!(t.take_ack(Addr::new(0), CoreId::new(1)));
        for _ in 0..7 {
            t.tick();
        }
        assert_eq!(t.barrier_count(), 1, "TTL was reset by the stop");
    }

    #[test]
    fn expired_barrier_can_be_reinstalled() {
        let mut t = table();
        t.observe_transfer(Addr::new(0));
        for _ in 0..8 {
            t.tick();
        }
        assert_eq!(t.barrier_count(), 0);
        assert!(t.observe_transfer(Addr::new(0)));
    }

    #[test]
    fn flush_drops_barriers_and_frees_the_pool() {
        let mut t = table();
        t.observe_transfer(Addr::new(0));
        t.stop(Addr::new(0), CoreId::new(1));
        t.flush();
        assert_eq!(t.barrier_count(), 0);
        assert_eq!(t.ei_count(), 0);
        // The in-flight ack now looks stale but is still accounted.
        assert!(!t.take_ack(Addr::new(0), CoreId::new(1)));
        assert_eq!(t.stats().stale_acks_dropped, 1);
    }

    #[test]
    fn ttl_storm_expires_idle_barriers_next_tick() {
        let mut t = table();
        t.observe_transfer(Addr::new(0));
        t.observe_transfer(Addr::new(0x100));
        t.stop(Addr::new(0), CoreId::new(1));
        t.set_all_ttls(1);
        t.tick();
        assert_eq!(t.barrier_count(), 1, "barrier with a live EI survives");
        assert!(t.take_ack(Addr::new(0), CoreId::new(1)));
        t.tick();
        assert_eq!(t.barrier_count(), 0, "drained barrier expires at once");
        assert_eq!(t.stats().barriers_expired, 2);
    }

    #[test]
    fn clamped_pool_passes_requests_through() {
        let mut t = table();
        t.clamp_ei_capacity(0);
        t.observe_transfer(Addr::new(0));
        assert!(t.has_barrier(Addr::new(0)));
        assert!(!t.should_stop(Addr::new(0)), "no pool space: pass through");
    }

    #[test]
    fn snapshot_reports_live_entries() {
        let mut t = table();
        t.observe_transfer(Addr::new(0x100));
        t.stop(Addr::new(0x100), CoreId::new(2));
        let snap = t.snapshot();
        assert_eq!(snap, vec![(Addr::new(0x100), 8, 1)]);
        assert_eq!(t.default_ttl(), 8);
    }

    #[test]
    fn duplicate_core_entries_allowed_across_rounds() {
        let mut t = table();
        t.observe_transfer(Addr::new(0));
        t.stop(Addr::new(0), CoreId::new(2));
        t.stop(Addr::new(0), CoreId::new(2));
        assert_eq!(t.ei_count(), 2);
        assert!(t.take_ack(Addr::new(0), CoreId::new(2)));
        assert!(t.take_ack(Addr::new(0), CoreId::new(2)));
        assert!(!t.take_ack(Addr::new(0), CoreId::new(2)));
    }

    #[test]
    fn pressure_degrades_and_drain_heals() {
        let mut t = table();
        for i in 0..4 {
            t.observe_transfer(Addr::new(i * 128));
        }
        assert_eq!(t.health(), RouterHealth::Healthy);
        t.observe_transfer(Addr::new(4 * 128));
        assert_eq!(t.health(), RouterHealth::Degraded, "table-full pressure degrades");
        assert_eq!(t.stats().degraded_transitions, 1);
        for _ in 0..8 {
            t.tick();
        }
        assert_eq!(t.barrier_count(), 0);
        assert_eq!(t.health(), RouterHealth::Healthy, "drained table heals");
    }

    #[test]
    fn failed_router_passes_everything_through() {
        let mut t = table();
        t.observe_transfer(Addr::new(0));
        t.stop(Addr::new(0), CoreId::new(1));
        t.fail();
        assert_eq!(t.health(), RouterHealth::PassThrough);
        assert_eq!(t.barrier_count(), 0);
        assert_eq!(t.ei_count(), 0);
        assert_eq!(t.stats().in_pass_through, 1);
        assert!(!t.observe_transfer(Addr::new(0x200)), "no new barriers after failure");
        assert!(!t.should_stop(Addr::new(0)));
        assert!(!t.take_ack(Addr::new(0), CoreId::new(1)), "in-flight ack drains as stale");
        for _ in 0..100 {
            t.tick();
        }
        assert_eq!(t.health(), RouterHealth::PassThrough, "failure is permanent");
    }

    #[test]
    fn force_expire_skips_barriers_with_live_eis() {
        let mut fsm = BarrierFsm::new(4, 4, 8);
        assert_eq!(fsm.observe_transfer(Addr::new(0)), Observe::Installed);
        assert!(fsm.stop(Addr::new(0), CoreId::new(1)));
        assert!(!fsm.force_expire(Addr::new(0)), "live EI pins the barrier");
        assert_eq!(fsm.take_ack(Addr::new(0), CoreId::new(1)), TakeAck::Relayed);
        assert!(fsm.force_expire(Addr::new(0)));
        assert!(!fsm.has_barrier(Addr::new(0)));
    }
}
