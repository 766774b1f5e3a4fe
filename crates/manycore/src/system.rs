//! The complete many-core system: cores + L1s + distributed L2/directory
//! + mesh NoC, glued together and ticked cycle by cycle.

use crate::config::SystemConfig;
use crate::core_model::{CoreModel, CoreParams};
use crate::error::{InvariantViolation, SimError, StallReport};
use crate::program::ThreadProgram;
use inpg_coherence::{CoherenceMsg, Envelope, HomeBank, HomeMap, InvAckRoundTrips, L1Cache};
use inpg_locks::{LockHandle, LockLayout, LockPrimitive};
use inpg_noc::{Message, Network, NocStats};
use inpg_sim::{Addr, ConfigError, CoreId, Cycle, LockId, Watchdog};
use inpg_stats::{PhaseCounters, Timeline};
use std::collections::BTreeMap;

/// Where a lock's primary (contended) word should live.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LockPlacement {
    /// Spread primary words round-robin over the banks (default).
    #[default]
    Interleaved,
    /// Home the primary word at a specific tile (e.g. the paper homes
    /// the Figure-10 lock at tile (5, 6)).
    At(CoreId),
}

/// Outcome of a [`System::run`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunResult {
    /// Cycles simulated.
    pub cycles: u64,
    /// Whether every thread finished its program.
    pub completed: bool,
}

/// The full simulated machine.
#[derive(Debug)]
pub struct System {
    cfg: SystemConfig,
    network: Network<CoherenceMsg>,
    l1s: Vec<L1Cache>,
    homes: Vec<HomeBank>,
    cores: Vec<CoreModel>,
    home_map: HomeMap,
    timeline: Option<Timeline>,
    lock_layouts: Vec<LockLayout>,
    now: Cycle,
    outbox: Vec<Envelope>,
    /// Core whose delivered packets are logged to stderr
    /// (`INPG_TRACE_CORE`, debugging aid; read once at construction).
    trace_core: Option<usize>,
    /// Cooperative abort flag installed by the harness (deadline or
    /// shutdown); polled coarsely inside [`run`](Self::run).
    /// Lives on the system, not the config: [`SystemConfig`] is pure
    /// comparable data, while this is shared runtime state.
    abort: Option<inpg_sim::AbortHandle>,
}

impl System {
    /// Builds a system running one `program` per core, with `num_locks`
    /// lock instances placed per `placement`.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if the configuration is invalid, a
    /// program references a lock outside `0..num_locks`, or the program
    /// count does not equal the core count.
    pub fn new(
        cfg: SystemConfig,
        programs: Vec<ThreadProgram>,
        num_locks: usize,
        placement: LockPlacement,
    ) -> Result<Self, ConfigError> {
        cfg.validate()?;
        let cores = cfg.cores();
        if programs.len() != cores {
            return Err(ConfigError::new(format!(
                "expected {cores} programs (one per core), got {}",
                programs.len()
            )));
        }
        for (t, p) in programs.iter().enumerate() {
            if let Some(max) = p.max_lock() {
                if max.index() >= num_locks {
                    return Err(ConfigError::new(format!(
                        "thread {t} references {max} but only {num_locks} lock(s) exist"
                    )));
                }
            }
        }

        let home_map = HomeMap::new(cores);
        let mut homes: Vec<HomeBank> =
            (0..cores).map(|c| HomeBank::new(CoreId::new(c), cores, cfg.l2_latency)).collect();
        let mut l1s: Vec<L1Cache> =
            (0..cores).map(|c| L1Cache::new(CoreId::new(c), home_map, cfg.l1_hit_latency)).collect();
        if cfg.recover {
            for l1 in &mut l1s {
                l1.enable_recovery(cfg.recovery_timeout, cfg.recovery_retry_budget);
            }
        }

        // Allocate lock layouts: the primary word per `placement`, the
        // auxiliary words (queue slots, per-thread nodes) interleaved
        // over all banks. `slot_counters[bank]` tracks distinct blocks.
        let mut slot_counters = vec![0u64; cores];
        let mut alloc_at = |bank: usize| -> Addr {
            let addr = home_map.addr_homed_at(CoreId::new(bank), slot_counters[bank]);
            slot_counters[bank] += 1;
            addr
        };
        let mut lock_layouts = Vec::with_capacity(num_locks);
        let mut aux_rr = 0usize;
        for lock in 0..num_locks {
            let primary_bank = match placement {
                LockPlacement::Interleaved => lock % cores,
                LockPlacement::At(core) => {
                    if core.index() >= cores {
                        return Err(ConfigError::new("lock placement outside the mesh"));
                    }
                    core.index()
                }
            };
            let words_needed = LockLayout::words_needed(cfg.primitive, cores);
            let mut words = Vec::with_capacity(words_needed);
            words.push(alloc_at(primary_bank));
            for _ in 1..words_needed {
                words.push(alloc_at(aux_rr % cores));
                aux_rr += 1;
            }
            let layout = LockLayout::new(cfg.primitive, cores, words);
            for (addr, value) in layout.initial_values() {
                homes[home_map.home_of(addr).index()].init_block(addr, value);
            }
            lock_layouts.push(layout);
        }

        let params = CoreParams {
            sleep_entry_cycles: cfg.sleep_entry_cycles,
            wakeup_cycles: cfg.wakeup_cycles,
            ocor: cfg.ocor,
            retry_budget: cfg.retry_budget,
        };
        let core_models: Vec<CoreModel> = programs
            .into_iter()
            .enumerate()
            .map(|(c, program)| {
                let handles: Vec<LockHandle> = lock_layouts
                    .iter()
                    .map(|layout| {
                        LockHandle::with_retry_budget(layout.clone(), c, cfg.retry_budget)
                    })
                    .collect();
                CoreModel::new(CoreId::new(c), program, handles, params)
            })
            .collect();

        let timeline = cfg.record_timeline.then(|| Timeline::new(cores));
        let network = Network::new(cfg.noc.clone())?;
        Ok(System {
            cfg,
            network,
            l1s,
            homes,
            cores: core_models,
            home_map,
            timeline,
            lock_layouts,
            now: Cycle::ZERO,
            outbox: Vec::new(),
            trace_core: std::env::var("INPG_TRACE_CORE").ok().and_then(|v| v.parse().ok()),
            abort: None,
        })
    }

    /// Installs a cooperative abort flag. When another thread raises
    /// it, [`run`](Self::run) winds down with
    /// [`SimError::Aborted`] at its next poll point (every 1024 cycles).
    /// A run that completes before the flag is raised is byte-identical
    /// to one executed without a handle — the simulator only ever reads
    /// the flag, never a clock.
    pub fn set_abort(&mut self, handle: inpg_sim::AbortHandle) {
        self.abort = Some(handle);
    }

    /// The system configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    /// Current simulation time.
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// The primary (contended) word address of lock `lock`.
    pub fn lock_primary(&self, lock: LockId) -> Addr {
        self.lock_layouts[lock.index()].primary()
    }

    /// Whether every thread has finished.
    pub fn all_done(&self) -> bool {
        self.cores.iter().all(CoreModel::is_done)
    }

    /// Advances the machine one cycle, surfacing protocol violations
    /// (a pure L1 or home step function rejecting a delivered message)
    /// as typed errors.
    ///
    /// # Errors
    ///
    /// [`SimError::Protocol`] naming the violation and the cycle.
    pub fn try_tick(&mut self) -> Result<(), SimError> {
        let now = self.now;
        let cores = self.cfg.cores();

        // 1. The network moves flits and delivers packets.
        self.network.tick(now);

        // 2. Dispatch delivered packets to L1s / home banks / OS.
        for c in 0..cores {
            while let Some(packet) = self.network.pop_delivered(CoreId::new(c)) {
                if self.trace_core == Some(c) {
                    eprintln!("[{}] core {c} <- {:?} (monitored {:?})", now.as_u64(), packet.payload, self.cores[c].monitored_block());
                }
                match packet.payload {
                    CoherenceMsg::GetS { .. }
                    | CoherenceMsg::GetX { .. }
                    | CoherenceMsg::RelayedGetX { .. }
                    | CoherenceMsg::RelayedInvAck { .. }
                    | CoherenceMsg::UnblockS { .. }
                    | CoherenceMsg::UnblockX { .. } => {
                        self.homes[c].handle(packet.payload, now);
                    }
                    CoherenceMsg::OsWakeup { .. } => {
                        self.cores[c].on_wakeup_ipi(now);
                    }
                    msg @ (CoherenceMsg::FwdGetS { .. }
                    | CoherenceMsg::FwdGetX { .. }
                    | CoherenceMsg::Inv { .. }
                    | CoherenceMsg::Data { .. }
                    | CoherenceMsg::AckCount { .. }
                    | CoherenceMsg::InvAck { .. }
                    | CoherenceMsg::EarlyInvAck { .. }) => {
                        // MWAIT-style wake: losing the monitored line —
                        // by invalidation or by an exclusive-ownership
                        // transfer — wakes the sleeping thread (the word
                        // is being, or is about to be, written).
                        let lost = if let CoherenceMsg::Inv { addr, .. }
                        | CoherenceMsg::FwdGetX { addr, .. } = &msg
                        {
                            Some(addr.block())
                        } else {
                            None
                        };
                        if lost.is_some() && self.cores[c].monitored_block() == lost {
                            self.cores[c].on_wakeup_ipi(now);
                        }
                        let mut outbox = std::mem::take(&mut self.outbox);
                        let handled = self.l1s[c].try_handle(msg, now, &mut outbox);
                        self.flush(c, outbox);
                        handled.map_err(|error| SimError::Protocol { cycle: now, error })?;
                    }
                }
            }
        }

        // 3. Home banks process one request each.
        for c in 0..cores {
            let mut outbox = std::mem::take(&mut self.outbox);
            let ticked = self.homes[c].try_tick(now, &mut outbox);
            self.flush(c, outbox);
            ticked.map_err(|error| SimError::Protocol { cycle: now, error })?;
        }

        // 4. L1 timers.
        for l1 in &mut self.l1s {
            l1.tick(now);
        }

        // 4b. Recovery retransmission timers: a due timer aborts the
        // wedged exclusive transaction and reissues it under a fresh
        // sequence number.
        if self.cfg.recover {
            for c in 0..cores {
                if self.l1s[c].recovery_due(now) {
                    let mut outbox = std::mem::take(&mut self.outbox);
                    self.l1s[c].fire_recovery(now, &mut outbox);
                    self.flush(c, outbox);
                }
            }
        }

        // 5. Cores execute.
        for c in 0..cores {
            let mut outbox = std::mem::take(&mut self.outbox);
            self.cores[c].tick(now, &mut self.l1s[c], &mut outbox, self.timeline.as_mut());
            self.flush(c, outbox);
        }

        self.now = now.next();
        Ok(())
    }

    /// Sends every envelope produced by tile `c`, reusing the buffer.
    fn flush(&mut self, c: usize, mut outbox: Vec<Envelope>) {
        for env in outbox.drain(..) {
            let flits = env.msg.flits();
            let vnet = env.msg.vnet();
            self.network.send(
                self.now,
                Message {
                    src: CoreId::new(c),
                    dst: env.dst,
                    sink: env.sink,
                    vnet,
                    flits,
                    priority: env.priority,
                    payload: env.msg,
                },
            );
        }
        self.outbox = outbox;
    }

    /// Runs until every thread finishes or `max_cycles` elapse, with the
    /// robustness subsystem armed per the configuration: the
    /// forward-progress watchdog ([`SystemConfig::watchdog_cycles`])
    /// aborts a wedged run with a structured [`StallReport`], and the
    /// protocol invariant checker
    /// ([`SystemConfig::invariant_check_interval`]) aborts on the first
    /// [`InvariantViolation`] naming the culprit line and cycle.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Protocol`] when a delivered message violates
    /// the protocol, [`SimError::Stall`] when the progress metric
    /// freezes for a full watchdog window, [`SimError::Invariant`] when
    /// a periodic check finds the machine in an impossible state, and
    /// [`SimError::Aborted`] when an installed
    /// [abort handle](Self::set_abort) is raised mid-run.
    pub fn run(&mut self) -> Result<RunResult, SimError> {
        let mut watchdog = self.cfg.watchdog_cycles.map(Watchdog::new);
        let interval = self.cfg.invariant_check_interval;
        while !self.all_done() && self.now.as_u64() < self.cfg.max_cycles {
            if self.now.as_u64() & 0x3ff == 0 {
                if let Some(abort) = &self.abort {
                    if abort.is_aborted() {
                        return Err(SimError::Aborted { cycle: self.now });
                    }
                }
            }
            self.try_tick()?;
            if let Some(dog) = watchdog.as_mut() {
                if dog.observe(self.now, self.progress_metric()) {
                    return Err(SimError::Stall(self.stall_report(dog.window())));
                }
            }
            if let Some(k) = interval {
                if self.now.as_u64().is_multiple_of(k) {
                    self.check_protocol_invariants().map_err(SimError::Invariant)?;
                }
            }
        }
        Ok(RunResult { cycles: self.now.as_u64(), completed: self.all_done() })
    }

    /// The watchdog's forward-progress metric: any flit moving, any
    /// packet arriving, or any critical section completing counts.
    /// Monotonically non-decreasing; a frozen value means the machine is
    /// wedged (quiet sleep phases are bounded by the sleep/wakeup
    /// context-switch costs, well under any sane watchdog window).
    pub fn progress_metric(&self) -> u64 {
        let noc = self.network.stats();
        noc.flit_hops + noc.delivered + noc.consumed + self.cs_completed() as u64
    }

    /// Builds the structured stall report the watchdog attaches to
    /// [`SimError::Stall`]: unfinished cores with their L1 transactions,
    /// busy home banks, per-router buffer/credit occupancy, live barrier
    /// entries, and the oldest in-flight packet's position.
    pub fn stall_report(&self, window: u64) -> StallReport {
        let mut detail = self.stuck_report();
        detail.push_str(&self.network.congestion_report(self.now));
        let l1 = self.l1_stats();
        StallReport {
            cycle: self.now,
            window,
            progress: self.progress_metric(),
            detail,
            retransmits: l1.retransmits,
            backoff_ceiling_hits: l1.backoff_ceiling_hits,
            routers_pass_through: self.network.barrier_stats().in_pass_through,
        }
    }

    /// Checks protocol-level invariants, returning the first violation.
    ///
    /// Checked here (beyond the network-level conservation checks):
    ///
    /// * **Single-writer** — at most one L1 holds any block in a
    ///   writable (M/E) state;
    /// * **Ack conservation at quiescence** — with nothing in flight and
    ///   every home bank idle, no core may still be short of promised
    ///   invalidation acknowledgements (a lost `InvAck` wedges the
    ///   winner forever, the failure mode iNPG's ack relaying must
    ///   avoid).
    ///
    /// # Errors
    ///
    /// Returns the first [`InvariantViolation`] found, naming the cycle
    /// and the culprit block/cores.
    pub fn check_protocol_invariants(&self) -> Result<(), InvariantViolation> {
        let now = self.now;
        self.network
            .try_check_invariants()
            .map_err(|violation| InvariantViolation::Noc { cycle: now, violation })?;

        let mut owners: BTreeMap<Addr, Vec<CoreId>> = BTreeMap::new();
        for l1 in &self.l1s {
            for (addr, state) in l1.lines_snapshot() {
                if matches!(state, "M" | "E") {
                    owners.entry(addr).or_default().push(l1.core());
                }
            }
        }
        for (addr, mut owners) in owners {
            if owners.len() > 1 {
                owners.sort();
                return Err(InvariantViolation::MultipleOwners { cycle: now, addr, owners });
            }
        }

        // Quiescence-aware: envelopes are flushed into the network within
        // the tick that produces them, L1s acknowledge invalidations in
        // the same tick they receive them, and L1 timers cannot emit
        // messages — so once the network is empty and no home bank holds
        // an undelivered message, no missing acknowledgement can ever
        // arrive. (Home entries may legitimately sit busy behind the
        // wedged transaction itself, so busy entries don't gate this.)
        // A pending recovery timer means a retransmission is scheduled:
        // the "missing" acks will be re-solicited, so quiescence-based
        // ack conservation does not apply yet.
        if self.network.in_flight() == 0
            && !self.homes.iter().any(HomeBank::messages_pending)
            && !self.l1s.iter().any(L1Cache::recovery_pending)
        {
            for l1 in &self.l1s {
                if let Some((addr, expected, received, issued_at)) = l1.pending_ack_wait() {
                    return Err(InvariantViolation::AckConservation {
                        cycle: now,
                        core: l1.core(),
                        addr,
                        expected,
                        received,
                        issued_at,
                    });
                }
            }
        }
        Ok(())
    }

    /// Multi-line report of anything unfinished, for debugging stuck
    /// runs (incomplete [`RunResult`]s).
    pub fn stuck_report(&self) -> String {
        let mut out = String::new();
        for (c, core) in self.cores.iter().enumerate() {
            if !core.is_done() {
                out.push_str(&format!("core {c}: {}\n", core.state_line()));
                if let Some(p) = self.l1s[c].pending_report() {
                    out.push_str(&format!("  l1 pending: {p}\n"));
                }
            }
        }
        for (c, home) in self.homes.iter().enumerate() {
            for line in home.busy_report() {
                out.push_str(&format!("home {c}: {line}\n"));
            }
        }
        out.push_str(&format!("noc in flight: {}\n", self.network.in_flight()));
        out
    }

    /// Directory view of `addr` at its home bank (diagnostics).
    pub fn dir_report_for(&self, addr: Addr) -> String {
        self.homes[self.home_map.home_of(addr).index()].dir_report(addr)
    }

    /// Cached line of `addr` at `core`'s L1 (diagnostics).
    pub fn probe_line(&self, core: CoreId, addr: Addr) -> Option<(&'static str, u64)> {
        self.l1s[core.index()].probe_line(addr)
    }

    /// The authoritative value of a word once the system is quiescent:
    /// the owning L1's copy if one exists (M/E/O), else the home bank's
    /// L2 copy. Used by correctness tests to check final memory state.
    pub fn read_word(&self, addr: Addr) -> u64 {
        for l1 in &self.l1s {
            if let Some((state, value)) = l1.probe_line(addr) {
                if matches!(state, "M" | "E" | "O") {
                    return value;
                }
            }
        }
        self.homes[self.home_map.home_of(addr).index()].l2_value(addr)
    }

    // ---- measurement taps ------------------------------------------------

    /// Per-thread phase counters, finalized to `now`.
    pub fn thread_counters(&self) -> Vec<PhaseCounters> {
        self.cores.iter().map(|c| c.counters().clone()).collect()
    }

    /// The recorded timeline, if enabled.
    pub fn timeline(&self) -> Option<&Timeline> {
        self.timeline.as_ref()
    }

    /// Finish cycle of the slowest thread (the ROI finish time), if all
    /// threads finished.
    pub fn roi_finish(&self) -> Option<Cycle> {
        self.cores.iter().map(CoreModel::finish_cycle).collect::<Option<Vec<_>>>()?.into_iter().max()
    }

    /// Total completed critical sections.
    pub fn cs_completed(&self) -> usize {
        self.cores.iter().map(|c| c.counters().cs_count()).sum()
    }

    /// Invalidation–acknowledgement round trips: direct (winner-observed)
    /// and early (router-observed, recorded at the home), merged.
    pub fn invack_roundtrips(&self) -> InvAckRoundTrips {
        let (mut direct, early) = self.invack_roundtrips_split();
        direct.merge(&early);
        direct
    }

    /// Round trips split by mechanism: `(direct, early)`. Direct trips
    /// are home-generated invalidations observed by winners; early trips
    /// are big-router invalidations closed at the relaying router.
    pub fn invack_roundtrips_split(&self) -> (InvAckRoundTrips, InvAckRoundTrips) {
        let mut direct = InvAckRoundTrips::new(self.cfg.cores(), 256);
        for l1 in &self.l1s {
            direct.merge(l1.roundtrips());
        }
        let mut early = InvAckRoundTrips::new(self.cfg.cores(), 256);
        for home in &self.homes {
            early.merge(home.roundtrips());
        }
        (direct, early)
    }

    /// Network statistics.
    pub fn noc_stats(&self) -> &NocStats {
        self.network.stats()
    }

    /// Barrier-table statistics summed over big routers.
    pub fn barrier_stats(&self) -> inpg_noc::barrier::BarrierStats {
        self.network.barrier_stats()
    }

    /// Sum of per-core lock-transaction cycles (the LCO numerator) and
    /// per-core memory transaction cycles.
    pub fn lco_cycles(&self) -> (u64, u64) {
        let lco = self.l1s.iter().map(|l| l.stats().lock_txn_cycles).sum();
        let mem = self.l1s.iter().map(|l| l.stats().mem_txn_cycles).sum();
        (lco, mem)
    }

    /// Aggregated L1 counters.
    pub fn l1_stats(&self) -> inpg_coherence::L1Stats {
        let mut total = inpg_coherence::L1Stats::default();
        for l in &self.l1s {
            let s = l.stats();
            total.loads += s.loads;
            total.stores += s.stores;
            total.hits += s.hits;
            total.misses += s.misses;
            total.getx_issued += s.getx_issued;
            total.gets_issued += s.gets_issued;
            total.invs_received += s.invs_received;
            total.lock_txn_cycles += s.lock_txn_cycles;
            total.lock_txns += s.lock_txns;
            total.mem_txn_cycles += s.mem_txn_cycles;
            total.demoted_fails += s.demoted_fails;
            total.demote_retries += s.demote_retries;
            total.forwards_bounced += s.forwards_bounced;
            total.read_miss_lat += s.read_miss_lat;
            total.read_misses += s.read_misses;
            total.write_miss_lat += s.write_miss_lat;
            total.write_misses += s.write_misses;
            total.retransmits += s.retransmits;
            total.stale_acks_dropped += s.stale_acks_dropped;
            total.dup_grants_dropped += s.dup_grants_dropped;
            total.stale_absorbed += s.stale_absorbed;
            total.backoff_ceiling_hits += s.backoff_ceiling_hits;
            total.recovery_exhausted += s.recovery_exhausted;
        }
        total
    }

    /// Aggregated home-bank counters.
    pub fn home_stats(&self) -> inpg_coherence::HomeStats {
        let mut total = inpg_coherence::HomeStats::default();
        for h in &self.homes {
            let s = h.stats();
            total.requests += s.requests;
            total.getx += s.getx;
            total.invs_sent += s.invs_sent;
            total.invs_saved_by_early += s.invs_saved_by_early;
            total.relays_forwarded += s.relays_forwarded;
            total.early_acks_consumed += s.early_acks_consumed;
            total.acks_parked += s.acks_parked;
            total.demotions += s.demotions;
            total.queue_wait_cycles += s.queue_wait_cycles;
            total.max_queue_len = total.max_queue_len.max(s.max_queue_len);
            total.dup_requests_dropped += s.dup_requests_dropped;
            total.recovery_regrants += s.recovery_regrants;
        }
        total
    }

    /// Number of threads currently descheduled in the QSL sleep path.
    pub fn sleeping_threads(&self) -> usize {
        self.cores.iter().filter(|c| c.is_asleep()).count()
    }

    /// The lock primitive in use.
    pub fn primitive(&self) -> LockPrimitive {
        self.cfg.primitive
    }

    /// The home tile of an address (testing/diagnostics).
    pub fn home_of(&self, addr: Addr) -> CoreId {
        self.home_map.home_of(addr)
    }
}
