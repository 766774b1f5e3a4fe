//! The per-core thread model: executes a [`ThreadProgram`], driving lock
//! state machines through the L1 cache and accounting execution phases.
//!
//! The paper's cores are out-of-order Alpha cores, but on the lock/CS
//! code path they behave like a blocking in-order engine (every spin
//! iteration depends on the previous load); the model therefore issues
//! one memory operation at a time and charges compute segments as busy
//! cycles.

use crate::program::{Segment, ThreadProgram};
use inpg_coherence::{Envelope, L1Cache};
use inpg_locks::{LockHandle, LockStep};
use inpg_sim::{CoreId, Cycle};
use inpg_stats::{CsRecord, PhaseCounters, ThreadPhase, Timeline};

/// OS/scheduling parameters the core model needs.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CoreParams {
    pub sleep_entry_cycles: u64,
    pub wakeup_cycles: u64,
    pub ocor: bool,
    pub retry_budget: u32,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CoreState {
    /// Pick the next program segment.
    Dispatch,
    /// Busy in a parallel compute segment.
    Computing { until: Cycle },
    /// A memory operation is outstanding at the L1.
    MemWait,
    /// Spin-loop pause.
    PausedUntil { until: Cycle },
    /// Context-switching into the QSL sleep phase.
    FallingAsleep { until: Cycle },
    /// Descheduled; waiting for a wakeup IPI.
    Sleeping,
    /// Context-switching back in after a wakeup.
    Waking { until: Cycle },
    /// Executing the critical-section body.
    CsBody { until: Cycle },
    /// Program finished.
    Done,
}

/// One core and the single thread pinned to it.
#[derive(Debug)]
pub(crate) struct CoreModel {
    core: CoreId,
    params: CoreParams,
    program: ThreadProgram,
    seg_idx: usize,
    state: CoreState,
    handles: Vec<LockHandle>,
    current_lock: Option<usize>,
    cs_cycles_pending: u64,
    counters: PhaseCounters,
    phase: ThreadPhase,
    phase_since: Cycle,
    coh_started: Cycle,
    cse_started: Cycle,
    sleep_started: Cycle,
    /// QSL sleep is MWAIT-style: the thread monitors its lock word and
    /// wakes when the word is invalidated (the release reaching its L1).
    monitored: Option<inpg_sim::Addr>,
    wake_pending: bool,
    woken_recently: bool,
    finish_cycle: Option<Cycle>,
}

impl CoreModel {
    pub(crate) fn new(
        core: CoreId,
        program: ThreadProgram,
        handles: Vec<LockHandle>,
        params: CoreParams,
    ) -> Self {
        CoreModel {
            core,
            params,
            program,
            seg_idx: 0,
            state: CoreState::Dispatch,
            handles,
            current_lock: None,
            cs_cycles_pending: 0,
            counters: PhaseCounters::new(),
            phase: ThreadPhase::Parallel,
            phase_since: Cycle::ZERO,
            coh_started: Cycle::ZERO,
            cse_started: Cycle::ZERO,
            sleep_started: Cycle::ZERO,
            monitored: None,
            wake_pending: false,
            woken_recently: false,
            finish_cycle: None,
        }
    }

    pub(crate) fn is_done(&self) -> bool {
        self.state == CoreState::Done
    }

    pub(crate) fn finish_cycle(&self) -> Option<Cycle> {
        self.finish_cycle
    }

    pub(crate) fn counters(&self) -> &PhaseCounters {
        &self.counters
    }

    /// One-line state description for stuck-run diagnostics.
    pub(crate) fn state_line(&self) -> String {
        let handle = self.current_lock.map(|l| format!("{:?}", self.handles[l]));
        format!(
            "{:?} seg {}/{} lock {:?} wake_pending {} handle {:?}",
            self.state,
            self.seg_idx,
            self.program.segments().len(),
            self.current_lock,
            self.wake_pending,
            handle
        )
    }

    /// The first cycle at which [`tick`](Self::tick) can act on its own:
    /// any cycle in `Dispatch`, the `until` of a timed state, and never
    /// ([`Cycle::MAX`]) while waiting on memory, asleep or done. Those
    /// states move only when poked: by an L1 completion, or a wakeup
    /// delivered through [`on_wakeup_ipi`](Self::on_wakeup_ipi).
    pub(crate) fn wake_at(&self) -> Cycle {
        match self.state {
            CoreState::Dispatch => Cycle::ZERO,
            CoreState::Computing { until }
            | CoreState::PausedUntil { until }
            | CoreState::FallingAsleep { until }
            | CoreState::Waking { until }
            | CoreState::CsBody { until } => until,
            CoreState::MemWait | CoreState::Sleeping | CoreState::Done => Cycle::MAX,
        }
    }

    /// Whether the thread is descheduled (any stage of the sleep path).
    pub(crate) fn is_asleep(&self) -> bool {
        matches!(
            self.state,
            CoreState::FallingAsleep { .. } | CoreState::Sleeping | CoreState::Waking { .. }
        )
    }

    fn set_phase(&mut self, now: Cycle, phase: ThreadPhase, timeline: Option<&mut Timeline>) {
        if phase == self.phase {
            return;
        }
        self.counters.add(self.phase, now.saturating_since(self.phase_since));
        self.phase_since = now;
        self.phase = phase;
        if let Some(tl) = timeline {
            tl.set_phase(self.core.index(), now, phase);
        }
    }

    /// The lock word this thread monitors while in the sleep path.
    pub(crate) fn monitored_block(&self) -> Option<inpg_sim::Addr> {
        self.monitored
    }

    /// Delivers a wakeup (IPI or monitored-word invalidation).
    pub(crate) fn on_wakeup_ipi(&mut self, now: Cycle) {
        match self.state {
            CoreState::Sleeping => {
                self.monitored = None;
                self.state = CoreState::Waking { until: now + self.params.wakeup_cycles };
            }
            // Not (fully) asleep yet: leave a futex-style token so the
            // wakeup cannot be lost.
            _ => self.wake_pending = true,
        }
    }

    /// One simulation cycle: reacts to finished memory operations and
    /// elapsed timers.
    pub(crate) fn tick(
        &mut self,
        now: Cycle,
        l1: &mut L1Cache,
        out: &mut Vec<Envelope>,
        mut timeline: Option<&mut Timeline>,
    ) {
        if self.state == CoreState::MemWait {
            if let Some(completion) = l1.take_completion() {
                // lint: allow(unwrap) — only drive_lock enters MemWait, and it
                // requires current_lock; the lock clears only after release.
                let lock = self.current_lock.expect("MemWait implies an active lock");
                self.handles[lock].on_result(completion.value);
                self.drive_lock(now, l1, out, timeline.as_deref_mut());
            }
            return;
        }
        loop {
            match self.state {
                CoreState::Dispatch => {
                    if !self.dispatch(now, l1, out, timeline.as_deref_mut()) {
                        return;
                    }
                }
                CoreState::Computing { until } if now >= until => {
                    self.seg_idx += 1;
                    self.state = CoreState::Dispatch;
                }
                CoreState::PausedUntil { until } if now >= until => {
                    self.drive_lock(now, l1, out, timeline.as_deref_mut());
                    return;
                }
                CoreState::FallingAsleep { until } if now >= until => {
                    if self.wake_pending {
                        self.wake_pending = false;
                        self.state =
                            CoreState::Waking { until: now + self.params.wakeup_cycles };
                    } else {
                        self.state = CoreState::Sleeping;
                        return;
                    }
                }
                CoreState::Waking { until } if now >= until => {
                    self.counters.sleep_cycles += now.saturating_since(self.sleep_started);
                    self.monitored = None;
                    self.woken_recently = true;
                    // lint: allow(unwrap) — cores only sleep inside an
                    // acquire, which keeps current_lock set.
                    let lock = self.current_lock.expect("waking implies an active lock");
                    self.handles[lock].on_wakeup();
                    self.drive_lock(now, l1, out, timeline.as_deref_mut());
                    return;
                }
                CoreState::CsBody { until } if now >= until => {
                    // The release protocol is part of the CSE phase.
                    // lint: allow(unwrap) — the CS body starts from a
                    // successful acquire of current_lock.
                    let lock = self.current_lock.expect("CS body implies an active lock");
                    self.handles[lock].begin_release();
                    self.drive_lock(now, l1, out, timeline.as_deref_mut());
                    return;
                }
                _ => return,
            }
        }
    }

    /// Starts the next program segment. Returns `true` when the state
    /// machine should keep looping (zero-length segment chains).
    fn dispatch(
        &mut self,
        now: Cycle,
        l1: &mut L1Cache,
        out: &mut Vec<Envelope>,
        mut timeline: Option<&mut Timeline>,
    ) -> bool {
        match self.program.segments().get(self.seg_idx).copied() {
            None => {
                self.set_phase(now, ThreadPhase::Done, timeline.as_deref_mut());
                self.state = CoreState::Done;
                self.finish_cycle = Some(now);
                false
            }
            Some(Segment::Compute(cycles)) => {
                self.set_phase(now, ThreadPhase::Parallel, timeline.as_deref_mut());
                if cycles == 0 {
                    self.seg_idx += 1;
                    true
                } else {
                    self.state = CoreState::Computing { until: now + cycles };
                    false
                }
            }
            Some(Segment::Critical { lock, cs_cycles }) => {
                self.set_phase(now, ThreadPhase::Competition, timeline.as_deref_mut());
                self.coh_started = now;
                self.cs_cycles_pending = cs_cycles;
                self.current_lock = Some(lock.index());
                self.handles[lock.index()].begin_acquire();
                self.drive_lock(now, l1, out, timeline);
                false
            }
        }
    }

    /// Runs the active lock state machine until it blocks.
    fn drive_lock(
        &mut self,
        now: Cycle,
        l1: &mut L1Cache,
        out: &mut Vec<Envelope>,
        mut timeline: Option<&mut Timeline>,
    ) {
        // lint: allow(unwrap) — every caller sets or checks current_lock first.
        let lock = self.current_lock.expect("drive_lock without an active lock");
        loop {
            match self.handles[lock].step() {
                LockStep::Issue(op) => {
                    let priority = self.ocor_priority(lock, op.lock);
                    l1.issue_with_priority(op, priority, now, out);
                    self.state = CoreState::MemWait;
                    return;
                }
                LockStep::Pause(cycles) => {
                    self.state = CoreState::PausedUntil { until: now + cycles };
                    return;
                }
                LockStep::Sleep => {
                    let block = self.handles[lock].primary_addr().block();
                    if self.wake_pending || l1.probe_state(block) == "I" {
                        // Either a wakeup raced ahead, or the monitored
                        // line was invalidated between the final check
                        // and this instant (the lock likely changed):
                        // resume spinning instead of descheduling — a
                        // sleeper must always hold a registered shared
                        // copy so the release's invalidation reaches it.
                        self.wake_pending = false;
                        self.woken_recently = true;
                        self.handles[lock].on_wakeup();
                        continue;
                    }
                    self.sleep_started = now;
                    self.monitored = Some(block);
                    self.state = CoreState::FallingAsleep {
                        until: now + self.params.sleep_entry_cycles,
                    };
                    return;
                }
                LockStep::Notify { thread } => {
                    // Futex wake: an IPI to the successor's core. The
                    // system layer turns this into an OsWakeup message.
                    out.push(Envelope::to_core(
                        CoreId::new(thread),
                        inpg_coherence::CoherenceMsg::OsWakeup { core: CoreId::new(thread) },
                    ));
                    continue;
                }
                LockStep::Acquired => {
                    let coh = now.saturating_since(self.coh_started);
                    self.wake_pending = false;
                    self.woken_recently = false;
                    self.set_phase(now, ThreadPhase::CriticalSection, timeline.as_deref_mut());
                    self.cse_started = now;
                    // Stash the COH length until release completes.
                    self.coh_started = Cycle::new(coh); // reuse as storage
                    self.state = CoreState::CsBody { until: now + self.cs_cycles_pending };
                    return;
                }
                LockStep::Released => {
                    let coh_cycles = self.coh_started.as_u64();
                    let cse_cycles = now.saturating_since(self.cse_started);
                    self.counters.record_cs(CsRecord {
                        coh_cycles,
                        cse_cycles,
                        finished_at: now,
                    });
                    self.current_lock = None;
                    self.seg_idx += 1;
                    self.state = CoreState::Dispatch;
                    // Continue with the next segment immediately.
                    self.tick(now, l1, out, timeline);
                    return;
                }
            }
        }
    }

    /// OCOR packet priority for the next lock-protocol operation.
    fn ocor_priority(&self, lock: usize, is_lock_op: bool) -> u8 {
        if !self.params.ocor || !is_lock_op {
            return 0;
        }
        if self.woken_recently {
            // Wakeup requests get the single lowest priority level.
            return 0;
        }
        match self.handles[lock].remaining_retries() {
            Some(rtr) => {
                // 8 spinning levels: fewer remaining retries -> higher
                // priority (closer to the expensive sleep).
                let budget = self.params.retry_budget.max(1) as u64;
                let r = u64::from(rtr.clamp(1, self.params.retry_budget));
                (8 - ((r - 1) * 8 / budget).min(7)) as u8
            }
            None => 0,
        }
    }
}
