//! The private L1 cache controller: MOESI stable states plus the
//! transient transactions the lock workloads exercise.
//!
//! The controller is split in two layers:
//!
//! * [`L1Core`] — the **pure, timing-free protocol state machine**: cache
//!   lines, the in-flight transaction, and step functions
//!   ([`L1Core::issue`], [`L1Core::handle`]) that map one input to state
//!   updates plus an [`L1Outcome`] (messages to send, a completed
//!   operation, bookkeeping notes). Protocol violations surface as typed
//!   [`CoherenceError`]s. The `inpg-analysis` model checker enumerates
//!   exactly these step functions over all bounded interleavings.
//! * [`L1Cache`] — the timed wrapper the simulator drives: it owns the
//!   hit/completion latencies, the statistics counters and the
//!   invalidation round-trip accounting, and delegates every protocol
//!   decision to the pure core.
//!
//! Each core owns one [`L1Cache`]. The core model issues at most one
//! demand operation at a time (cores block on memory in the
//! lock/critical-section code paths); the controller turns misses into
//! directory transactions and answers forwards/invalidations from the
//! network at any time.
//!
//! # Model simplifications (documented in `DESIGN.md`)
//!
//! * No capacity evictions: the lock study touches a handful of blocks,
//!   far below the 32 KB capacity, so replacement never triggers and is
//!   not modelled.
//! * One word of payload per 128-byte block — exactly what lock variables
//!   and per-thread queue nodes need.
//! * A read whose data response races an invalidation installs a shared
//!   copy that may be momentarily stale; the authoritative SWAP/CAS path
//!   always goes through an exclusive transaction, so lock correctness is
//!   unaffected (a stale spin read just retries).

use crate::err::CoherenceError;
use crate::map::HomeMap;
use crate::msg::{AckTarget, CoherenceMsg, Envelope};
use crate::stats::{InvAckRoundTrips, L1Stats};
use inpg_sim::{coverage, Addr, CoreId, Cycle, EventWheel};
use std::collections::BTreeMap;

/// One memory operation a core can issue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum MemOpKind {
    /// Read a word.
    Load,
    /// Write a word.
    Store(u64),
    /// Atomically exchange the word, returning the old value (the
    /// paper's `SWAP`).
    Swap(u64),
    /// Atomically add to the word, returning the old value
    /// (`fetch_and_add`, used by the ticket lock and ABQL).
    FetchAdd(u64),
    /// Atomically compare-and-swap, returning the old value
    /// (`compare_and_swap`, used by the MCS lock).
    CompareSwap {
        /// Value the word must currently hold for the swap to happen.
        expected: u64,
        /// Value written on success.
        new: u64,
    },
}

impl MemOpKind {
    /// Whether this operation needs exclusive (write) access.
    pub fn is_write(self) -> bool {
        !matches!(self, MemOpKind::Load)
    }

    /// Applies the operation to `old`, returning the new stored value.
    pub fn apply(self, old: u64) -> u64 {
        match self {
            MemOpKind::Load => old,
            MemOpKind::Store(v) | MemOpKind::Swap(v) => v,
            MemOpKind::FetchAdd(d) => old.wrapping_add(d),
            MemOpKind::CompareSwap { expected, new } => {
                if old == expected {
                    new
                } else {
                    old
                }
            }
        }
    }
}

/// A memory operation plus the address it targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MemOp {
    /// Target address (word granularity; coherence is per block).
    pub addr: Addr,
    /// What to do.
    pub kind: MemOpKind,
    /// True when the address is a lock variable: the resulting `GetX` is
    /// interceptable by big routers and counted as lock coherence
    /// overhead.
    pub lock: bool,
}

/// The result handed back to the core when an operation finishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    /// The finished operation.
    pub op: MemOp,
    /// The value the word held *before* the operation (load value, or
    /// the old value for RMWs).
    pub value: u64,
    /// When the operation was issued.
    pub issued_at: Cycle,
    /// When it completed.
    pub completed_at: Cycle,
}

/// MOESI stable states.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum State {
    /// Dirty exclusive copy.
    Modified,
    /// Dirty copy with sharers; this core answers forwards.
    Owned,
    /// Clean exclusive copy (silent upgrade to M allowed).
    Exclusive,
    /// Clean copy, other copies may exist.
    Shared,
}

impl State {
    /// One-letter display form (`M`/`O`/`E`/`S`).
    pub fn letter(self) -> &'static str {
        match self {
            State::Modified => "M",
            State::Owned => "O",
            State::Exclusive => "E",
            State::Shared => "S",
        }
    }

    /// Whether the state permits writing without a directory transaction.
    pub fn is_writable(self) -> bool {
        matches!(self, State::Modified | State::Exclusive)
    }
}

/// One cached line: stable state plus the single data word the model
/// carries per block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Line {
    /// MOESI stable state.
    pub state: State,
    /// Cached word value.
    pub value: u64,
}

/// An in-flight directory transaction (timing-free view).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PendingTxn {
    /// The operation that started the transaction.
    pub op: MemOp,
    /// Whether the transaction requests exclusive access.
    pub exclusive: bool,
    /// Data (or AckCount) received yet?
    pub granted: bool,
    /// Value delivered by Data (exclusive path) or kept from an O-state
    /// upgrade (AckCount path).
    pub value: u64,
    /// Whether `value` is authoritative even if Data arrives (O upgrade).
    pub own_value: bool,
    /// Whether `value` holds a usable payload at all. A recovering
    /// transaction can be granted by an `AckCount` regrant whose data is
    /// still in flight from the old owner; completion must wait for it.
    pub has_value: bool,
    /// Invalidation acknowledgements announced by the home node (`None`
    /// until the grant arrives).
    pub acks_expected: Option<u16>,
    /// Invalidation acknowledgements collected so far.
    pub acks_received: u16,
    /// Whether the request may be demoted to a failed shared-copy
    /// service (conditional lock RMWs).
    pub failable: bool,
    /// An invalidation raced this transaction: any shared copy received
    /// is potentially stale and must not be cached.
    pub poisoned: bool,
    /// OCOR priority (kept for reissues).
    pub priority: u8,
    /// The transaction has been aborted-and-reissued at least once by the
    /// recovery layer; duplicate grants are expected and dropped.
    pub recovering: bool,
}

/// A finished operation as reported by the pure core; the timed wrapper
/// turns it into a [`Completion`] with issue/finish cycles attached.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct L1Completion {
    /// The finished operation.
    pub op: MemOp,
    /// The value observed (load value / RMW old value).
    pub value: u64,
    /// True when the operation hit in the cache (no transaction ran).
    pub hit: bool,
}

/// Bookkeeping events the pure core reports alongside its state changes;
/// the timed wrapper maps them onto statistics counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum L1Note {
    /// A read miss issued a `GetS`.
    MissGetS,
    /// A write miss (or S/O upgrade) issued a `GetX`.
    MissGetX,
    /// The operation hit in the cache.
    Hit,
    /// A `FwdGetS` found neither a line nor an upgrading transaction and
    /// was bounced back to the home node.
    ForwardBounced,
    /// A demoted conditional RMW observed the expected value and reissued
    /// itself as a non-failable `GetX`.
    DemoteRetry,
    /// A demoted conditional RMW failed without writing.
    DemotedFail,
    /// The recovery layer aborted the outstanding exclusive transaction
    /// and reissued it under a fresh sequence number.
    Retransmit,
    /// An invalidation acknowledgement from an aborted request epoch was
    /// dropped by the recovery filter.
    StaleAckDropped,
    /// A duplicate exclusive grant arrived while recovering and was
    /// dropped (the first grant of the current epoch is authoritative).
    DuplicateGrantDropped,
    /// A stale response for an already-completed recovery transaction was
    /// absorbed by the post-completion guard.
    StaleResponseAbsorbed,
    /// An exclusive grant answering an aborted epoch was dropped (its
    /// slow service raced the recovery retransmission and lost).
    StaleGrantDropped,
}

/// Everything one pure step produced: messages to send, an optional
/// finished operation, and bookkeeping notes.
#[derive(Debug, Default)]
pub struct L1Outcome {
    /// Protocol messages to hand to the network.
    pub msgs: Vec<Envelope>,
    /// The operation finished by this step, if any.
    pub completion: Option<L1Completion>,
    /// Statistics events.
    pub notes: Vec<L1Note>,
}

impl L1Outcome {
    fn note(mut self, n: L1Note) -> Self {
        self.notes.push(n);
        self
    }
}

/// The pure, timing-free L1 protocol state machine.
///
/// All timing (hit latency, completion scheduling, cycle-stamped
/// statistics) lives in [`L1Cache`]; `L1Core` is a deterministic function
/// of its inputs, which is what lets the model checker enumerate its
/// reachable states.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct L1Core {
    core: CoreId,
    home_map: HomeMap,
    /// Cached lines by block address.
    pub lines: BTreeMap<Addr, Line>,
    /// The in-flight directory transaction, if any.
    pub pending: Option<PendingTxn>,
    /// Monotonic per-core issue sequence number, bumped on every
    /// exclusive request (normal issue, demote retry, recovery reissue).
    /// The outstanding exclusive transaction's epoch is always the
    /// current value; the home node deduplicates on it.
    seq: u64,
    /// Post-completion stale guard: after a *recovering* transaction
    /// completes, responses for this block may still be in flight from
    /// aborted epochs; they are absorbed silently instead of raising
    /// `ResponseWithoutTxn`. Cleared on the next issue to the block.
    absorb: Option<Addr>,
}

impl L1Core {
    /// Creates the pure core state for `core`.
    pub fn new(core: CoreId, home_map: HomeMap) -> Self {
        L1Core { core, home_map, lines: BTreeMap::new(), pending: None, seq: 0, absorb: None }
    }

    /// The current exclusive-request epoch (the `seq` stamped on the most
    /// recent `GetX`).
    pub fn current_seq(&self) -> u64 {
        self.seq
    }

    /// The owning core.
    pub fn core(&self) -> CoreId {
        self.core
    }

    /// Whether a demand operation is outstanding at the protocol level.
    pub fn is_busy(&self) -> bool {
        self.pending.is_some()
    }

    /// The cached state of `addr` as a one-letter string (`I` when the
    /// line is absent).
    pub fn state_letter(&self, addr: Addr) -> &'static str {
        match self.lines.get(&addr.block()) {
            Some(line) => line.state.letter(),
            None => "I",
        }
    }

    /// Issues a demand operation, returning the messages to send and, on
    /// a hit, the finished operation.
    ///
    /// # Errors
    ///
    /// [`CoherenceError::IssueWhileBusy`] if a transaction is already
    /// outstanding.
    pub fn issue(&mut self, op: MemOp, priority: u8) -> Result<L1Outcome, CoherenceError> {
        if self.pending.is_some() {
            return Err(CoherenceError::IssueWhileBusy { core: self.core });
        }
        let block = op.addr.block();
        if self.absorb == Some(block) {
            // A fresh transaction for the block supersedes the stale
            // guard left by a completed recovery transaction.
            self.absorb = None;
        }
        let mut outcome = L1Outcome::default();

        match self.lines.get_mut(&block) {
            // Load hits in any valid state.
            Some(line) if !op.kind.is_write() => {
                outcome.completion = Some(L1Completion { op, value: line.value, hit: true });
                return Ok(outcome.note(L1Note::Hit));
            }
            // Writes hit in M and E (E upgrades silently).
            Some(line) if line.state.is_writable() => {
                let old = line.value;
                line.value = op.kind.apply(old);
                line.state = State::Modified;
                outcome.completion = Some(L1Completion { op, value: old, hit: true });
                return Ok(outcome.note(L1Note::Hit));
            }
            _ => {}
        }

        // Write in S/O, or any miss: directory transaction.
        let home = self.home_map.home_of(block);
        if op.kind.is_write() {
            // S/O copies are dropped; an O owner keeps its value as the
            // authoritative one (the home copy is stale).
            let own = self.lines.get(&block).map(|l| (l.state, l.value));
            let (own_value, value) = match own {
                Some((State::Owned | State::Modified, v)) => (true, v),
                Some((State::Exclusive | State::Shared, _)) | None => (false, 0),
            };
            self.lines.remove(&block);
            // An O-state owner upgrading in place must never be
            // intercepted by a big router: its copy is the only
            // up-to-date one and the directory will forward other
            // requesters to it. Clear the interceptable flag on the wire
            // (LCO accounting still uses `op.lock`).
            let interceptable = op.lock && !own_value;
            // Conditional RMWs (compare-and-swap) may be demoted to a
            // failed shared-copy service by the home node.
            let failable = matches!(op.kind, MemOpKind::CompareSwap { .. }) && !own_value;
            self.seq += 1;
            self.pending = Some(PendingTxn {
                op,
                exclusive: true,
                granted: false,
                value,
                own_value,
                has_value: own_value,
                acks_expected: None,
                acks_received: 0,
                failable,
                poisoned: false,
                priority,
                recovering: false,
            });
            outcome.msgs.push(
                Envelope::to_core(
                    home,
                    CoherenceMsg::GetX {
                        addr: block,
                        requester: self.core,
                        home,
                        lock: interceptable,
                        failable,
                        seq: self.seq,
                    },
                )
                .with_priority(priority),
            );
            Ok(outcome.note(L1Note::MissGetX))
        } else {
            self.pending = Some(PendingTxn {
                op,
                exclusive: false,
                granted: false,
                value: 0,
                own_value: false,
                has_value: false,
                acks_expected: Some(0),
                acks_received: 0,
                failable: false,
                poisoned: false,
                priority,
                recovering: false,
            });
            outcome.msgs.push(
                Envelope::to_core(
                    home,
                    CoherenceMsg::GetS { addr: block, requester: self.core },
                )
                .with_priority(priority),
            );
            Ok(outcome.note(L1Note::MissGetS))
        }
    }

    /// Handles one protocol message delivered to this core.
    ///
    /// # Errors
    ///
    /// Any [`CoherenceError`] variant describing the protocol violation
    /// when the message is impossible in the current state.
    pub fn handle(&mut self, msg: CoherenceMsg) -> Result<L1Outcome, CoherenceError> {
        coverage::record(coverage::L1_HANDLE.id(msg.variant_index()));
        match msg {
            CoherenceMsg::Data { addr, value, acks_expected, exclusive, needs_unblock, for_seq } => {
                self.on_data(addr, value, acks_expected, exclusive, needs_unblock, for_seq)
            }
            CoherenceMsg::AckCount { addr, acks_expected, for_seq } => {
                let core = self.core;
                if self.absorb == Some(addr) {
                    return Ok(L1Outcome::default().note(L1Note::StaleResponseAbsorbed));
                }
                if for_seq != self.seq {
                    // A grant answering an attempt the recovery layer
                    // aborted; the reissue gets its own grant.
                    return Ok(L1Outcome::default().note(L1Note::StaleGrantDropped));
                }
                let pending = self.pending.as_mut().ok_or(
                    CoherenceError::ResponseWithoutTxn { core, msg: msg.clone() },
                )?;
                check_addr(core, addr, pending.op.addr.block())?;
                // An AckCount without ownership is legal only for a
                // recovering transaction: the regrant of a forwarded
                // serve carries ack bookkeeping while the payload is
                // still in flight from the old owner.
                if !(pending.exclusive && (pending.own_value || pending.recovering)) {
                    return Err(CoherenceError::AckCountWithoutOwnership { core, addr });
                }
                if pending.recovering && pending.granted {
                    return Ok(L1Outcome::default().note(L1Note::DuplicateGrantDropped));
                }
                pending.granted = true;
                pending.acks_expected = Some(acks_expected);
                self.try_complete_exclusive()
            }
            CoherenceMsg::InvAck { addr, count, for_seq, .. } => {
                let core = self.core;
                if self.absorb == Some(addr) {
                    return Ok(L1Outcome::default().note(L1Note::StaleResponseAbsorbed));
                }
                let cur_seq = self.seq;
                let pending = self.pending.as_mut().ok_or(
                    CoherenceError::ResponseWithoutTxn { core, msg: msg.clone() },
                )?;
                check_addr(core, addr, pending.op.addr.block())?;
                if pending.exclusive && for_seq != cur_seq {
                    // Acknowledgement from an epoch the recovery layer
                    // aborted: the home re-invalidated on the reissue, so
                    // counting this one would double-count its sender.
                    return Ok(L1Outcome::default().note(L1Note::StaleAckDropped));
                }
                pending.acks_received += count;
                if let Some(expected) = pending.acks_expected {
                    if pending.acks_received > expected {
                        return Err(CoherenceError::SurplusInvAck {
                            core,
                            addr,
                            expected,
                            received: pending.acks_received,
                        });
                    }
                }
                self.try_complete_exclusive()
            }
            CoherenceMsg::Inv { addr, ack_to, home, sent_at, for_seq } => {
                let mut outcome = L1Outcome::default();
                self.lines.remove(&addr);
                if let Some(pending) = self.pending.as_mut() {
                    if pending.op.addr.block() == addr {
                        // A racing invalidation: any *shared* data this
                        // transaction later receives may be stale and
                        // must not be cached.
                        pending.poisoned = true;
                    }
                }
                match ack_to {
                    AckTarget::Core(winner) => outcome.msgs.push(Envelope::to_core(
                        winner,
                        CoherenceMsg::InvAck {
                            addr,
                            from: self.core,
                            inv_sent_at: sent_at,
                            via_home: false,
                            count: 1,
                            for_seq,
                        },
                    )),
                    AckTarget::Router(router) => outcome.msgs.push(Envelope::to_router(
                        router,
                        CoherenceMsg::EarlyInvAck {
                            addr,
                            from: self.core,
                            home,
                            inv_sent_at: sent_at,
                        },
                    )),
                }
                Ok(outcome)
            }
            CoherenceMsg::FwdGetS { addr, requester } => {
                let mut outcome = L1Outcome::default();
                // An owner that issued an upgrade GetX has dropped its
                // line but is still the logical owner until the home
                // processes its (queued) request: serve the forward from
                // the transaction's saved value (the MOESI "OM" state).
                let value = if let Some(line) = self.lines.get_mut(&addr) {
                    debug_assert!(matches!(
                        line.state,
                        State::Modified | State::Exclusive | State::Owned
                    ));
                    line.state = State::Owned;
                    line.value
                } else if let Some(pending) = self
                    .pending
                    .as_ref()
                    .filter(|p| p.op.addr.block() == addr && p.own_value)
                {
                    pending.value
                } else {
                    // Ownership moved on before the forward arrived (the
                    // non-blocking read path allows this): bounce the
                    // request back to the home, which re-resolves the
                    // current owner.
                    let home = self.home_map.home_of(addr);
                    outcome.msgs.push(Envelope::to_core(
                        home,
                        CoherenceMsg::GetS { addr, requester },
                    ));
                    return Ok(outcome.note(L1Note::ForwardBounced));
                };
                outcome.msgs.push(Envelope::to_core(
                    requester,
                    CoherenceMsg::Data {
                        addr,
                        value,
                        acks_expected: 0,
                        exclusive: false,
                        needs_unblock: false,
                        for_seq: None,
                    },
                ));
                Ok(outcome)
            }
            CoherenceMsg::FwdGetX { addr, requester, acks_expected, for_seq } => {
                let core = self.core;
                let mut outcome = L1Outcome::default();
                let value = if let Some(line) = self.lines.remove(&addr) {
                    debug_assert!(matches!(
                        line.state,
                        State::Modified | State::Exclusive | State::Owned
                    ));
                    line.value
                } else {
                    // Ownership is taken away while our own upgrade GetX
                    // is still queued at the home: hand the dirty value
                    // over and demote our transaction to an ordinary
                    // miss (the home will route fresh data to us when
                    // our turn comes).
                    let pending = self
                        .pending
                        .as_mut()
                        .filter(|p| p.op.addr.block() == addr && p.own_value)
                        .ok_or(CoherenceError::ForwardToNonOwner { core, addr })?;
                    if pending.granted {
                        return Err(CoherenceError::ForwardAfterGrant { core, addr });
                    }
                    pending.own_value = false;
                    pending.has_value = false;
                    let value = pending.value;
                    pending.value = 0;
                    value
                };
                outcome.msgs.push(Envelope::to_core(
                    requester,
                    CoherenceMsg::Data {
                        addr,
                        value,
                        acks_expected,
                        exclusive: true,
                        needs_unblock: true,
                        for_seq: Some(for_seq),
                    },
                ));
                Ok(outcome)
            }
            other @ (CoherenceMsg::GetS { .. }
            | CoherenceMsg::GetX { .. }
            | CoherenceMsg::RelayedGetX { .. }
            | CoherenceMsg::EarlyInvAck { .. }
            | CoherenceMsg::RelayedInvAck { .. }
            | CoherenceMsg::UnblockS { .. }
            | CoherenceMsg::UnblockX { .. }
            | CoherenceMsg::OsWakeup { .. }) => {
                Err(CoherenceError::UnexpectedAtL1 { core: self.core, msg: other })
            }
        }
    }

    fn on_data(
        &mut self,
        addr: Addr,
        value: u64,
        acks_expected: u16,
        exclusive: bool,
        needs_unblock: bool,
        for_seq: Option<u64>,
    ) -> Result<L1Outcome, CoherenceError> {
        let core = self.core;
        let mut outcome = L1Outcome::default();
        if self.absorb == Some(addr) {
            return Ok(outcome.note(L1Note::StaleResponseAbsorbed));
        }
        if for_seq.is_some_and(|s| s != self.seq) {
            // A grant answering an attempt the recovery layer aborted: a
            // slow grant racing its own retransmission must not complete
            // the reissued attempt (the retransmit would then become an
            // orphan request the directory serves into thin air). The
            // current epoch's grant — a regrant or the retransmit's own
            // service — completes the transaction instead. The payload is
            // salvaged, though: if this is the old owner's forward, its
            // dirty value is the only copy in the system (the regrant for
            // a forwarded serve carries no data), and for home-sourced
            // grants the capture is a harmless duplicate of the L2 value.
            let captured = match self.pending.as_mut() {
                Some(p) if p.exclusive && p.op.addr.block() == addr && !p.own_value => {
                    p.value = value;
                    p.own_value = true;
                    p.has_value = true;
                    true
                }
                _ => false,
            };
            if captured {
                // The ack bookkeeping may already be complete and only
                // the payload missing.
                let done = self.try_complete_exclusive()?;
                return Ok(done.note(L1Note::StaleGrantDropped));
            }
            return Ok(outcome.note(L1Note::StaleGrantDropped));
        }
        let pending =
            self.pending.as_mut().ok_or(CoherenceError::ResponseWithoutTxn {
                core,
                msg: CoherenceMsg::Data {
                    addr,
                    value,
                    acks_expected,
                    exclusive,
                    needs_unblock,
                    for_seq,
                },
            })?;
        check_addr(core, addr, pending.op.addr.block())?;
        if pending.exclusive && !exclusive {
            // Demoted: the home answered a failable lock RMW with a
            // shared copy because the block is owned elsewhere (paper
            // Figure 4 step 4). The conditional op fails without
            // writing — unless the observed value would have let it
            // succeed, in which case contend properly with a
            // non-demotable retry.
            if !pending.failable {
                return Err(CoherenceError::NonFailableDemoted { core, addr });
            }
            let MemOpKind::CompareSwap { expected, .. } = pending.op.kind else {
                return Err(CoherenceError::DemotedNotConditional { core, addr });
            };
            if value == expected {
                pending.failable = false;
                pending.poisoned = false;
                let priority = pending.priority;
                let lock = pending.op.lock;
                // A fresh epoch: the home has already serviced (demoted)
                // the original sequence number, so the retry must carry a
                // newer one to pass the retransmission dedup filter.
                self.seq += 1;
                let seq = self.seq;
                let home = self.home_map.home_of(addr);
                outcome.msgs.push(
                    Envelope::to_core(
                        home,
                        CoherenceMsg::GetX {
                            addr,
                            requester: self.core,
                            home,
                            lock,
                            failable: false,
                            seq,
                        },
                    )
                    .with_priority(priority),
                );
                return Ok(outcome.note(L1Note::DemoteRetry));
            }
            let pending = self.pending.take().ok_or(CoherenceError::ResponseWithoutTxn {
                core,
                msg: CoherenceMsg::Data {
                    addr,
                    value,
                    acks_expected,
                    exclusive,
                    needs_unblock,
                    for_seq,
                },
            })?;
            if !pending.poisoned {
                self.lines.insert(addr, Line { state: State::Shared, value });
            }
            debug_assert!(!needs_unblock, "demoted service must not block the home");
            outcome.completion = Some(L1Completion { op: pending.op, value, hit: false });
            return Ok(outcome.note(L1Note::DemotedFail));
        }
        if pending.exclusive {
            if !exclusive {
                return Err(CoherenceError::SharedGrantForExclusive { core, addr });
            }
            if pending.recovering && pending.granted {
                // A recovery regrant and the original grant can both be
                // in flight; the first accepted grant of the current
                // epoch is authoritative.
                return Ok(outcome.note(L1Note::DuplicateGrantDropped));
            }
            pending.granted = true;
            pending.acks_expected = Some(acks_expected);
            if !pending.own_value {
                pending.value = value;
            }
            pending.has_value = true;
            self.try_complete_exclusive()
        } else {
            // Read transaction completes on data.
            let pending = self.pending.take().ok_or(CoherenceError::ResponseWithoutTxn {
                core,
                msg: CoherenceMsg::Data {
                    addr,
                    value,
                    acks_expected,
                    exclusive,
                    needs_unblock,
                    for_seq,
                },
            })?;
            if exclusive || !pending.poisoned {
                let state = if exclusive { State::Exclusive } else { State::Shared };
                self.lines.insert(addr, Line { state, value });
            }
            if needs_unblock {
                let home = self.home_map.home_of(addr);
                outcome.msgs.push(Envelope::to_core(
                    home,
                    CoherenceMsg::UnblockS { addr, from: self.core },
                ));
            }
            outcome.completion = Some(L1Completion { op: pending.op, value, hit: false });
            Ok(outcome)
        }
    }

    fn try_complete_exclusive(&mut self) -> Result<L1Outcome, CoherenceError> {
        let mut outcome = L1Outcome::default();
        let Some(pending) = self.pending.as_ref() else { return Ok(outcome) };
        let Some(expected) = pending.acks_expected else { return Ok(outcome) };
        if !pending.granted || !pending.has_value || pending.acks_received < expected {
            return Ok(outcome);
        }
        let pending = match self.pending.take() {
            Some(p) => p,
            // Unreachable: checked as_ref above; keep total anyway.
            None => return Ok(outcome),
        };
        let block = pending.op.addr.block();
        if pending.recovering {
            // Responses from aborted epochs may still be in flight:
            // absorb them instead of treating them as protocol bugs.
            self.absorb = Some(block);
        }
        let old = pending.value;
        let new = pending.op.kind.apply(old);
        self.lines.insert(block, Line { state: State::Modified, value: new });
        let home = self.home_map.home_of(block);
        outcome
            .msgs
            .push(Envelope::to_core(home, CoherenceMsg::UnblockX { addr: block, from: self.core }));
        outcome.completion = Some(L1Completion { op: pending.op, value: old, hit: false });
        Ok(outcome)
    }

    /// Recovery retransmission: aborts the outstanding exclusive
    /// transaction's current attempt and reissues it under a fresh
    /// sequence number.
    ///
    /// If a grant had already been accepted, its value becomes the
    /// transaction's authoritative value (`own_value`): the home node's
    /// L2 copy may be stale once ownership was granted, so the regrant's
    /// data is ignored. The reissue is neither interceptable (`lock:
    /// false`) nor demotable (`failable: false`) — recovery never
    /// re-enters the big-router or demotion paths.
    ///
    /// # Errors
    ///
    /// [`CoherenceError::RetransmitWithoutTxn`] when no exclusive
    /// transaction is outstanding.
    pub fn abort_and_reissue(&mut self) -> Result<L1Outcome, CoherenceError> {
        let core = self.core;
        let pending = self
            .pending
            .as_mut()
            .filter(|p| p.exclusive)
            .ok_or(CoherenceError::RetransmitWithoutTxn { core })?;
        // A payload in hand survives the abort as the authoritative
        // value. `granted` alone is not enough: an AckCount regrant
        // grants ack bookkeeping while the payload is still in flight
        // from the old owner, and claiming ownership of that empty slot
        // would both serve garbage to forwards and block the capture of
        // the real payload when it lands.
        if pending.has_value {
            pending.own_value = true;
        }
        pending.granted = false;
        pending.acks_expected = None;
        pending.acks_received = 0;
        pending.failable = false;
        pending.recovering = true;
        let priority = pending.priority;
        let block = pending.op.addr.block();
        self.seq += 1;
        let seq = self.seq;
        let home = self.home_map.home_of(block);
        let mut outcome = L1Outcome::default();
        outcome.msgs.push(
            Envelope::to_core(
                home,
                CoherenceMsg::GetX {
                    addr: block,
                    requester: core,
                    home,
                    lock: false,
                    failable: false,
                    seq,
                },
            )
            .with_priority(priority),
        );
        Ok(outcome.note(L1Note::Retransmit))
    }
}

fn check_addr(core: CoreId, got: Addr, want: Addr) -> Result<(), CoherenceError> {
    if got == want {
        Ok(())
    } else {
        Err(CoherenceError::ResponseAddrMismatch { core, got, want })
    }
}

/// Timeout-based retransmission state of one L1 (present only when the
/// recovery layer is enabled).
#[derive(Debug, Clone, Copy)]
struct RecoveryTimer {
    /// Timeout armed on a fresh exclusive request. Must be much larger
    /// than the worst-case fault-free service latency: a spurious
    /// retransmission is *safe* (sequence-number dedup) but wasteful.
    base: u64,
    /// The exponential backoff stops doubling here.
    ceiling: u64,
    /// Retransmissions allowed per transaction.
    budget: u32,
    /// Current timeout (doubles on every firing, up to `ceiling`).
    current: u64,
    /// Retransmissions fired for the outstanding transaction.
    retries: u32,
    /// When the next retransmission fires (`None` = disarmed).
    deadline: Option<Cycle>,
}

/// The private L1 cache + controller of one core: the timed wrapper
/// around [`L1Core`].
#[derive(Debug)]
pub struct L1Cache {
    inner: L1Core,
    /// When the outstanding transaction was issued (timing bookkeeping
    /// the pure core does not carry).
    issued_at: Option<Cycle>,
    done: EventWheel<Completion>,
    completed: Option<Completion>,
    hit_latency: u64,
    stats: L1Stats,
    roundtrips: InvAckRoundTrips,
    /// Retransmission timer; `None` when recovery is off.
    recovery: Option<RecoveryTimer>,
}

impl L1Cache {
    /// Creates the L1 for `core`. `hit_latency` is Table 1's 2-cycle L1
    /// latency.
    pub fn new(core: CoreId, home_map: HomeMap, hit_latency: u64) -> Self {
        let cores = home_map.cores();
        L1Cache {
            inner: L1Core::new(core, home_map),
            issued_at: None,
            done: EventWheel::new(),
            completed: None,
            hit_latency,
            stats: L1Stats::default(),
            roundtrips: InvAckRoundTrips::new(cores, 256),
            recovery: None,
        }
    }

    /// Enables timeout-based retransmission: an exclusive transaction
    /// stalled for `timeout` cycles is aborted-and-reissued, with
    /// exponential backoff (ceiling `timeout * 64`) and at most `budget`
    /// retransmissions per transaction.
    pub fn enable_recovery(&mut self, timeout: u64, budget: u32) {
        let base = timeout.max(1);
        self.recovery = Some(RecoveryTimer {
            base,
            ceiling: base.saturating_mul(64),
            budget,
            current: base,
            retries: 0,
            deadline: None,
        });
    }

    /// Whether the retransmission timer has expired. Allocation-free:
    /// the simulator polls this every cycle on the hot path; the firing
    /// itself goes through [`fire_recovery`](Self::fire_recovery).
    pub fn recovery_due(&self, now: Cycle) -> bool {
        match &self.recovery {
            Some(t) => match t.deadline {
                Some(d) => now >= d,
                None => false,
            },
            None => false,
        }
    }

    /// When the retransmission timer expires, if it is armed.
    pub fn recovery_deadline(&self) -> Option<Cycle> {
        self.recovery.as_ref()?.deadline
    }

    /// True when the retransmission timer is armed and retries remain —
    /// the stalled transaction can still make progress on its own, so
    /// watchdog-style invariants must hold fire.
    pub fn recovery_pending(&self) -> bool {
        self.recovery
            .as_ref()
            .is_some_and(|t| t.deadline.is_some() && t.retries < t.budget)
    }

    /// Retransmissions fired for the outstanding transaction (0 when
    /// idle or recovery is off).
    pub fn recovery_retries(&self) -> u32 {
        self.recovery.as_ref().map_or(0, |t| t.retries)
    }

    /// Fires one retransmission if the timer is due: aborts the
    /// outstanding exclusive transaction's attempt, reissues it under a
    /// fresh sequence number, and re-arms the timer with the doubled
    /// backoff. Out of budget, the timer disarms and the transaction is
    /// left to the watchdog.
    pub fn fire_recovery(&mut self, now: Cycle, out: &mut Vec<Envelope>) {
        if !self.recovery_due(now) {
            return;
        }
        let Some(timer) = self.recovery.as_mut() else { return };
        if timer.retries >= timer.budget {
            timer.deadline = None;
            self.stats.recovery_exhausted += 1;
            return;
        }
        timer.retries += 1;
        let doubled = timer.current.saturating_mul(2);
        if doubled > timer.ceiling {
            timer.current = timer.ceiling;
            self.stats.backoff_ceiling_hits += 1;
        } else {
            timer.current = doubled;
        }
        // Re-armed by `apply` when it sees the Retransmit note.
        timer.deadline = None;
        let outcome = match self.inner.abort_and_reissue() {
            Ok(outcome) => outcome,
            Err(e) => panic!("recovery retransmission rejected: {e}"),
        };
        self.apply(outcome, now, out);
    }

    /// The owning core.
    pub fn core(&self) -> CoreId {
        self.inner.core()
    }

    /// The pure protocol state (for invariant checks and diagnostics).
    pub fn protocol_state(&self) -> &L1Core {
        &self.inner
    }

    /// Whether a demand operation is outstanding.
    pub fn is_busy(&self) -> bool {
        self.inner.is_busy() || !self.done.is_empty() || self.completed.is_some()
    }

    /// Counters.
    pub fn stats(&self) -> &L1Stats {
        &self.stats
    }

    /// Invalidation round trips observed by this core as a *winner*
    /// (direct acknowledgements it collected).
    pub fn roundtrips(&self) -> &InvAckRoundTrips {
        &self.roundtrips
    }

    /// Pending-transaction description for stuck-run diagnostics.
    pub fn pending_report(&self) -> Option<String> {
        Some(format!(
            "pending={:?} done_queue={} completed={:?} busy={}",
            self.inner.pending,
            self.done.len(),
            self.completed,
            self.is_busy()
        ))
    }

    /// The cached line (state, value) of `addr`, for diagnostics.
    pub fn probe_line(&self, addr: Addr) -> Option<(&'static str, u64)> {
        self.inner.lines.get(&addr.block()).map(|l| (l.state.letter(), l.value))
    }

    /// All cached lines as `(block address, state letter)` pairs, for
    /// invariant checking (e.g. the single-writer rule across cores).
    pub fn lines_snapshot(&self) -> Vec<(Addr, &'static str)> {
        self.inner.lines.iter().map(|(addr, line)| (*addr, line.state.letter())).collect()
    }

    /// If this core is blocked collecting invalidation acknowledgements,
    /// returns `(addr, expected, received, issued_at)` for the stalled
    /// transaction. `None` when idle or not yet told an ack count.
    pub fn pending_ack_wait(&self) -> Option<(Addr, u16, u16, Cycle)> {
        let pending = self.inner.pending.as_ref()?;
        let expected = pending.acks_expected?;
        if pending.acks_received < expected {
            let issued_at = self.issued_at.unwrap_or(Cycle::ZERO);
            Some((pending.op.addr, expected, pending.acks_received, issued_at))
        } else {
            None
        }
    }

    /// The cached state of `addr` as a debug string (testing aid).
    pub fn probe_state(&self, addr: Addr) -> &'static str {
        self.inner.state_letter(addr)
    }

    /// Issues a demand operation.
    ///
    /// # Panics
    ///
    /// Panics if an operation is already outstanding; the core model must
    /// wait for [`take_completion`](Self::take_completion) first.
    pub fn issue(&mut self, op: MemOp, now: Cycle, out: &mut Vec<Envelope>) {
        self.issue_with_priority(op, 0, now, out);
    }

    /// Issues a demand operation whose request packet carries an OCOR
    /// `priority`.
    ///
    /// # Panics
    ///
    /// Panics if an operation is already outstanding.
    pub fn issue_with_priority(
        &mut self,
        op: MemOp,
        priority: u8,
        now: Cycle,
        out: &mut Vec<Envelope>,
    ) {
        assert!(!self.is_busy(), "L1 supports one outstanding demand op");
        if op.kind.is_write() {
            self.stats.stores += 1;
        } else {
            self.stats.loads += 1;
        }
        let outcome = match self.inner.issue(op, priority) {
            Ok(outcome) => outcome,
            Err(e) => panic!("L1 issue rejected: {e}"),
        };
        self.issued_at = Some(now);
        self.apply(outcome, now, out);
    }

    /// Handles one protocol message delivered to this core, surfacing
    /// protocol violations as typed errors.
    ///
    /// # Errors
    ///
    /// The [`CoherenceError`] describing the violation when the message
    /// is impossible in the current protocol state (a lost, duplicated or
    /// misrouted message upstream).
    pub fn try_handle(
        &mut self,
        msg: CoherenceMsg,
        now: Cycle,
        out: &mut Vec<Envelope>,
    ) -> Result<(), CoherenceError> {
        // lint: allow(wildcard) — a stats-only pre-pass; the exhaustive
        // dispatch over every message variant is `inner.handle` below.
        match &msg {
            CoherenceMsg::Inv { .. } => self.stats.invs_received += 1,
            CoherenceMsg::InvAck { from, inv_sent_at, via_home: false, .. } => {
                self.roundtrips.record(*from, now.saturating_since(*inv_sent_at));
            }
            _ => {}
        }
        let outcome = self.inner.handle(msg)?;
        self.apply(outcome, now, out);
        Ok(())
    }

    /// Handles one protocol message delivered to this core.
    ///
    /// # Panics
    ///
    /// Panics on a protocol violation; the simulator's checked run path
    /// uses [`try_handle`](Self::try_handle) instead.
    pub fn handle(&mut self, msg: CoherenceMsg, now: Cycle, out: &mut Vec<Envelope>) {
        if let Err(e) = self.try_handle(msg, now, out) {
            panic!("{e}");
        }
    }

    /// Maps a pure-core outcome onto the timed world: messages out,
    /// completion scheduling, statistics.
    fn apply(&mut self, outcome: L1Outcome, now: Cycle, out: &mut Vec<Envelope>) {
        for note in &outcome.notes {
            match note {
                L1Note::Hit => self.stats.hits += 1,
                L1Note::MissGetS => {
                    self.stats.misses += 1;
                    self.stats.gets_issued += 1;
                }
                L1Note::MissGetX => {
                    self.stats.misses += 1;
                    self.stats.getx_issued += 1;
                }
                L1Note::ForwardBounced => self.stats.forwards_bounced += 1,
                L1Note::DemoteRetry => self.stats.demote_retries += 1,
                L1Note::DemotedFail => self.stats.demoted_fails += 1,
                L1Note::Retransmit => self.stats.retransmits += 1,
                L1Note::StaleAckDropped => self.stats.stale_acks_dropped += 1,
                L1Note::DuplicateGrantDropped => self.stats.dup_grants_dropped += 1,
                L1Note::StaleResponseAbsorbed => self.stats.stale_absorbed += 1,
                L1Note::StaleGrantDropped => self.stats.stale_grants_dropped += 1,
            }
        }
        // Retransmission timer: armed on every exclusive request leaving
        // the core, disarmed (and backoff reset) on completion.
        if let Some(timer) = self.recovery.as_mut() {
            if outcome.completion.is_some() {
                timer.deadline = None;
                timer.retries = 0;
                timer.current = timer.base;
            } else if outcome.notes.iter().any(|n| {
                matches!(n, L1Note::MissGetX | L1Note::DemoteRetry | L1Note::Retransmit)
            }) {
                timer.deadline = Some(now + timer.current);
            }
        }
        out.extend(outcome.msgs);
        if let Some(c) = outcome.completion {
            let issued_at = self.issued_at.take().unwrap_or(now);
            let latency = if c.hit { self.hit_latency } else { 1 };
            if !c.hit {
                let busy = now.saturating_since(issued_at);
                self.stats.mem_txn_cycles += busy;
                if c.op.kind.is_write() {
                    self.stats.write_miss_lat += busy;
                    self.stats.write_misses += 1;
                } else {
                    self.stats.read_miss_lat += busy;
                    self.stats.read_misses += 1;
                }
                if c.op.lock {
                    self.stats.lock_txn_cycles += busy;
                    self.stats.lock_txns += 1;
                }
            }
            self.done.schedule(
                now + latency,
                Completion { op: c.op, value: c.value, issued_at, completed_at: now + latency },
            );
        }
    }

    /// Advances internal timers (hit-latency and completion events).
    pub fn tick(&mut self, now: Cycle) {
        if self.completed.is_none() {
            self.completed = self.done.pop_due(now);
        }
        if let Some(due) = self.done.next_due() {
            if now.saturating_since(due) > 100_000 {
                panic!(
                    "L1 {} completion stuck: due {due:?} now {now:?} completed {:?} pending {:?}",
                    self.inner.core().index(),
                    self.completed,
                    self.inner.pending
                );
            }
        }
    }

    /// The earliest cycle at which [`tick`](Self::tick) can act: the due
    /// cycle of the next scheduled completion. `None` when none is
    /// scheduled, and a tick would change nothing.
    pub fn next_due(&self) -> Option<Cycle> {
        self.done.next_due()
    }

    /// Whether a finished operation waits for
    /// [`take_completion`](Self::take_completion).
    pub fn completion_ready(&self) -> bool {
        self.completed.is_some()
    }

    /// Removes and returns the completion of the outstanding operation,
    /// if it has finished.
    pub fn take_completion(&mut self) -> Option<Completion> {
        self.completed.take()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l1() -> L1Cache {
        L1Cache::new(CoreId::new(0), HomeMap::new(4), 2)
    }

    fn drive_until_complete(l1: &mut L1Cache, mut now: Cycle) -> (Completion, Cycle) {
        for _ in 0..64 {
            l1.tick(now);
            if let Some(c) = l1.take_completion() {
                return (c, now);
            }
            now = now.next();
        }
        panic!("operation did not complete");
    }

    // Exclusive grants echo request epoch 1: `issue()` bumps the core's
    // sequence number before sending, so a single exclusive issue leaves
    // the L1 at epoch 1.
    fn data(addr: Addr, value: u64, acks: u16, exclusive: bool) -> CoherenceMsg {
        CoherenceMsg::Data {
            addr,
            value,
            acks_expected: acks,
            exclusive,
            needs_unblock: false,
            for_seq: exclusive.then_some(1),
        }
    }

    /// Exclusive grant echoing an explicit request epoch, for tests that
    /// reissue (each retransmission bumps the epoch).
    fn data_epoch(addr: Addr, value: u64, acks: u16, seq: u64) -> CoherenceMsg {
        CoherenceMsg::Data {
            addr,
            value,
            acks_expected: acks,
            exclusive: true,
            needs_unblock: false,
            for_seq: Some(seq),
        }
    }

    #[test]
    fn cold_load_issues_gets_and_installs_shared() {
        let mut l1 = l1();
        let mut out = Vec::new();
        let addr = Addr::new(0x100);
        l1.issue(MemOp { addr, kind: MemOpKind::Load, lock: false }, Cycle::ZERO, &mut out);
        assert_eq!(out.len(), 1);
        assert!(matches!(out[0].msg, CoherenceMsg::GetS { .. }));
        assert_eq!(out[0].dst, CoreId::new(2), "0x100 is block 2 of 4 banks");
        out.clear();
        l1.handle(data(addr.block(), 42, 0, false), Cycle::new(10), &mut out);
        assert!(out.is_empty(), "no unblock needed for direct shared grant");
        let (c, _) = drive_until_complete(&mut l1, Cycle::new(10));
        assert_eq!(c.value, 42);
        assert_eq!(l1.probe_state(addr), "S");
    }

    #[test]
    fn exclusive_read_grant_installs_e_and_write_hits_silently() {
        let mut l1 = l1();
        let mut out = Vec::new();
        let addr = Addr::new(0x100);
        l1.issue(MemOp { addr, kind: MemOpKind::Load, lock: false }, Cycle::ZERO, &mut out);
        out.clear();
        l1.handle(
            CoherenceMsg::Data {
                addr: addr.block(),
                value: 5,
                acks_expected: 0,
                exclusive: true,
                needs_unblock: true,
                for_seq: None,
            },
            Cycle::new(8),
            &mut out,
        );
        assert!(
            matches!(out[0].msg, CoherenceMsg::UnblockS { .. }),
            "E grant blocks the home until unblocked"
        );
        drive_until_complete(&mut l1, Cycle::new(8));
        assert_eq!(l1.probe_state(addr), "E");

        // A store now upgrades silently: no traffic.
        out.clear();
        l1.issue(MemOp { addr, kind: MemOpKind::Store(9), lock: false }, Cycle::new(20), &mut out);
        assert!(out.is_empty());
        let (c, _) = drive_until_complete(&mut l1, Cycle::new(20));
        assert_eq!(c.value, 5, "store returns the old value");
        assert_eq!(l1.probe_state(addr), "M");
    }

    #[test]
    fn swap_miss_runs_full_getx_transaction() {
        let mut l1 = l1();
        let mut out = Vec::new();
        let addr = Addr::new(0x200);
        l1.issue(MemOp { addr, kind: MemOpKind::Swap(1), lock: true }, Cycle::ZERO, &mut out);
        let CoherenceMsg::GetX { lock, .. } = out[0].msg else { panic!("expected GetX") };
        assert!(lock, "lock flag propagates to the GetX");
        out.clear();

        // Data with two acks expected; completion only after both.
        l1.handle(data(addr.block(), 0, 2, true), Cycle::new(6), &mut out);
        assert!(out.is_empty());
        l1.tick(Cycle::new(7));
        assert!(l1.take_completion().is_none());
        l1.handle(
            CoherenceMsg::InvAck {
                addr: addr.block(),
                from: CoreId::new(1),
                inv_sent_at: Cycle::new(2),
                via_home: false,
                count: 1,
                for_seq: 1,
            },
            Cycle::new(8),
            &mut out,
        );
        l1.handle(
            CoherenceMsg::InvAck {
                addr: addr.block(),
                from: CoreId::new(2),
                inv_sent_at: Cycle::new(2),
                via_home: true,
                count: 1,
                for_seq: 1,
            },
            Cycle::new(9),
            &mut out,
        );
        let unblock = out.iter().find(|e| matches!(e.msg, CoherenceMsg::UnblockX { .. }));
        assert!(unblock.is_some(), "winner unblocks the home");
        let (c, _) = drive_until_complete(&mut l1, Cycle::new(9));
        assert_eq!(c.value, 0, "swap returns the pre-swap value");
        assert_eq!(l1.probe_state(addr), "M");
        // Only the direct (non-via-home) ack was recorded as a round trip.
        assert_eq!(l1.roundtrips().total_count(), 1);
        assert_eq!(l1.stats().lock_txns, 1);
        assert!(l1.stats().lock_txn_cycles > 0);
    }

    #[test]
    fn acks_may_arrive_before_data() {
        let mut l1 = l1();
        let mut out = Vec::new();
        let addr = Addr::new(0x200);
        l1.issue(MemOp { addr, kind: MemOpKind::Swap(1), lock: true }, Cycle::ZERO, &mut out);
        out.clear();
        l1.handle(
            CoherenceMsg::InvAck {
                addr: addr.block(),
                from: CoreId::new(3),
                inv_sent_at: Cycle::ZERO,
                via_home: false,
                count: 1,
                for_seq: 1,
            },
            Cycle::new(4),
            &mut out,
        );
        l1.tick(Cycle::new(5));
        assert!(l1.take_completion().is_none(), "no data yet");
        l1.handle(data(addr.block(), 7, 1, true), Cycle::new(6), &mut out);
        let (c, _) = drive_until_complete(&mut l1, Cycle::new(6));
        assert_eq!(c.value, 7);
    }

    #[test]
    fn inv_invalidates_and_acks_winner() {
        let mut l1 = l1();
        let mut out = Vec::new();
        let addr = Addr::new(0x100).block();
        l1.issue(MemOp { addr, kind: MemOpKind::Load, lock: false }, Cycle::ZERO, &mut out);
        out.clear();
        l1.handle(data(addr, 1, 0, false), Cycle::new(5), &mut out);
        drive_until_complete(&mut l1, Cycle::new(5));
        assert_eq!(l1.probe_state(addr), "S");

        l1.handle(
            CoherenceMsg::Inv {
                addr,
                ack_to: AckTarget::Core(CoreId::new(3)),
                home: CoreId::new(2),
                sent_at: Cycle::new(9),
                for_seq: 7,
            },
            Cycle::new(12),
            &mut out,
        );
        assert_eq!(l1.probe_state(addr), "I");
        let ack = out.last().expect("ack sent");
        assert_eq!(ack.dst, CoreId::new(3));
        assert!(matches!(
            ack.msg,
            CoherenceMsg::InvAck { from, via_home: false, for_seq: 7, .. }
                if from == CoreId::new(0)
        ));
    }

    #[test]
    fn early_inv_acks_to_router_even_when_line_absent() {
        let mut l1 = l1();
        let mut out = Vec::new();
        let addr = Addr::new(0x300).block();
        l1.handle(
            CoherenceMsg::Inv {
                addr,
                ack_to: AckTarget::Router(CoreId::new(9)),
                home: CoreId::new(2),
                sent_at: Cycle::new(4),
                for_seq: 0,
            },
            Cycle::new(8),
            &mut out,
        );
        let ack = out.last().expect("ack sent");
        assert_eq!(ack.dst, CoreId::new(9));
        assert!(matches!(
            ack.msg,
            CoherenceMsg::EarlyInvAck { inv_sent_at, .. } if inv_sent_at == Cycle::new(4)
        ));
        assert_eq!(ack.sink, inpg_noc::Sink::Router);
    }

    #[test]
    fn fwd_gets_shares_and_keeps_ownership() {
        let mut l1 = l1();
        let mut out = Vec::new();
        let addr = Addr::new(0x100).block();
        // Become M owner.
        l1.issue(MemOp { addr, kind: MemOpKind::Store(11), lock: false }, Cycle::ZERO, &mut out);
        out.clear();
        l1.handle(data(addr, 0, 0, true), Cycle::new(5), &mut out);
        drive_until_complete(&mut l1, Cycle::new(5));
        assert_eq!(l1.probe_state(addr), "M");

        out.clear();
        l1.handle(CoherenceMsg::FwdGetS { addr, requester: CoreId::new(2) }, Cycle::new(20), &mut out);
        assert_eq!(l1.probe_state(addr), "O");
        let CoherenceMsg::Data { value, exclusive, needs_unblock, .. } = out[0].msg else {
            panic!("expected Data")
        };
        assert_eq!(value, 11);
        assert!(!exclusive);
        assert!(!needs_unblock, "owner forwards are non-blocking");
        assert_eq!(out[0].dst, CoreId::new(2));
    }

    #[test]
    fn fwd_getx_transfers_ownership() {
        let mut l1 = l1();
        let mut out = Vec::new();
        let addr = Addr::new(0x100).block();
        l1.issue(MemOp { addr, kind: MemOpKind::Store(13), lock: false }, Cycle::ZERO, &mut out);
        out.clear();
        l1.handle(data(addr, 0, 0, true), Cycle::new(5), &mut out);
        drive_until_complete(&mut l1, Cycle::new(5));

        out.clear();
        l1.handle(
            CoherenceMsg::FwdGetX { addr, requester: CoreId::new(3), acks_expected: 2, for_seq: 0 },
            Cycle::new(20),
            &mut out,
        );
        assert_eq!(l1.probe_state(addr), "I");
        let CoherenceMsg::Data { value, acks_expected, exclusive, .. } = out[0].msg else {
            panic!("expected Data")
        };
        assert_eq!(value, 13);
        assert_eq!(acks_expected, 2);
        assert!(exclusive);
    }

    #[test]
    fn o_state_upgrade_uses_own_value_with_ackcount() {
        let mut l1 = l1();
        let mut out = Vec::new();
        let addr = Addr::new(0x100).block();
        // Become M, then demote to O via FwdGetS.
        l1.issue(MemOp { addr, kind: MemOpKind::Store(21), lock: false }, Cycle::ZERO, &mut out);
        out.clear();
        l1.handle(data(addr, 0, 0, true), Cycle::new(5), &mut out);
        drive_until_complete(&mut l1, Cycle::new(5));
        out.clear();
        l1.handle(CoherenceMsg::FwdGetS { addr, requester: CoreId::new(2) }, Cycle::new(10), &mut out);
        assert_eq!(l1.probe_state(addr), "O");

        // Upgrade: O -> GetX; home answers with AckCount (no data).
        out.clear();
        l1.issue(MemOp { addr, kind: MemOpKind::Swap(1), lock: true }, Cycle::new(20), &mut out);
        assert!(matches!(out[0].msg, CoherenceMsg::GetX { .. }));
        out.clear();
        l1.handle(CoherenceMsg::AckCount { addr, acks_expected: 1, for_seq: 2 }, Cycle::new(26), &mut out);
        l1.handle(
            CoherenceMsg::InvAck {
                addr,
                from: CoreId::new(2),
                inv_sent_at: Cycle::new(24),
                via_home: false,
                count: 1,
                for_seq: 2,
            },
            Cycle::new(30),
            &mut out,
        );
        let (c, _) = drive_until_complete(&mut l1, Cycle::new(30));
        assert_eq!(c.value, 21, "swap sees the owner's own (dirty) value");
        assert_eq!(l1.probe_state(addr), "M");
    }

    #[test]
    #[should_panic(expected = "one outstanding")]
    fn double_issue_panics() {
        let mut l1 = l1();
        let mut out = Vec::new();
        let op = MemOp { addr: Addr::new(0x100), kind: MemOpKind::Load, lock: false };
        l1.issue(op, Cycle::ZERO, &mut out);
        l1.issue(op, Cycle::ZERO, &mut out);
    }

    #[test]
    fn hit_latency_is_respected() {
        let mut l1 = l1();
        let mut out = Vec::new();
        let addr = Addr::new(0x100).block();
        l1.issue(MemOp { addr, kind: MemOpKind::Load, lock: false }, Cycle::ZERO, &mut out);
        out.clear();
        l1.handle(data(addr, 1, 0, false), Cycle::new(5), &mut out);
        drive_until_complete(&mut l1, Cycle::new(5));

        // Now a hit: completes exactly hit_latency cycles later.
        l1.issue(MemOp { addr, kind: MemOpKind::Load, lock: false }, Cycle::new(20), &mut out);
        assert!(out.is_empty());
        let (c, when) = drive_until_complete(&mut l1, Cycle::new(20));
        assert_eq!(when, Cycle::new(22));
        assert_eq!(c.completed_at, Cycle::new(22));
    }

    #[test]
    fn surplus_inv_ack_is_a_typed_error() {
        let mut l1 = l1();
        let mut out = Vec::new();
        let addr = Addr::new(0x200).block();
        l1.issue(MemOp { addr, kind: MemOpKind::Swap(1), lock: true }, Cycle::ZERO, &mut out);
        l1.handle(data(addr, 0, 1, true), Cycle::new(5), &mut out);
        // The single expected ack completes the transaction; a duplicate
        // ack then finds no transaction at all.
        let ack = CoherenceMsg::InvAck {
            addr,
            from: CoreId::new(1),
            inv_sent_at: Cycle::ZERO,
            via_home: false,
            count: 1,
            for_seq: 1,
        };
        l1.handle(ack.clone(), Cycle::new(6), &mut out);
        let err = l1.try_handle(ack, Cycle::new(7), &mut out).expect_err("duplicate ack");
        assert!(matches!(err, CoherenceError::ResponseWithoutTxn { .. }), "{err}");
    }

    #[test]
    fn misrouted_request_is_a_typed_error() {
        let mut l1 = l1();
        let mut out = Vec::new();
        let msg = CoherenceMsg::GetS { addr: Addr::new(0), requester: CoreId::new(1) };
        let err = l1.try_handle(msg, Cycle::ZERO, &mut out).expect_err("misrouted");
        assert!(matches!(err, CoherenceError::UnexpectedAtL1 { .. }), "{err}");
    }

    fn inv_ack(addr: Addr, from: usize, for_seq: u64) -> CoherenceMsg {
        CoherenceMsg::InvAck {
            addr,
            from: CoreId::new(from),
            inv_sent_at: Cycle::ZERO,
            via_home: false,
            count: 1,
            for_seq,
        }
    }

    #[test]
    fn retransmission_recovers_a_lost_ack() {
        let mut l1 = l1();
        l1.enable_recovery(100, 4);
        let mut out = Vec::new();
        let addr = Addr::new(0x200).block();
        l1.issue(MemOp { addr, kind: MemOpKind::Swap(1), lock: true }, Cycle::ZERO, &mut out);
        out.clear();
        // Grant with two acks expected; only one arrives (the other is
        // lost in the network).
        l1.handle(data(addr, 5, 2, true), Cycle::new(6), &mut out);
        l1.handle(inv_ack(addr, 1, 1), Cycle::new(8), &mut out);
        assert!(!l1.recovery_due(Cycle::new(99)));
        assert!(l1.recovery_due(Cycle::new(100)));

        out.clear();
        l1.fire_recovery(Cycle::new(100), &mut out);
        assert_eq!(l1.stats().retransmits, 1);
        let CoherenceMsg::GetX { lock, failable, seq, .. } = out[0].msg else {
            panic!("expected reissued GetX, got {:?}", out[0].msg)
        };
        assert!(!lock, "reissues are never interceptable");
        assert!(!failable, "reissues are never demotable");
        assert_eq!(seq, 2, "fresh epoch");

        // A straggler ack from the aborted epoch must not double-count.
        out.clear();
        l1.handle(inv_ack(addr, 2, 1), Cycle::new(110), &mut out);
        assert_eq!(l1.stats().stale_acks_dropped, 1);

        // The home regrants (its L2 value 99 is stale — the original
        // grant's value 5 is authoritative) and re-invalidates both
        // sharers; a duplicate grant is dropped.
        l1.handle(data_epoch(addr, 99, 2, 2), Cycle::new(120), &mut out);
        l1.handle(data_epoch(addr, 77, 1, 2), Cycle::new(121), &mut out);
        assert_eq!(l1.stats().dup_grants_dropped, 1);
        l1.handle(inv_ack(addr, 1, 2), Cycle::new(125), &mut out);
        l1.handle(inv_ack(addr, 2, 2), Cycle::new(126), &mut out);
        let (c, _) = drive_until_complete(&mut l1, Cycle::new(126));
        assert_eq!(c.value, 5, "swap returns the granted (authoritative) value");
        assert_eq!(l1.probe_line(addr), Some(("M", 1)));
        assert!(!l1.recovery_due(Cycle::new(10_000)), "timer disarmed on completion");

        // Stragglers for the completed recovery transaction are absorbed.
        out.clear();
        l1.try_handle(data(addr, 0, 0, true), Cycle::new(130), &mut out)
            .expect("stale response absorbed");
        l1.try_handle(inv_ack(addr, 2, 1), Cycle::new(131), &mut out)
            .expect("stale ack absorbed");
        assert_eq!(l1.stats().stale_absorbed, 2);
        assert!(out.is_empty());
    }

    #[test]
    fn forwarded_regrant_waits_for_the_owners_payload() {
        // The serve was an owner forward, so the regrant after a (false)
        // timeout is an AckCount with no payload: completion must wait
        // for the old owner's dirty data, which arrives stamped with the
        // aborted epoch and is salvaged rather than discarded — it is
        // the only copy in the system.
        let mut l1 = l1();
        l1.enable_recovery(100, 4);
        let mut out = Vec::new();
        let addr = Addr::new(0x200).block();
        l1.issue(MemOp { addr, kind: MemOpKind::Swap(9), lock: true }, Cycle::ZERO, &mut out);
        out.clear();
        l1.fire_recovery(Cycle::new(100), &mut out);

        // Regrant bookkeeping for the fresh epoch, then its ack: still
        // no completion, the payload is missing.
        l1.handle(CoherenceMsg::AckCount { addr, acks_expected: 1, for_seq: 2 }, Cycle::new(110), &mut out);
        l1.handle(inv_ack(addr, 1, 2), Cycle::new(112), &mut out);
        l1.tick(Cycle::new(113));
        assert!(l1.take_completion().is_none(), "no payload yet");

        // The old owner's forward lands, stamped with the dead epoch.
        l1.handle(data_epoch(addr, 41, 1, 1), Cycle::new(120), &mut out);
        assert_eq!(l1.stats().stale_grants_dropped, 1);
        let (c, _) = drive_until_complete(&mut l1, Cycle::new(120));
        assert_eq!(c.value, 41, "swap returns the owner's dirty value, not stale L2 data");
        assert_eq!(l1.probe_line(addr), Some(("M", 9)));
    }

    #[test]
    fn salvaged_payload_survives_a_second_abort() {
        // Payload captured from a dead-epoch forward, then another
        // timeout: the reissue keeps the captured value authoritative
        // and the next regrant's bookkeeping completes with it.
        let mut l1 = l1();
        l1.enable_recovery(100, 4);
        let mut out = Vec::new();
        let addr = Addr::new(0x200).block();
        l1.issue(MemOp { addr, kind: MemOpKind::Swap(9), lock: true }, Cycle::ZERO, &mut out);
        l1.fire_recovery(Cycle::new(100), &mut out);
        l1.handle(data_epoch(addr, 41, 1, 1), Cycle::new(110), &mut out);
        out.clear();
        l1.fire_recovery(Cycle::new(300), &mut out);
        l1.handle(CoherenceMsg::AckCount { addr, acks_expected: 0, for_seq: 3 }, Cycle::new(310), &mut out);
        let (c, _) = drive_until_complete(&mut l1, Cycle::new(310));
        assert_eq!(c.value, 41);
        assert_eq!(l1.probe_line(addr), Some(("M", 9)));
    }

    #[test]
    fn recovery_budget_exhausts_and_disarms() {
        let mut l1 = l1();
        l1.enable_recovery(10, 2);
        let mut out = Vec::new();
        let addr = Addr::new(0x100).block();
        l1.issue(MemOp { addr, kind: MemOpKind::Swap(1), lock: true }, Cycle::ZERO, &mut out);
        assert!(l1.recovery_pending());
        l1.fire_recovery(Cycle::new(10), &mut out);
        l1.fire_recovery(Cycle::new(30), &mut out);
        assert_eq!(l1.stats().retransmits, 2);
        assert!(!l1.recovery_pending(), "out of retries");
        l1.fire_recovery(Cycle::new(70), &mut out);
        assert_eq!(l1.stats().recovery_exhausted, 1);
        assert!(!l1.recovery_due(Cycle::new(100_000)), "timer disarmed");
    }

    #[test]
    fn backoff_doubles_to_a_ceiling() {
        let mut l1 = l1();
        l1.enable_recovery(1, 8);
        let mut out = Vec::new();
        let addr = Addr::new(0x100).block();
        l1.issue(MemOp { addr, kind: MemOpKind::Swap(1), lock: true }, Cycle::ZERO, &mut out);
        let mut now = Cycle::ZERO;
        for _ in 0..8 {
            now += 1000;
            l1.fire_recovery(now, &mut out);
        }
        assert_eq!(l1.stats().retransmits, 8);
        // base 1 doubles 2,4,...,64 (the 64× ceiling) then pins there.
        assert_eq!(l1.stats().backoff_ceiling_hits, 2);
    }

    #[test]
    fn recovery_off_timer_never_fires() {
        let mut l1 = l1();
        let mut out = Vec::new();
        let addr = Addr::new(0x100).block();
        l1.issue(MemOp { addr, kind: MemOpKind::Swap(1), lock: true }, Cycle::ZERO, &mut out);
        assert!(!l1.recovery_due(Cycle::new(1_000_000)));
        assert!(!l1.recovery_pending());
        assert_eq!(l1.recovery_retries(), 0);
    }
}
