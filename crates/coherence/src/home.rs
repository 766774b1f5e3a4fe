//! The home node: one shared-L2 bank with its coherence directory.
//!
//! Each tile hosts one bank; blocks interleave across banks via
//! [`HomeMap`](crate::HomeMap). The directory serializes transactions per
//! block: while a transaction is in flight the block is *busy* and later
//! requests queue in FIFO order — this queue is precisely the home-node
//! serialization the paper identifies as the source of lock coherence
//! overhead.
//!
//! Like the L1 (see [`l1`](crate::l1)), the home node is split into the
//! **pure, timing-free directory state machine** [`HomeCore`] — whose
//! step function [`HomeCore::process`] maps one message to state updates
//! plus an [`HomeOutcome`] of emissions and bookkeeping notes — and the
//! timed wrapper [`HomeBank`] that owns the inboxes, the delayed-response
//! wheel and the statistics. The `inpg-analysis` model checker enumerates
//! `HomeCore` directly.
//!
//! # iNPG support
//!
//! Big routers convert stopped lock `GetX` requests into
//! [`RelayedGetX`](crate::CoherenceMsg::RelayedGetX) messages and relay
//! the early invalidation acknowledgements as
//! [`RelayedInvAck`](crate::CoherenceMsg::RelayedInvAck)s. The home node:
//!
//! * treats a `RelayedGetX` as the loser's queued lock request **and** as
//!   notice that the loser's L1 was early-invalidated (keyed by the
//!   interception cycle `stopped_at`);
//! * when processing a winner's `GetX`, skips sending its own `Inv` to
//!   sharers known to be early-invalidated — it either forwards the
//!   already-arrived acknowledgement on their behalf or marks the
//!   transaction to forward it on arrival;
//! * deduplicates: a relayed acknowledgement matching no record is parked
//!   and only consumed by the matching `RelayedGetX` notification, so a
//!   duplicate (the loser also answered a home `Inv` directly) can never
//!   satisfy a later invalidation wrongly.

use crate::err::CoherenceError;
use crate::msg::{AckTarget, CoherenceMsg, Envelope};
use crate::stats::{HomeStats, InvAckRoundTrips};
use inpg_sim::{coverage, Addr, CoreId, Cycle, EventWheel};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Directory state of one block.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum DirState {
    /// No cached copies; the L2 value is authoritative.
    Unowned,
    /// Clean copies at the listed cores; the L2 value is current.
    ///
    /// With owner-retention MOESI (the first reader is granted E and a
    /// forwarding owner stays in O), a block that has cached copies
    /// always has an owner, so this state is only reachable if a future
    /// extension adds owner write-back/downgrade. Kept for protocol
    /// totality.
    Shared(BTreeSet<CoreId>),
    /// `owner` holds the (possibly dirty) block; `sharers` hold copies.
    Owned {
        /// The forwarding owner (MOESI O).
        owner: CoreId,
        /// Cores holding clean copies.
        sharers: BTreeSet<CoreId>,
    },
    /// `owner` holds the block exclusively (E or M).
    Exclusive {
        /// The exclusive owner.
        owner: CoreId,
    },
}

/// Early-invalidation knowledge about one core.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EarlyRec {
    /// The `RelayedGetX` notification arrived; the acknowledgement is in
    /// flight to us.
    Notified {
        /// Interception cycle, the matching key.
        stopped_at: Cycle,
    },
    /// Both the notification and the relayed acknowledgement arrived.
    AckArrived {
        /// Interception cycle, the matching key.
        stopped_at: Cycle,
    },
}

/// A queued request waiting for the block to become free.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct QueuedReq {
    /// The requesting core.
    pub requester: CoreId,
    /// Exclusive (GetX) or read (GetS).
    pub exclusive: bool,
    /// Exclusive requests that may be demoted to a shared-copy service
    /// when the block is owned (conditional lock RMWs).
    pub failable: bool,
    /// Stopped by a big router: the request provably lost an in-network
    /// race, so it is demote-eligible even if the block is idle when it
    /// is finally processed.
    pub relayed: bool,
    /// When the request arrived (queue-wait accounting).
    pub queued_at: Cycle,
    /// The requester's per-core issue sequence number (0 for reads,
    /// which are never retransmitted). Recovery reissues of a queued
    /// request update this in place instead of queueing twice.
    pub seq: u64,
}

/// The in-flight transaction blocking a block.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum BusyTxn {
    /// A read being served by an owner forward or an E grant.
    Read {
        /// The reader the home waits on.
        requester: CoreId,
    },
    /// An exclusive access: `winner` is collecting data + acks.
    Exclusive {
        /// The core collecting data and acknowledgements.
        winner: CoreId,
        /// The sequence number of the winner's request epoch: stamped as
        /// `for_seq` on every invalidation and forwarded acknowledgement
        /// of this transaction, and compared against retransmits.
        winner_seq: u64,
        /// Sharers whose acknowledgement will arrive as a relayed early
        /// ack; maps to the interception cycle for matching.
        pending_relay: BTreeMap<CoreId, Cycle>,
        /// Sharers we sent our own `Inv` to (their relayed duplicates,
        /// if any, must be dropped).
        direct_inv: BTreeSet<CoreId>,
        /// Whether the winner's data payload came from the home's L2
        /// (no prior owner). When false the payload lives with the old
        /// owner (forward) or the winner itself (upgrade in place), so a
        /// recovery regrant must not fabricate one from stale L2 data.
        granted_from_l2: bool,
    },
}

/// Directory entry of one block: stable state, in-flight transaction,
/// serialization queue and early-invalidation records.
#[derive(Debug, Default, Clone, PartialEq, Eq, Hash)]
pub struct DirEntry {
    /// Stable directory state (`None` = never touched = Unowned).
    pub state: Option<DirState>,
    /// The transaction currently blocking the block.
    pub busy: Option<BusyTxn>,
    /// FIFO of requests waiting for the block.
    pub queue: VecDeque<QueuedReq>,
    /// Early-invalidation records per core.
    pub early: BTreeMap<CoreId, EarlyRec>,
    /// Relayed acknowledgements that matched no record yet: they wait for
    /// their `RelayedGetX` notification (never satisfy invalidations
    /// directly).
    pub parked_acks: Vec<(CoreId, Cycle)>,
    /// Highest exclusive-request sequence number admitted per core: the
    /// retransmission dedup watermark. A `GetX` at or below its
    /// requester's watermark is a duplicate and is dropped.
    pub last_seq: BTreeMap<CoreId, u64>,
}

impl DirEntry {
    /// The stable state, defaulting to Unowned.
    pub fn state(&self) -> &DirState {
        self.state.as_ref().unwrap_or(&DirState::Unowned)
    }
}

/// When an emitted message leaves the home node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EmitAt {
    /// This cycle (control messages, forwards, aggregated acks).
    Now,
    /// At the given cycle (L2-latency data responses, the staggered
    /// invalidation walk).
    At(Cycle),
}

/// One outgoing message plus its departure schedule.
#[derive(Debug, Clone)]
pub struct Emit {
    /// The message and destination.
    pub env: Envelope,
    /// When it leaves.
    pub at: EmitAt,
}

/// Bookkeeping events the pure directory reports; the timed wrapper maps
/// them onto [`HomeStats`] counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HomeNote {
    /// A request (GetS/GetX/RelayedGetX) was accepted for processing.
    Request,
    /// The request was a GetX (plain or relayed).
    GetXSeen,
    /// The home sent its own invalidation.
    InvSent,
    /// An invalidation was skipped because a big router performed it
    /// early.
    InvSavedEarly,
    /// An already-arrived early acknowledgement was consumed.
    EarlyAckConsumed,
    /// A relayed acknowledgement was forwarded to the winner.
    RelayForwarded,
    /// A relayed acknowledgement matched nothing and was parked.
    AckParked,
    /// A failable lock request was demoted to shared-copy service.
    Demotion,
    /// A request left the queue after waiting this many cycles.
    QueueWait(u64),
    /// The block's queue reached this length.
    QueueLen(u64),
    /// An early-invalidation round trip (router Inv generation to router
    /// ack arrival) completed.
    RelayRoundTrip {
        /// The invalidated core.
        from: CoreId,
        /// Round-trip delay in cycles.
        delay: u64,
    },
    /// A retransmitted request was recognised as a duplicate (sequence
    /// number at or below the dedup watermark) and dropped.
    DupRequestDropped,
    /// The in-flight winner retransmitted with a newer sequence number:
    /// its exclusive grant was re-sent and the sharers re-invalidated.
    RecoveryRegrant,
}

/// Everything one pure directory step produced.
#[derive(Debug, Default)]
pub struct HomeOutcome {
    /// Messages to emit, each with its departure schedule.
    pub emits: Vec<Emit>,
    /// Statistics events.
    pub notes: Vec<HomeNote>,
}

impl HomeOutcome {
    fn now(&mut self, env: Envelope) {
        self.emits.push(Emit { env, at: EmitAt::Now });
    }

    fn at(&mut self, when: Cycle, env: Envelope) {
        self.emits.push(Emit { env, at: EmitAt::At(when) });
    }
}

/// The pure, timing-free directory state machine of one home bank.
///
/// `l2_latency` is configuration, not state: the pure step functions
/// stamp it onto data emissions so the timed wrapper (and the model
/// checker, which sets it to 0) need no latency knowledge of their own.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct HomeCore {
    core: CoreId,
    l2_latency: u64,
    /// Directory entries by block address (deterministic iteration:
    /// replay and fault-seeded runs must not depend on hash order).
    pub entries: BTreeMap<Addr, DirEntry>,
    /// L2-resident block values.
    pub data: BTreeMap<Addr, u64>,
}

impl HomeCore {
    /// Creates the pure directory for the bank on `core`.
    pub fn new(core: CoreId, l2_latency: u64) -> Self {
        HomeCore { core, l2_latency, entries: BTreeMap::new(), data: BTreeMap::new() }
    }

    /// The tile this bank lives on.
    pub fn core(&self) -> CoreId {
        self.core
    }

    /// Initializes the L2-resident value of a block (warm start).
    pub fn init_block(&mut self, addr: Addr, value: u64) {
        self.data.insert(addr.block(), value);
    }

    /// The L2-resident value of a block (stale while an L1 owns it).
    pub fn l2_value(&self, addr: Addr) -> u64 {
        self.data.get(&addr.block()).copied().unwrap_or(0)
    }

    /// Whether no block is busy or holding queued requests.
    pub fn is_quiet(&self) -> bool {
        self.entries.values().all(|e| e.busy.is_none() && e.queue.is_empty())
    }

    /// Processes one message. `arrived` is when it reached the bank
    /// (queue-wait accounting); `now` is the processing cycle. The model
    /// checker passes [`Cycle::ZERO`] for both — cycles inside the pure
    /// state are correlation tags, never compared against wall-clock.
    ///
    /// # Errors
    ///
    /// [`CoherenceError`] when the message is impossible at a home node
    /// in the current directory state.
    pub fn process(
        &mut self,
        msg: CoherenceMsg,
        arrived: Cycle,
        now: Cycle,
    ) -> Result<HomeOutcome, CoherenceError> {
        coverage::record(coverage::HOME_PROCESS.id(msg.variant_index()));
        let mut o = HomeOutcome::default();
        match msg {
            CoherenceMsg::GetS { addr, requester } => {
                o.notes.push(HomeNote::Request);
                self.admit(
                    addr,
                    QueuedReq {
                        requester,
                        exclusive: false,
                        failable: false,
                        relayed: false,
                        queued_at: arrived,
                        seq: 0,
                    },
                    now,
                    &mut o,
                );
            }
            CoherenceMsg::GetX { addr, requester, failable, seq, .. } => {
                o.notes.push(HomeNote::Request);
                o.notes.push(HomeNote::GetXSeen);
                self.admit_exclusive(
                    addr,
                    QueuedReq {
                        requester,
                        exclusive: true,
                        failable,
                        relayed: false,
                        queued_at: arrived,
                        seq,
                    },
                    now,
                    &mut o,
                );
            }
            CoherenceMsg::RelayedGetX { addr, requester, stopped_at, failable, seq, .. } => {
                o.notes.push(HomeNote::Request);
                o.notes.push(HomeNote::GetXSeen);
                self.note_early_inv(addr, requester, stopped_at);
                self.admit_exclusive(
                    addr,
                    QueuedReq {
                        requester,
                        exclusive: true,
                        failable,
                        relayed: true,
                        queued_at: arrived,
                        seq,
                    },
                    now,
                    &mut o,
                );
            }
            CoherenceMsg::RelayedInvAck { addr, from, inv_sent_at, relayed_at } => {
                // Figure 10 metric for iNPG: router Inv -> router ack.
                o.notes.push(HomeNote::RelayRoundTrip {
                    from,
                    delay: relayed_at.saturating_since(inv_sent_at),
                });
                self.on_relayed_ack(addr, from, inv_sent_at, &mut o);
            }
            CoherenceMsg::UnblockS { addr, from } | CoherenceMsg::UnblockX { addr, from } => {
                self.on_unblock(addr, from, now, &mut o)?;
            }
            other @ (CoherenceMsg::FwdGetS { .. }
            | CoherenceMsg::FwdGetX { .. }
            | CoherenceMsg::Inv { .. }
            | CoherenceMsg::Data { .. }
            | CoherenceMsg::AckCount { .. }
            | CoherenceMsg::InvAck { .. }
            | CoherenceMsg::EarlyInvAck { .. }
            | CoherenceMsg::OsWakeup { .. }) => {
                return Err(CoherenceError::UnexpectedAtHome { msg: other });
            }
        }
        Ok(o)
    }

    /// Admits an exclusive request through the retransmission dedup
    /// filter. Recovery reissues carry a strictly higher per-core
    /// sequence number than the attempt they replace, so anything at or
    /// below the requester's watermark is the same attempt arriving
    /// twice and must be dropped for retransmits to stay idempotent.
    fn admit_exclusive(&mut self, addr: Addr, req: QueuedReq, now: Cycle, o: &mut HomeOutcome) {
        let entry = self.entries.entry(addr).or_default();
        if entry.last_seq.get(&req.requester).is_some_and(|w| req.seq <= *w) {
            o.notes.push(HomeNote::DupRequestDropped);
            return;
        }
        // The in-flight winner reissuing under a newer sequence number:
        // its grant or an acknowledgement was lost, so the transaction
        // is re-served rather than queued behind itself.
        if matches!(
            &entry.busy,
            Some(BusyTxn::Exclusive { winner, .. }) if *winner == req.requester
        ) {
            self.regrant(addr, req, now, o);
            return;
        }
        // Already queued: the reissue replaces the queued attempt in its
        // FIFO slot instead of queueing the same core twice.
        if let Some(queued) =
            entry.queue.iter_mut().find(|q| q.requester == req.requester && q.exclusive)
        {
            queued.seq = req.seq;
            queued.failable = req.failable;
            entry.last_seq.insert(req.requester, req.seq);
            o.notes.push(HomeNote::DupRequestDropped);
            return;
        }
        entry.last_seq.insert(req.requester, req.seq);
        self.admit(addr, req, now, o);
    }

    /// Re-serves the in-flight winner's exclusive transaction after a
    /// recovery reissue: every sharer the transaction still tracks is
    /// re-invalidated under the new sequence number and the grant is
    /// re-sent, so a lost grant or lost invalidation acknowledgements
    /// are regenerated from directory state alone.
    fn regrant(&mut self, addr: Addr, req: QueuedReq, now: Cycle, o: &mut HomeOutcome) {
        let value = self.l2_value(addr);
        let l2_latency = self.l2_latency;
        let home = self.core;
        let entry = self.entries.entry(addr).or_default();
        let Some(BusyTxn::Exclusive {
            winner,
            winner_seq,
            pending_relay,
            direct_inv,
            granted_from_l2,
        }) = &mut entry.busy
        else {
            unreachable!("regrant without an exclusive transaction");
        };
        debug_assert_eq!(*winner, req.requester, "regrant for a non-winner");
        o.notes.push(HomeNote::RecoveryRegrant);
        // Relayed early acks from the aborted epoch would reach the
        // winner stamped with a dead sequence number: fold those sharers
        // into the direct set and re-invalidate everyone. An L1
        // acknowledges an Inv even for a line it no longer holds, so
        // re-invalidating an already-invalid sharer is harmless.
        while let Some((relayed, _)) = pending_relay.pop_first() {
            direct_inv.insert(relayed);
        }
        *winner_seq = req.seq;
        for (nth, target) in direct_inv.iter().enumerate() {
            o.notes.push(HomeNote::InvSent);
            let sent_at = now + nth as u64;
            o.at(
                sent_at,
                Envelope::to_core(
                    *target,
                    CoherenceMsg::Inv {
                        addr,
                        ack_to: AckTarget::Core(req.requester),
                        home,
                        sent_at,
                        for_seq: req.seq,
                    },
                ),
            );
        }
        let acks_expected = direct_inv.len() as u16;
        let granted_from_l2 = *granted_from_l2;
        entry.last_seq.insert(req.requester, req.seq);
        if granted_from_l2 {
            // The original grant came from L2, and nobody else can have
            // dirtied the block while it is busy, so the L2 payload is
            // still the authoritative value.
            o.at(
                now + l2_latency,
                Envelope::to_core(
                    req.requester,
                    CoherenceMsg::Data {
                        addr,
                        value,
                        acks_expected,
                        exclusive: true,
                        needs_unblock: true,
                        for_seq: Some(req.seq),
                    },
                ),
            );
        } else {
            // The payload lives with the old owner (a forward that is
            // slow but never dropped — no fault kind targets data
            // responses) or with the winner itself (upgrade in place).
            // Serving stale L2 data here would let the winner complete
            // with a value the old owner's dirty copy supersedes, so the
            // regrant carries only the refreshed ack bookkeeping and the
            // winner completes once the true payload is in hand.
            o.now(Envelope::to_core(
                req.requester,
                CoherenceMsg::AckCount { addr, acks_expected, for_seq: req.seq },
            ));
        }
    }

    /// Queues or immediately processes a request.
    fn admit(&mut self, addr: Addr, req: QueuedReq, now: Cycle, o: &mut HomeOutcome) {
        let entry = self.entries.entry(addr).or_default();
        if entry.busy.is_some() {
            entry.queue.push_back(req);
            o.notes.push(HomeNote::QueueLen(entry.queue.len() as u64));
        } else {
            debug_assert!(entry.queue.is_empty(), "idle block must have an empty queue");
            // A request admitted to an idle block never lost a race: it
            // gets the full service (it may be the next winner).
            self.start_request(addr, req, false, now, o);
        }
    }

    /// Starts one request. `lost_race` is true when the request was
    /// queued behind a concurrent exclusive transaction — i.e. it
    /// competed for the lock and lost.
    fn start_request(
        &mut self,
        addr: Addr,
        req: QueuedReq,
        lost_race: bool,
        now: Cycle,
        o: &mut HomeOutcome,
    ) {
        o.notes.push(HomeNote::QueueWait(now.saturating_since(req.queued_at)));
        if req.exclusive {
            // A failable (conditional lock RMW) request that *lost the
            // race* to a concurrent winner is demoted: the winner sends
            // it a valid shared copy (now showing the lock occupied) and
            // the RMW fails without writing — the paper's Figure 4
            // step 4. Requests that did not race anyone get the full
            // service, since they may be the next legitimate winner.
            if req.failable && (lost_race || req.relayed) {
                let entry = self.entries.entry(addr).or_default();
                let owner = match entry.state() {
                    DirState::Exclusive { owner } => Some(*owner),
                    DirState::Owned { owner, .. } => Some(*owner),
                    DirState::Unowned | DirState::Shared(_) => None,
                };
                if let Some(owner) = owner {
                    if owner != req.requester {
                        // This request's early-invalidation record (if it
                        // was stopped by a big router) is consumed here:
                        // the requester is about to receive a fresh copy,
                        // so a leftover record must never suppress a
                        // future invalidation of that fresh copy.
                        entry.early.remove(&req.requester);
                        o.notes.push(HomeNote::Demotion);
                        self.forward_read(addr, owner, req.requester, o);
                        return;
                    }
                }
            }
            self.start_exclusive(addr, req.requester, req.seq, now, o);
        } else {
            self.start_read(addr, req.requester, now, o);
        }
    }

    /// Non-blocking shared-copy service from the current owner: the
    /// requester joins the sharer set and the owner forwards the data;
    /// the home does not enter a busy state.
    fn forward_read(&mut self, addr: Addr, owner: CoreId, requester: CoreId, o: &mut HomeOutcome) {
        let entry = self.entries.entry(addr).or_default();
        // Take the sharer set out of the state instead of cloning it:
        // spin-read storms hit this path once per reader, and a BTreeSet
        // clone here is a per-request allocation the state machine does
        // not need — the state is rebuilt (with the set moved back in)
        // on the next line.
        let mut sharers = match entry.state.take() {
            Some(DirState::Owned { sharers, .. }) => sharers,
            Some(DirState::Unowned | DirState::Shared(_) | DirState::Exclusive { .. }) | None => {
                BTreeSet::new()
            }
        };
        sharers.insert(requester);
        entry.state = Some(DirState::Owned { owner, sharers });
        o.now(Envelope::to_core(owner, CoherenceMsg::FwdGetS { addr, requester }));
    }

    fn start_read(&mut self, addr: Addr, requester: CoreId, now: Cycle, o: &mut HomeOutcome) {
        let value = *self.data.entry(addr).or_insert(0);
        let l2_latency = self.l2_latency;
        let entry = self.entries.entry(addr).or_default();
        match entry.state().clone() {
            DirState::Unowned => {
                // Grant E to the sole reader; busy until UnblockS because
                // an owner now exists.
                entry.state = Some(DirState::Exclusive { owner: requester });
                entry.busy = Some(BusyTxn::Read { requester });
                o.at(
                    now + l2_latency,
                    Envelope::to_core(
                        requester,
                        CoherenceMsg::Data {
                            addr,
                            value,
                            acks_expected: 0,
                            exclusive: true,
                            needs_unblock: true,
                            for_seq: None,
                        },
                    ),
                );
            }
            DirState::Shared(mut sharers) => {
                // Clean data straight from the L2; no transaction needed.
                sharers.insert(requester);
                entry.state = Some(DirState::Shared(sharers));
                o.at(
                    now + l2_latency,
                    Envelope::to_core(
                        requester,
                        CoherenceMsg::Data {
                            addr,
                            value,
                            acks_expected: 0,
                            exclusive: false,
                            needs_unblock: false,
                            for_seq: None,
                        },
                    ),
                );
            }
            DirState::Exclusive { owner } | DirState::Owned { owner, .. } => {
                debug_assert_ne!(owner, requester, "owner cannot read-miss");
                // Owner-forwarded reads do not block the home: spin-read
                // storms are served by the owner in parallel with other
                // directory work.
                self.forward_read(addr, owner, requester, o);
            }
        }
    }

    fn start_exclusive(
        &mut self,
        addr: Addr,
        winner: CoreId,
        winner_seq: u64,
        now: Cycle,
        o: &mut HomeOutcome,
    ) {
        let value = *self.data.entry(addr).or_insert(0);
        let l2_latency = self.l2_latency;
        let home = self.core;
        let entry = self.entries.entry(addr).or_default();

        // The winner's own early records belong to its previous stopped
        // request (this one); they are consumed here.
        entry.early.remove(&winner);

        let (owner, sharers) = match entry.state().clone() {
            DirState::Unowned => (None, BTreeSet::new()),
            DirState::Shared(sharers) => (None, sharers),
            DirState::Exclusive { owner } => (Some(owner), BTreeSet::new()),
            DirState::Owned { owner, sharers } => (Some(owner), sharers),
        };

        let inv_targets: BTreeSet<CoreId> =
            sharers.iter().copied().filter(|s| *s != winner && Some(*s) != owner).collect();
        let acks_expected = inv_targets.len() as u16;

        let mut pending_relay = BTreeMap::new();
        let mut direct_inv = BTreeSet::new();
        let mut prearrived: u16 = 0;
        let mut prearrived_rep = winner;
        for s in inv_targets {
            match entry.early.remove(&s) {
                Some(EarlyRec::AckArrived { .. }) => {
                    // The early ack already reached us: it is batched
                    // into a single aggregated acknowledgement below.
                    o.notes.push(HomeNote::InvSavedEarly);
                    o.notes.push(HomeNote::EarlyAckConsumed);
                    prearrived += 1;
                    prearrived_rep = s;
                }
                Some(EarlyRec::Notified { stopped_at }) => {
                    // Ack in flight to us; forward when it arrives.
                    o.notes.push(HomeNote::InvSavedEarly);
                    pending_relay.insert(s, stopped_at);
                }
                None => {
                    // The directory walks its sharer vector serially:
                    // one invalidation per cycle leaves the home node
                    // (the serialization the paper identifies as a major
                    // LCO source; early invalidation removes sharers
                    // from this walk entirely).
                    o.notes.push(HomeNote::InvSent);
                    let nth = direct_inv.len() as u64;
                    direct_inv.insert(s);
                    let sent_at = now + nth;
                    o.at(
                        sent_at,
                        Envelope::to_core(
                            s,
                            CoherenceMsg::Inv {
                                addr,
                                ack_to: AckTarget::Core(winner),
                                home,
                                sent_at,
                                for_seq: winner_seq,
                            },
                        ),
                    );
                }
            }
        }
        if prearrived > 0 {
            // One aggregated acknowledgement covers every sharer whose
            // early ack had already arrived: the winner is freed from
            // collecting them one by one.
            o.now(Envelope::to_core(
                winner,
                CoherenceMsg::InvAck {
                    addr,
                    from: prearrived_rep,
                    inv_sent_at: now,
                    via_home: true,
                    count: prearrived,
                    for_seq: winner_seq,
                },
            ));
        }

        let granted_from_l2 = match owner {
            Some(owner) if owner != winner => {
                o.now(Envelope::to_core(
                    owner,
                    CoherenceMsg::FwdGetX {
                        addr,
                        requester: winner,
                        acks_expected,
                        for_seq: winner_seq,
                    },
                ));
                false
            }
            Some(_) => {
                // The winner is the O-state owner upgrading in place: no
                // data moves, only the ack count.
                o.now(Envelope::to_core(
                    winner,
                    CoherenceMsg::AckCount { addr, acks_expected, for_seq: winner_seq },
                ));
                false
            }
            None => {
                o.at(
                    now + l2_latency,
                    Envelope::to_core(
                        winner,
                        CoherenceMsg::Data {
                            addr,
                            value,
                            acks_expected,
                            exclusive: true,
                            needs_unblock: true,
                            for_seq: Some(winner_seq),
                        },
                    ),
                );
                true
            }
        };

        entry.state = Some(DirState::Exclusive { owner: winner });
        entry.busy = Some(BusyTxn::Exclusive {
            winner,
            winner_seq,
            pending_relay,
            direct_inv,
            granted_from_l2,
        });
    }

    /// Records the early-invalidation notification carried by a
    /// `RelayedGetX`, merging any parked acknowledgement of the same
    /// interception.
    fn note_early_inv(&mut self, addr: Addr, core: CoreId, stopped_at: Cycle) {
        let entry = self.entries.entry(addr).or_default();
        // If the current transaction is already waiting on this core via
        // pending_relay or direct_inv, the notification is informational.
        if let Some(BusyTxn::Exclusive { pending_relay, direct_inv, .. }) = &entry.busy {
            if pending_relay.contains_key(&core) || direct_inv.contains(&core) {
                return;
            }
        }
        if let Some(pos) =
            // lint: allow(scan) — parked_acks is a flat buffer bounded at 64 entries
            entry.parked_acks.iter().position(|(c, ts)| *c == core && *ts == stopped_at)
        {
            entry.parked_acks.remove(pos);
            entry.early.insert(core, EarlyRec::AckArrived { stopped_at });
        } else {
            entry.early.insert(core, EarlyRec::Notified { stopped_at });
        }
    }

    fn on_relayed_ack(&mut self, addr: Addr, from: CoreId, inv_sent_at: Cycle, o: &mut HomeOutcome) {
        let entry = self.entries.entry(addr).or_default();
        // Current transaction waiting on this relay?
        if let Some(BusyTxn::Exclusive { winner, winner_seq, pending_relay, direct_inv, .. }) =
            &mut entry.busy
        {
            if pending_relay.get(&from) == Some(&inv_sent_at) {
                pending_relay.remove(&from);
                o.notes.push(HomeNote::RelayForwarded);
                o.now(Envelope::to_core(
                    *winner,
                    CoherenceMsg::InvAck {
                        addr,
                        from,
                        inv_sent_at,
                        via_home: true,
                        count: 1,
                        for_seq: *winner_seq,
                    },
                ));
                return;
            }
            if direct_inv.contains(&from) {
                // Duplicate: we invalidated this core ourselves; its
                // direct ack goes to the winner. Drop the relay.
                return;
            }
        }
        match entry.early.get(&from) {
            Some(EarlyRec::Notified { stopped_at }) if *stopped_at == inv_sent_at => {
                entry.early.insert(from, EarlyRec::AckArrived { stopped_at: inv_sent_at });
            }
            Some(EarlyRec::Notified { .. }) | Some(EarlyRec::AckArrived { .. }) | None => {
                // Park until the matching notification arrives; parked
                // acks never satisfy invalidations on their own. An ack
                // identical in both origin and interception cycle is a
                // duplicate of one already parked and is absorbed — the
                // home is the protocol's ack deduplicator.
                o.notes.push(HomeNote::AckParked);
                let dup =
                    // lint: allow(scan) — parked_acks is a flat buffer bounded at 64 entries
                    entry.parked_acks.iter().any(|(c, ts)| *c == from && *ts == inv_sent_at);
                if !dup {
                    entry.parked_acks.push((from, inv_sent_at));
                }
                if entry.parked_acks.len() > 64 {
                    entry.parked_acks.remove(0);
                }
            }
        }
    }

    fn on_unblock(
        &mut self,
        addr: Addr,
        from: CoreId,
        now: Cycle,
        o: &mut HomeOutcome,
    ) -> Result<(), CoherenceError> {
        let entry = self.entries.entry(addr).or_default();
        let was_exclusive = match entry.busy.take() {
            Some(BusyTxn::Read { requester }) => {
                if requester != from {
                    return Err(CoherenceError::UnblockWrongCore { addr, from, holder: requester });
                }
                false
            }
            Some(BusyTxn::Exclusive { winner, pending_relay, .. }) => {
                if winner != from {
                    return Err(CoherenceError::UnblockWrongCore { addr, from, holder: winner });
                }
                debug_assert!(
                    pending_relay.is_empty(),
                    "winner unblocked with relays outstanding"
                );
                true
            }
            None => return Err(CoherenceError::UnblockIdleBlock { addr, from }),
        };
        // Drain queued requests until one blocks the line again: demoted
        // losers are all served in this burst (the winner multicasts
        // valid copies, Figure 4 step 4). Whether they lost a race
        // depends on the transaction they queued behind.
        let lost_race = was_exclusive;
        loop {
            let entry = self.entries.entry(addr).or_default();
            if entry.busy.is_some() {
                break;
            }
            let Some(next) = entry.queue.pop_front() else { break };
            self.start_request(addr, next, lost_race, now, o);
            // Anything still queued after a new exclusive txn starts
            // will drain on its unblock with lost_race = true.
        }
        Ok(())
    }
}

/// One home node: L2 bank, directory, and request serialization queue —
/// the timed wrapper around [`HomeCore`].
#[derive(Debug)]
pub struct HomeBank {
    inner: HomeCore,
    inbox: VecDeque<(CoherenceMsg, Cycle)>,
    /// Acknowledgements and completion notices: cheap directory
    /// bookkeeping processed out of band (they do not occupy the
    /// request-serialization slot).
    fast_inbox: VecDeque<(CoherenceMsg, Cycle)>,
    delayed: EventWheel<Envelope>,
    stats: HomeStats,
    roundtrips: InvAckRoundTrips,
}

impl HomeBank {
    /// Creates the bank for `core`. `l2_latency` is Table 1's 6-cycle L2
    /// access latency (applied to data responses); `cores` sizes the
    /// round-trip accounting.
    pub fn new(core: CoreId, cores: usize, l2_latency: u64) -> Self {
        HomeBank {
            inner: HomeCore::new(core, l2_latency),
            inbox: VecDeque::new(),
            fast_inbox: VecDeque::new(),
            delayed: EventWheel::new(),
            stats: HomeStats::default(),
            roundtrips: InvAckRoundTrips::new(cores, 256),
        }
    }

    /// The tile this bank lives on.
    pub fn core(&self) -> CoreId {
        self.inner.core()
    }

    /// The pure directory state (for invariant checks and diagnostics).
    pub fn directory(&self) -> &HomeCore {
        &self.inner
    }

    /// Initializes the L2-resident value of a block (warm start).
    pub fn init_block(&mut self, addr: Addr, value: u64) {
        self.inner.init_block(addr, value);
    }

    /// The L2-resident value of a block (stale while an L1 owns it).
    pub fn l2_value(&self, addr: Addr) -> u64 {
        self.inner.l2_value(addr)
    }

    /// Counters.
    pub fn stats(&self) -> &HomeStats {
        &self.stats
    }

    /// Early invalidation round trips recorded at this home (relayed
    /// acknowledgements: router Inv generation to router ack arrival).
    pub fn roundtrips(&self) -> &InvAckRoundTrips {
        &self.roundtrips
    }

    /// Busy or queue-holding blocks, for stuck-run diagnostics.
    pub fn busy_report(&self) -> Vec<String> {
        self.inner
            .entries
            .iter()
            .filter(|(_, e)| e.busy.is_some() || !e.queue.is_empty())
            .map(|(addr, e)| {
                format!(
                    "{addr}: busy={:?} queue={} early={:?} parked={}",
                    e.busy,
                    e.queue.len(),
                    e.early,
                    e.parked_acks.len()
                )
            })
            .collect()
    }

    /// Directory view of one block, for diagnostics.
    pub fn dir_report(&self, addr: Addr) -> String {
        match self.inner.entries.get(&addr.block()) {
            Some(e) => format!(
                "state={:?} busy={:?} queue={} early={:?} l2_value={:?}",
                e.state,
                e.busy,
                e.queue.len(),
                e.early,
                self.inner.data.get(&addr.block())
            ),
            None => "no entry".to_string(),
        }
    }

    /// Whether the bank has no queued or in-flight work.
    pub fn is_idle(&self) -> bool {
        self.inbox.is_empty()
            && self.fast_inbox.is_empty()
            && self.delayed.is_empty()
            && self.inner.is_quiet()
    }

    /// Whether the bank still holds undelivered messages (inbox entries
    /// or delayed responses). Unlike [`is_idle`](Self::is_idle) this
    /// ignores busy/queued directory entries: an entry can legitimately
    /// stay busy forever when the transaction it waits on is wedged,
    /// while a nonempty message queue always implies forward progress.
    pub fn messages_pending(&self) -> bool {
        !self.inbox.is_empty() || !self.fast_inbox.is_empty() || !self.delayed.is_empty()
    }

    /// The earliest cycle at which [`try_tick`](Self::try_tick) has work:
    /// [`Cycle::ZERO`] (every cycle) while an inbox holds a message,
    /// otherwise the due cycle of the earliest delayed response. `None`
    /// when no message is pending, and a tick would change nothing.
    pub fn next_due(&self) -> Option<Cycle> {
        if self.inbox.is_empty() && self.fast_inbox.is_empty() {
            self.delayed.next_due()
        } else {
            Some(Cycle::ZERO)
        }
    }

    /// Accepts one delivered message (any cycle).
    pub fn handle(&mut self, msg: CoherenceMsg, now: Cycle) {
        match msg {
            CoherenceMsg::RelayedInvAck { .. }
            | CoherenceMsg::UnblockS { .. }
            | CoherenceMsg::UnblockX { .. } => self.fast_inbox.push_back((msg, now)),
            CoherenceMsg::GetS { .. }
            | CoherenceMsg::GetX { .. }
            | CoherenceMsg::RelayedGetX { .. }
            | CoherenceMsg::FwdGetS { .. }
            | CoherenceMsg::FwdGetX { .. }
            | CoherenceMsg::Inv { .. }
            | CoherenceMsg::Data { .. }
            | CoherenceMsg::AckCount { .. }
            | CoherenceMsg::InvAck { .. }
            | CoherenceMsg::EarlyInvAck { .. }
            | CoherenceMsg::OsWakeup { .. } => self.inbox.push_back((msg, now)),
        }
    }

    /// Advances one cycle: releases delayed responses and processes one
    /// inbox message (the directory's serialization bottleneck), turning
    /// protocol violations into typed errors.
    ///
    /// # Errors
    ///
    /// The [`CoherenceError`] raised by the pure directory when a
    /// delivered message is impossible in the current state.
    pub fn try_tick(&mut self, now: Cycle, out: &mut Vec<Envelope>) -> Result<(), CoherenceError> {
        while let Some(env) = self.delayed.pop_due(now) {
            out.push(env);
        }
        while let Some((msg, arrived)) = self.fast_inbox.pop_front() {
            self.process(msg, arrived, now, out)?;
        }
        if let Some((msg, arrived)) = self.inbox.pop_front() {
            self.process(msg, arrived, now, out)?;
        }
        // Emit responses that were scheduled with zero latency this cycle.
        while let Some(env) = self.delayed.pop_due(now) {
            out.push(env);
        }
        Ok(())
    }

    /// Advances one cycle.
    ///
    /// # Panics
    ///
    /// Panics on a protocol violation; the simulator's checked run path
    /// uses [`try_tick`](Self::try_tick) instead.
    pub fn tick(&mut self, now: Cycle, out: &mut Vec<Envelope>) {
        if let Err(e) = self.try_tick(now, out) {
            panic!("{e}");
        }
    }

    fn process(
        &mut self,
        msg: CoherenceMsg,
        arrived: Cycle,
        now: Cycle,
        out: &mut Vec<Envelope>,
    ) -> Result<(), CoherenceError> {
        let outcome = self.inner.process(msg, arrived, now)?;
        for note in outcome.notes {
            match note {
                HomeNote::Request => self.stats.requests += 1,
                HomeNote::GetXSeen => self.stats.getx += 1,
                HomeNote::InvSent => self.stats.invs_sent += 1,
                HomeNote::InvSavedEarly => self.stats.invs_saved_by_early += 1,
                HomeNote::EarlyAckConsumed => self.stats.early_acks_consumed += 1,
                HomeNote::RelayForwarded => self.stats.relays_forwarded += 1,
                HomeNote::AckParked => self.stats.acks_parked += 1,
                HomeNote::Demotion => self.stats.demotions += 1,
                HomeNote::QueueWait(cycles) => self.stats.queue_wait_cycles += cycles,
                HomeNote::QueueLen(len) => {
                    self.stats.max_queue_len = self.stats.max_queue_len.max(len)
                }
                HomeNote::RelayRoundTrip { from, delay } => self.roundtrips.record(from, delay),
                HomeNote::DupRequestDropped => self.stats.dup_requests_dropped += 1,
                HomeNote::RecoveryRegrant => self.stats.recovery_regrants += 1,
            }
        }
        for emit in outcome.emits {
            match emit.at {
                EmitAt::Now => out.push(emit.env),
                EmitAt::At(when) => self.delayed.schedule(when, emit.env),
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn home() -> HomeBank {
        HomeBank::new(CoreId::new(0), 8, 0)
    }

    fn run_one(bank: &mut HomeBank, now: u64) -> Vec<Envelope> {
        let mut out = Vec::new();
        bank.tick(Cycle::new(now), &mut out);
        out
    }

    #[test]
    fn unowned_gets_grants_exclusive() {
        let mut bank = home();
        bank.init_block(Addr::new(0), 7);
        bank.handle(CoherenceMsg::GetS { addr: Addr::new(0), requester: CoreId::new(1) }, Cycle::ZERO);
        let out = run_one(&mut bank, 0);
        assert_eq!(out.len(), 1);
        let CoherenceMsg::Data { value, exclusive, needs_unblock, .. } = out[0].msg else {
            panic!("expected Data")
        };
        assert_eq!(value, 7);
        assert!(exclusive && needs_unblock);
        assert!(!bank.is_idle());
        bank.handle(CoherenceMsg::UnblockS { addr: Addr::new(0), from: CoreId::new(1) }, Cycle::new(5));
        run_one(&mut bank, 5);
        assert!(bank.is_idle());
    }

    #[test]
    fn second_reader_is_forwarded_to_owner() {
        let mut bank = home();
        bank.handle(CoherenceMsg::GetS { addr: Addr::new(0), requester: CoreId::new(1) }, Cycle::ZERO);
        run_one(&mut bank, 0);
        bank.handle(CoherenceMsg::UnblockS { addr: Addr::new(0), from: CoreId::new(1) }, Cycle::new(2));
        run_one(&mut bank, 2);
        bank.handle(CoherenceMsg::GetS { addr: Addr::new(0), requester: CoreId::new(2) }, Cycle::new(4));
        let out = run_one(&mut bank, 4);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].dst, CoreId::new(1), "forward goes to the E owner");
        assert!(matches!(out[0].msg, CoherenceMsg::FwdGetS { requester, .. } if requester == CoreId::new(2)));
    }

    #[test]
    fn shared_reads_do_not_block() {
        let mut bank = home();
        // Two readers while Unowned->E->Shared: set up Shared by two
        // sequential reads through the owner path is complex; instead
        // exercise Shared directly: first read E, unblock, then a write
        // brings it back... simpler: read E, unblock, owner invalidated
        // via GetX from another core, etc. Here we just check two queued
        // reads both get served.
        bank.handle(CoherenceMsg::GetS { addr: Addr::new(0), requester: CoreId::new(1) }, Cycle::ZERO);
        let out = run_one(&mut bank, 0);
        assert!(matches!(out[0].msg, CoherenceMsg::Data { .. }));
        // Second read queues while busy.
        bank.handle(CoherenceMsg::GetS { addr: Addr::new(0), requester: CoreId::new(2) }, Cycle::new(1));
        assert!(run_one(&mut bank, 1).is_empty(), "block busy: request queued");
        bank.handle(CoherenceMsg::UnblockS { addr: Addr::new(0), from: CoreId::new(1) }, Cycle::new(3));
        let out = run_one(&mut bank, 3);
        assert_eq!(out.len(), 1, "queued read starts when unblocked");
        assert!(matches!(out[0].msg, CoherenceMsg::FwdGetS { .. }));
    }

    #[test]
    fn getx_with_sharers_sends_invs_and_data() {
        let mut bank = home();
        bank.init_block(Addr::new(0), 3);
        // Build Shared{1,2} by hand via the protocol: 1 reads (E), 1
        // unblocks; 2 reads -> forwarded to 1 (Owned); 2 unblocks.
        bank.handle(CoherenceMsg::GetS { addr: Addr::new(0), requester: CoreId::new(1) }, Cycle::ZERO);
        run_one(&mut bank, 0);
        bank.handle(CoherenceMsg::UnblockS { addr: Addr::new(0), from: CoreId::new(1) }, Cycle::new(1));
        run_one(&mut bank, 1);
        bank.handle(CoherenceMsg::GetS { addr: Addr::new(0), requester: CoreId::new(2) }, Cycle::new(2));
        let out = run_one(&mut bank, 2);
        assert!(matches!(out[0].msg, CoherenceMsg::FwdGetS { .. }), "owner forward, non-blocking");

        // Core 3 wants exclusive: owner is 1, sharer is 2.
        bank.handle(
            CoherenceMsg::GetX {
                addr: Addr::new(0),
                requester: CoreId::new(3),
                home: CoreId::new(0),
                lock: true,
                failable: false,
                seq: 1,
            },
            Cycle::new(4),
        );
        let out = run_one(&mut bank, 4);
        let inv = out.iter().find(|e| matches!(e.msg, CoherenceMsg::Inv { .. })).unwrap();
        assert_eq!(inv.dst, CoreId::new(2));
        assert!(matches!(
            inv.msg,
            CoherenceMsg::Inv { ack_to: AckTarget::Core(w), .. } if w == CoreId::new(3)
        ));
        let fwd = out.iter().find(|e| matches!(e.msg, CoherenceMsg::FwdGetX { .. })).unwrap();
        assert_eq!(fwd.dst, CoreId::new(1));
        assert!(matches!(
            fwd.msg,
            CoherenceMsg::FwdGetX { acks_expected: 1, .. }
        ));
        assert_eq!(bank.stats().invs_sent, 1);
    }

    /// Parks the block busy on the cold E-grant read by core 1 (not yet
    /// unblocked), with a read by core 2, a GetX by core 3 and core 2's
    /// relayed (stopped) GetX queued behind it, in that order.
    fn busy_with_queued_requests() -> HomeBank {
        let mut bank = home();
        bank.handle(CoherenceMsg::GetS { addr: Addr::new(0), requester: CoreId::new(1) }, Cycle::ZERO);
        let out = run_one(&mut bank, 0);
        assert!(matches!(out[0].msg, CoherenceMsg::Data { exclusive: true, .. }));
        // Queued while the E-grant is busy:
        bank.handle(CoherenceMsg::GetS { addr: Addr::new(0), requester: CoreId::new(2) }, Cycle::new(1));
        assert!(run_one(&mut bank, 1).is_empty());
        bank.handle(
            CoherenceMsg::GetX {
                addr: Addr::new(0),
                requester: CoreId::new(3),
                home: CoreId::new(0),
                lock: true,
                failable: false,
                seq: 1,
            },
            Cycle::new(2),
        );
        assert!(run_one(&mut bank, 2).is_empty());
        bank.handle(
            CoherenceMsg::RelayedGetX {
                addr: Addr::new(0),
                requester: CoreId::new(2),
                home: CoreId::new(0),
                stopped_at: Cycle::new(10),
                failable: false,
                seq: 1,
            },
            Cycle::new(3),
        );
        assert!(run_one(&mut bank, 3).is_empty());
        bank
    }

    #[test]
    fn early_notified_then_ack_is_forwarded_during_txn() {
        let mut bank = busy_with_queued_requests();
        // Unblocking the E-grant drains the queue: core 2's read is a
        // non-blocking owner forward, then core 3's GetX starts. Core 2
        // is a sharer with a Notified record, so the home must not
        // invalidate it itself.
        bank.handle(CoherenceMsg::UnblockS { addr: Addr::new(0), from: CoreId::new(1) }, Cycle::new(4));
        let out = run_one(&mut bank, 4);
        assert!(
            out.iter().any(|e| matches!(e.msg, CoherenceMsg::FwdGetS { .. }) && e.dst == CoreId::new(1)),
            "core 2's read forwarded to owner 1: {out:?}"
        );
        assert!(
            !out.iter().any(|e| matches!(e.msg, CoherenceMsg::Inv { .. }) && e.dst == CoreId::new(2)),
            "no home Inv to the early-invalidated sharer: {out:?}"
        );
        assert!(
            out.iter().any(|e| matches!(e.msg, CoherenceMsg::FwdGetX { .. }) && e.dst == CoreId::new(1)),
            "ownership transfer to core 3 forwarded to owner 1"
        );
        assert_eq!(bank.stats().invs_saved_by_early, 1);

        // The relayed ack arrives and is forwarded to the winner.
        bank.handle(
            CoherenceMsg::RelayedInvAck {
                addr: Addr::new(0),
                from: CoreId::new(2),
                inv_sent_at: Cycle::new(10),
                relayed_at: Cycle::new(14),
            },
            Cycle::new(5),
        );
        let out = run_one(&mut bank, 5);
        let fwd = out.iter().find(|e| matches!(e.msg, CoherenceMsg::InvAck { .. })).unwrap();
        assert_eq!(fwd.dst, CoreId::new(3));
        assert!(matches!(fwd.msg, CoherenceMsg::InvAck { via_home: true, from, .. } if from == CoreId::new(2)));
        assert_eq!(bank.stats().relays_forwarded, 1);
        // Round trip recorded: 14 - 10.
        assert_eq!(bank.roundtrips().total_count(), 1);
        assert_eq!(bank.roundtrips().mean(), 4.0);
    }

    #[test]
    fn early_ack_before_getx_is_consumed_at_processing() {
        let mut bank = busy_with_queued_requests();
        // The ack arrives (and matches the Notified record) while the
        // block is still busy with the E-grant read.
        bank.handle(
            CoherenceMsg::RelayedInvAck {
                addr: Addr::new(0),
                from: CoreId::new(2),
                inv_sent_at: Cycle::new(10),
                relayed_at: Cycle::new(12),
            },
            Cycle::new(4),
        );
        run_one(&mut bank, 4);

        // Unblock: the drain reaches core 3's GetX, which consumes the
        // stored ack on core 2's behalf.
        bank.handle(CoherenceMsg::UnblockS { addr: Addr::new(0), from: CoreId::new(1) }, Cycle::new(5));
        let out = run_one(&mut bank, 5);
        let ack = out.iter().find(|e| matches!(e.msg, CoherenceMsg::InvAck { .. })).unwrap();
        assert_eq!(ack.dst, CoreId::new(3), "home answers on the loser's behalf");
        assert!(matches!(ack.msg, CoherenceMsg::InvAck { via_home: true, .. }));
        assert!(!out.iter().any(|e| matches!(e.msg, CoherenceMsg::Inv { .. }) && e.dst == CoreId::new(2)));
        assert_eq!(bank.stats().early_acks_consumed, 1);
    }

    #[test]
    fn failable_getx_racing_a_winner_is_demoted() {
        let mut bank = home();
        // Core 1 owns (E-grant + unblock).
        bank.handle(CoherenceMsg::GetS { addr: Addr::new(0), requester: CoreId::new(1) }, Cycle::ZERO);
        run_one(&mut bank, 0);
        bank.handle(CoherenceMsg::UnblockS { addr: Addr::new(0), from: CoreId::new(1) }, Cycle::new(1));
        run_one(&mut bank, 1);
        // Core 3 wins the lock (full exclusive service, busy).
        bank.handle(
            CoherenceMsg::GetX {
                addr: Addr::new(0),
                requester: CoreId::new(3),
                home: CoreId::new(0),
                lock: true,
                failable: true,
                seq: 1,
            },
            Cycle::new(2),
        );
        let out = run_one(&mut bank, 2);
        assert!(
            out.iter().any(|e| matches!(e.msg, CoherenceMsg::FwdGetX { .. })),
            "first competitor gets the full service: {out:?}"
        );
        // Core 2's CAS races the winner: queued, then demoted at drain.
        bank.handle(
            CoherenceMsg::GetX {
                addr: Addr::new(0),
                requester: CoreId::new(2),
                home: CoreId::new(0),
                lock: true,
                failable: true,
                seq: 1,
            },
            Cycle::new(3),
        );
        assert!(run_one(&mut bank, 3).is_empty(), "queued behind the winner");
        bank.handle(CoherenceMsg::UnblockX { addr: Addr::new(0), from: CoreId::new(3) }, Cycle::new(4));
        let out = run_one(&mut bank, 4);
        assert_eq!(out.len(), 1);
        assert!(matches!(out[0].msg, CoherenceMsg::FwdGetS { requester, .. } if requester == CoreId::new(2)));
        assert_eq!(out[0].dst, CoreId::new(3), "served by the new owner");
        assert_eq!(bank.stats().demotions, 1);
        assert!(bank.is_idle(), "demotion does not block the home");
    }

    #[test]
    fn ack_racing_ahead_of_notification_is_parked_then_merged() {
        let mut bank = home();
        // Ack arrives with no record: parked, never consumed directly.
        bank.handle(
            CoherenceMsg::RelayedInvAck {
                addr: Addr::new(0),
                from: CoreId::new(2),
                inv_sent_at: Cycle::new(10),
                relayed_at: Cycle::new(12),
            },
            Cycle::ZERO,
        );
        run_one(&mut bank, 0);
        assert_eq!(bank.stats().acks_parked, 1);
        // The matching notification arrives: merged into AckArrived.
        bank.handle(
            CoherenceMsg::RelayedGetX {
                addr: Addr::new(0),
                requester: CoreId::new(2),
                home: CoreId::new(0),
                stopped_at: Cycle::new(10),
                failable: false,
                seq: 1,
            },
            Cycle::new(1),
        );
        run_one(&mut bank, 1);
        // Processing core 2's own queued request clears its records; the
        // request itself proceeds (Unowned -> direct grant).
        // (The RelayedGetX above *was* the queued request.)
        // Nothing to assert beyond not panicking; the invariant tests
        // live in the integration suite.
    }

    #[test]
    #[should_panic(expected = "unblock for an idle block")]
    fn stray_unblock_panics() {
        let mut bank = home();
        bank.handle(CoherenceMsg::UnblockX { addr: Addr::new(0), from: CoreId::new(1) }, Cycle::ZERO);
        run_one(&mut bank, 0);
    }

    #[test]
    fn stray_unblock_is_a_typed_error_on_the_checked_path() {
        let mut bank = home();
        bank.handle(CoherenceMsg::UnblockX { addr: Addr::new(0), from: CoreId::new(1) }, Cycle::ZERO);
        let mut out = Vec::new();
        let err = bank.try_tick(Cycle::ZERO, &mut out).expect_err("stray unblock");
        assert!(matches!(err, CoherenceError::UnblockIdleBlock { .. }), "{err}");
    }

    #[test]
    fn inbox_serializes_one_request_per_cycle() {
        let mut bank = home();
        for i in 1..=3 {
            bank.handle(
                CoherenceMsg::GetS { addr: Addr::new(i * 128), requester: CoreId::new(i as usize) },
                Cycle::ZERO,
            );
        }
        assert_eq!(run_one(&mut bank, 0).len(), 1);
        assert_eq!(run_one(&mut bank, 1).len(), 1);
        assert_eq!(run_one(&mut bank, 2).len(), 1);
        assert_eq!(run_one(&mut bank, 3).len(), 0);
    }

    #[test]
    fn l2_latency_delays_data() {
        let mut bank = HomeBank::new(CoreId::new(0), 8, 6);
        bank.handle(CoherenceMsg::GetS { addr: Addr::new(0), requester: CoreId::new(1) }, Cycle::ZERO);
        assert!(run_one(&mut bank, 0).is_empty(), "data not ready yet");
        for now in 1..6 {
            assert!(run_one(&mut bank, now).is_empty());
        }
        let out = run_one(&mut bank, 6);
        assert!(matches!(out[0].msg, CoherenceMsg::Data { .. }));
    }
}
