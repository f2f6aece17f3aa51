//! The scan engine: per-host probe state machines multiplexed over a
//! hierarchical timer wheel, sharded across worker threads, with
//! cooperative cancellation and bounded-window backpressure.
//!
//! Every campaign runs here. An event loop drives one shard of one
//! phase step — the sweep, or one referral level — on one thread:
//!
//! * every admitted target gets a private [`VirtualClock`] fork of the
//!   campaign epoch, so record contents are a pure function of
//!   `(host, port, seed, epoch)` and never of probe order;
//! * stage transitions are scheduled on a [`TimerWheel`] keyed by the
//!   virtual time each stage consumed on its fork, so wheel order is the
//!   order a real event loop would observe completions;
//! * records leave strictly in admission order through an in-order
//!   frontier, and admission stalls once
//!   [`crate::ScanConfig::max_in_flight`] targets are in the window —
//!   the backpressure against a slow record sink;
//! * a [`CancelToken`] stops the loop between timer firings, or at the
//!   very record whose emission cancels it; everything in flight is
//!   dropped, fork clocks and all, so the campaign clock never sees
//!   their time.
//!
//! [`crate::ScanConfig::workers`] sets how many loops share a step: with
//! one worker the loop runs inline on the caller's thread; with N, N
//! loops run on N threads — loop `s` takes the walk steps `pos % N == s`
//! (each referral level's targets `i % N == s`) — and an N-way merge
//! joins their streams back into walk order. The record stream, the
//! summary, and every [`SweepCheckpoint`] are therefore identical at any
//! worker count and in-flight cap.

use crate::pipeline::ReferralStats;
use crate::probe::{Probe, ProbeContext, ProbeOutcome, ScanConfig};
use crate::record::{DiscoveredVia, ScanRecord};
use crate::suite::ProtocolSuite;
use netsim::{Internet, Ipv4, SweepStats, TcpStreamSim, VirtualClock};
// ua-lint: allow(unordered-iteration) -- wheel/engine maps are id-keyed lookups; emission order comes from the sequence cursor
use std::collections::{BTreeSet, HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::sync::{mpsc, Arc};
use ua_client::UaClient;
use ua_crypto::CertStore;

// ---------------------------------------------------------------------------
// Cancellation
// ---------------------------------------------------------------------------

/// A cooperative cancellation flag shared between a scan driver and
/// whoever wants to abort it.
///
/// Clones share the flag (the token is a handle, not the state). The
/// scan engine polls [`is_cancelled`] at safe points — between timer
/// firings during the sweep, and at referral-level boundaries — so
/// cancellation is prompt but never tears a probe mid-stage in a way
/// the checkpoint could not describe.
///
/// Cancellation composes with determinism: an aborted sweep reports a
/// [`SweepCheckpoint`], and resuming from it reproduces the exact byte
/// stream an uninterrupted run would have produced (see
/// [`crate::Scanner::scan_resumable`]).
///
/// ```
/// use scanner::CancelToken;
///
/// let token = CancelToken::new();
/// let shared = token.clone();
/// assert!(!shared.is_cancelled());
/// token.cancel();
/// assert!(shared.is_cancelled());
/// ```
///
/// [`is_cancelled`]: CancelToken::is_cancelled
#[derive(Debug, Clone)]
pub struct CancelToken {
    cancelled: Arc<AtomicBool>,
    /// Remaining record budget; negative means "no budget armed".
    budget: Arc<AtomicI64>,
}

impl CancelToken {
    /// A token that only cancels when [`cancel`] is called.
    ///
    /// [`cancel`]: CancelToken::cancel
    pub fn new() -> Self {
        CancelToken {
            cancelled: Arc::new(AtomicBool::new(false)),
            budget: Arc::new(AtomicI64::new(-1)),
        }
    }

    /// A token that cancels itself once `n` records have been emitted
    /// by the scan it is passed to — the deterministic abort hook: a
    /// sweep stops right after its `n`-th record, at any in-flight cap
    /// and worker count, which is what lets CI abort a sweep at ~50% and
    /// diff the stitched abort+resume output byte-for-byte against an
    /// uninterrupted run. (Referral levels are atomic: a budget that
    /// runs out inside one lands at the level's end.)
    pub fn after_records(n: u64) -> Self {
        CancelToken {
            cancelled: Arc::new(AtomicBool::new(false)),
            budget: Arc::new(AtomicI64::new(n.min(i64::MAX as u64) as i64)),
        }
    }

    /// Raises the flag. Idempotent; every clone observes it.
    pub fn cancel(&self) {
        self.cancelled.store(true, Ordering::SeqCst);
    }

    /// True once [`cancel`] was called (or a record budget ran out).
    ///
    /// [`cancel`]: CancelToken::cancel
    pub fn is_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::SeqCst)
    }

    /// Consumes one unit of the record budget, cancelling when it hits
    /// zero. The scan engine calls this once per emitted record; a
    /// token built with [`CancelToken::new`] ignores it.
    pub fn notch(&self) {
        if self.budget.load(Ordering::SeqCst) < 0 {
            return;
        }
        if self.budget.fetch_sub(1, Ordering::SeqCst) <= 1 {
            self.cancel();
        }
    }

    /// An RAII guard that cancels this token when dropped, unless
    /// [`CancelGuard::disarm`]ed — the `ServerGuard` idiom: tie the
    /// scan's lifetime to a scope so an early return or panic upstream
    /// still winds the sweep down at the next safe point.
    pub fn guard(&self) -> CancelGuard {
        CancelGuard {
            token: self.clone(),
            armed: true,
        }
    }
}

impl Default for CancelToken {
    fn default() -> Self {
        Self::new()
    }
}

/// Scope guard for a [`CancelToken`]; see [`CancelToken::guard`].
#[derive(Debug)]
pub struct CancelGuard {
    token: CancelToken,
    armed: bool,
}

impl CancelGuard {
    /// Defuses the guard: dropping it no longer cancels the token.
    /// Returns the token for further use.
    pub fn disarm(mut self) -> CancelToken {
        self.armed = false;
        self.token.clone()
    }
}

impl Drop for CancelGuard {
    fn drop(&mut self) {
        if self.armed {
            self.token.cancel();
        }
    }
}

// ---------------------------------------------------------------------------
// Timer wheel
// ---------------------------------------------------------------------------

/// Levels in the hierarchy; horizon is `64^8` ticks (≈ 2.8 · 10¹⁴ µs,
/// about nine virtual years — far beyond any campaign).
const WHEEL_LEVELS: usize = 8;
/// Slots per level.
const WHEEL_SLOTS: usize = 64;
/// log2(WHEEL_SLOTS).
const SLOT_BITS: u32 = 6;

/// Handle for cancelling a scheduled timer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimerId(u64);

#[derive(Debug)]
struct TimerEntry<T> {
    deadline: u64,
    seq: u64,
    id: u64,
    value: T,
}

/// A hierarchical timer wheel (hashed-and-hierarchical, à la Varghese &
/// Lauck): eight levels of 64 slots at 1 µs tick granularity. Near
/// deadlines sit in level 0 where expiry is O(1); far deadlines park in
/// coarser levels and *cascade* down as the wheel turns.
///
/// Determinism guarantees the scan engine builds on:
///
/// * expiry happens in non-decreasing deadline order;
/// * timers sharing a deadline fire in one batch, ordered by insertion
///   (same-tick FIFO) — even when some of them cascaded in from coarser
///   levels and others were inserted at level 0 directly;
/// * [`cancel`]led timers never fire and never perturb the order of the
///   survivors.
///
/// [`cancel`]: TimerWheel::cancel
#[derive(Debug)]
pub struct TimerWheel<T> {
    /// `levels[level][slot]` holds entries whose deadline lands in that
    /// slot for the wheel's current rotation.
    levels: Vec<Vec<Vec<TimerEntry<T>>>>,
    /// One bit per slot, set while the slot holds any entries — lets
    /// the expiry scan skip empty slots (the common case: a wheel of
    /// 512 slots holding an in-flight window's worth of timers).
    occupied: [u64; WHEEL_LEVELS],
    now: u64,
    next_seq: u64,
    next_id: u64,
    // ua-lint: allow(unordered-iteration) -- liveness membership only, never iterated
    live: HashSet<u64>,
    /// Cancelled entries not yet physically pruned from their slot.
    /// While zero (the common case) expiry skips the prune pass.
    cancelled_pending: usize,
    cascades: u64,
}

impl<T> TimerWheel<T> {
    /// An empty wheel at tick 0.
    pub fn new() -> Self {
        TimerWheel {
            levels: (0..WHEEL_LEVELS)
                .map(|_| (0..WHEEL_SLOTS).map(|_| Vec::new()).collect())
                .collect(),
            occupied: [0; WHEEL_LEVELS],
            now: 0,
            next_seq: 0,
            next_id: 0,
            // ua-lint: allow(unordered-iteration) -- liveness membership only, never iterated
            live: HashSet::new(),
            cancelled_pending: 0,
            cascades: 0,
        }
    }

    /// Current wheel time in ticks (µs). Advances on expiry only.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Live (scheduled, not yet fired or cancelled) timer count.
    pub fn len(&self) -> usize {
        self.live.len()
    }

    /// True when no live timers remain.
    pub fn is_empty(&self) -> bool {
        self.live.is_empty()
    }

    /// Number of entries that cascaded from a coarser level to a finer
    /// one over the wheel's lifetime — the cost a hierarchical wheel
    /// pays for O(1) insertion of far-future deadlines.
    pub fn cascades(&self) -> u64 {
        self.cascades
    }

    /// Schedules `value` to fire at absolute tick `deadline` (clamped to
    /// `now` when already past). Returns a handle for [`cancel`].
    ///
    /// [`cancel`]: TimerWheel::cancel
    pub fn insert(&mut self, deadline: u64, value: T) -> TimerId {
        let deadline = deadline.max(self.now);
        let id = self.next_id;
        self.next_id += 1;
        let seq = self.next_seq;
        self.next_seq += 1;
        self.live.insert(id);
        self.place(TimerEntry {
            deadline,
            seq,
            id,
            value,
        });
        TimerId(id)
    }

    /// Files an entry into the finest level that can represent its
    /// remaining delta. Used for both fresh inserts and cascades, so
    /// `seq`/`id` survive re-homing.
    fn place(&mut self, entry: TimerEntry<T>) {
        let delta = entry.deadline - self.now;
        let mut level = 0;
        while level + 1 < WHEEL_LEVELS && delta >= 1u64 << (SLOT_BITS * (level as u32 + 1)) {
            level += 1;
        }
        assert!(
            delta < 1u64 << (SLOT_BITS * WHEEL_LEVELS as u32),
            "timer deadline beyond wheel horizon"
        );
        let slot =
            ((entry.deadline >> (SLOT_BITS * level as u32)) & (WHEEL_SLOTS as u64 - 1)) as usize;
        self.levels[level][slot].push(entry);
        self.occupied[level] |= 1 << slot;
    }

    /// Cancels a timer; true when it was still live. The entry is
    /// pruned lazily — cancellation is O(1).
    pub fn cancel(&mut self, id: TimerId) -> bool {
        let was_live = self.live.remove(&id.0);
        if was_live {
            self.cancelled_pending += 1;
        }
        was_live
    }

    /// Drops every live timer, returning how many were dropped.
    pub fn clear(&mut self) -> usize {
        let dropped = self.live.len();
        self.live.clear();
        for level in &mut self.levels {
            for slot in level {
                slot.clear();
            }
        }
        self.occupied = [0; WHEEL_LEVELS];
        self.cancelled_pending = 0;
        dropped
    }

    /// Advances to the next deadline with live timers and returns
    /// `(deadline, values)` — all timers sharing that tick, in
    /// insertion order. `None` when the wheel is empty.
    pub fn expire_next(&mut self) -> Option<(u64, Vec<T>)> {
        loop {
            // Find the earliest live deadline, scanning coarse levels
            // first so a tie between a parked (coarse) entry and a
            // level-0 entry cascades the parked one down before firing
            // — otherwise the batch would split a tick.
            let mut min: Option<(u64, usize, usize)> = None;
            for level in (0..WHEEL_LEVELS).rev() {
                let mut bits = self.occupied[level];
                while bits != 0 {
                    let slot = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    if self.cancelled_pending > 0 {
                        let live = &self.live;
                        let entries = &mut self.levels[level][slot];
                        let before = entries.len();
                        entries.retain(|e| live.contains(&e.id));
                        self.cancelled_pending -= before - entries.len();
                        if entries.is_empty() {
                            self.occupied[level] &= !(1u64 << slot);
                            continue;
                        }
                    }
                    for e in &self.levels[level][slot] {
                        if min.is_none_or(|(d, _, _)| e.deadline < d) {
                            min = Some((e.deadline, level, slot));
                        }
                    }
                }
            }
            let (deadline, level, slot) = min?;

            if level == 0 {
                self.now = self.now.max(deadline);
                let entries = &mut self.levels[0][slot];
                let mut batch = Vec::new();
                let mut keep = Vec::new();
                for e in entries.drain(..) {
                    if e.deadline == deadline {
                        batch.push(e);
                    } else {
                        // Same slot, later rotation: stays parked.
                        keep.push(e);
                    }
                }
                *entries = keep;
                if self.levels[0][slot].is_empty() {
                    self.occupied[0] &= !(1u64 << slot);
                }
                batch.sort_by_key(|e| e.seq);
                for e in &batch {
                    self.live.remove(&e.id);
                }
                return Some((deadline, batch.into_iter().map(|e| e.value).collect()));
            }

            // Cascade: advance to the start of the slot's window on
            // this level, then re-home the in-window entries into finer
            // levels. Entries in the slot that belong to a *later*
            // rotation stay put.
            let span = 1u64 << (SLOT_BITS * level as u32);
            let window_start =
                (deadline >> (SLOT_BITS * level as u32)) << (SLOT_BITS * level as u32);
            self.now = self.now.max(window_start);
            let entries = std::mem::take(&mut self.levels[level][slot]);
            for e in entries {
                if e.deadline < window_start + span {
                    self.cascades += 1;
                    self.place(e);
                } else {
                    self.levels[level][slot].push(e);
                }
            }
            if self.levels[level][slot].is_empty() {
                self.occupied[level] &= !(1u64 << slot);
            }
        }
    }
}

impl<T> Default for TimerWheel<T> {
    fn default() -> Self {
        Self::new()
    }
}

// ---------------------------------------------------------------------------
// Checkpoints and stats
// ---------------------------------------------------------------------------

/// A referral URL harvested from an emitted record but not yet
/// classified — the unit of the checkpointed referral frontier.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PendingUrl {
    /// Host whose record announced the URL.
    pub from: Ipv4,
    /// The announced `opc.tcp://…` URL, verbatim.
    pub url: String,
    /// Referral depth the URL would be followed at.
    pub depth: u32,
}

/// Everything needed to resume an aborted scan deterministically: a
/// position in the merged record stream plus the counters of the
/// records emitted before it.
///
/// Records leave the scan in permutation-walk order at any worker
/// count, so "every sweep record before walk step `next_step`" names
/// exactly the emitted prefix. Resume re-walks the current phase,
/// recounts its sweep stats, and admits only steps from `next_step`
/// on; whatever was in flight at the abort is re-probed from scratch.
/// Because record contents are a pure function of
/// `(host, port, seed, epoch)`, the stitched stream
/// `aborted-run records ++ resumed-run records` is byte-identical to an
/// uninterrupted run — and since nothing in the checkpoint names a
/// shard, it resumes at any [`crate::ScanConfig::workers`] count.
/// Referral levels are atomic: an abort in the referral phase lands
/// between levels.
///
/// One deliberate exception: the campaign-wide certificate interner
/// ([`ua_crypto::CertStore`]) counts *work performed*, so certificates
/// captured by probes that were later discarded are sighted again on
/// re-probe. `certs.sightings` in the final summary is therefore
/// telemetry, not part of the byte-identity contract; every other
/// summary field (sweep stats, referral stats, host counts,
/// timestamps) stitches exactly.
///
/// Checkpoints are plain data — every field is public and printable —
/// so drivers can persist them however they like.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepCheckpoint {
    /// Seed the scan was started with; resuming asserts it matches.
    pub seed: u64,
    /// The campaign epoch (µs): the frozen instant every probe forks
    /// its private clock from. Resume reconstructs it with
    /// [`VirtualClock::starting_at_micros`].
    pub epoch_micros: u64,
    /// `started_unix` the final summary must report.
    pub started_unix: i64,
    /// Index (into [`crate::probe::ScanConfig::effective_suites`]) of
    /// the suite phase the abort landed in; earlier phases are complete
    /// and resume skips them entirely.
    pub suite_cursor: usize,
    /// True when the current phase's sweep finished and only its
    /// referral levels remain.
    pub sweep_done: bool,
    /// The permutation-walk step after the last emitted sweep record of
    /// the current phase (0 when none was emitted). Resume admits only
    /// steps from here on.
    pub next_step: u64,
    /// Sweep counters of every phase whose sweep completed. A phase
    /// aborted mid-sweep is recounted from scratch on resume.
    pub sweep_stats: SweepStats,
    /// OPC UA speakers among emitted records so far.
    pub opcua_hosts: u64,
    /// Emitted records that failed the UACP hello.
    pub non_opcua_hosts: u64,
    /// Per-host probe time (µs) of *emitted* records only — discarded
    /// in-flight probes never charge the campaign clock.
    pub probe_micros: u64,
    /// Referral URLs harvested from emitted records, not yet followed.
    pub frontier: Vec<PendingUrl>,
    /// Referral-phase counters so far.
    pub referral_stats: ReferralStats,
    /// Connect-phase fault/retry counters over emitted records so far —
    /// resumed hostile sweeps stitch their [`crate::FaultStats`] exactly
    /// like the host counts.
    pub fault_stats: crate::pipeline::FaultStats,
    /// `(address, port)` pairs the current phase already probed via
    /// referral.
    pub probed_referrals: BTreeSet<(Ipv4, u16)>,
}

/// Scheduler telemetry of one scan call, summed over every event loop
/// it ran (one per worker per sweep or referral level). Deliberately
/// **not** part of [`crate::ScanSummary`]: the summary must not depend
/// on the worker count or the in-flight cap, and these numbers
/// describe the scheduler, not the measurement.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Targets admitted into an in-flight window.
    pub admitted: u64,
    /// Probes driven to completion (admitted minus aborted).
    pub completed: u64,
    /// Peak size of any one event loop's admitted-but-unemitted window;
    /// by construction never exceeds [`crate::ScanConfig::max_in_flight`].
    pub in_flight_high_water: usize,
    /// Timers scheduled on the wheels.
    pub timers_scheduled: u64,
    /// Timers that fired.
    pub timers_fired: u64,
    /// Timers dropped by cancellation.
    pub timers_cancelled: u64,
    /// Entries that cascaded between wheel levels.
    pub wheel_cascades: u64,
    /// Virtual microseconds the event loops' internal timelines covered.
    pub virtual_micros: u64,
}

impl EngineStats {
    /// Folds another event loop's counters in: sums everything except
    /// the high-water mark, which stays a per-loop maximum.
    pub(crate) fn absorb(&mut self, other: EngineStats) {
        self.admitted += other.admitted;
        self.completed += other.completed;
        self.in_flight_high_water = self.in_flight_high_water.max(other.in_flight_high_water);
        self.timers_scheduled += other.timers_scheduled;
        self.timers_fired += other.timers_fired;
        self.timers_cancelled += other.timers_cancelled;
        self.wheel_cascades += other.wheel_cascades;
        self.virtual_micros += other.virtual_micros;
    }
}

// ---------------------------------------------------------------------------
// The event loop
// ---------------------------------------------------------------------------

/// One unit of admission: a target the walk classified as listening
/// (or a dead referral target that still owes a connect-time charge).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Job {
    /// Emission key: walk step for sweep jobs, level index for
    /// referral jobs. Strictly increasing within one event loop, and
    /// unique across the shards of one run.
    pub ordinal: u64,
    pub addr: Ipv4,
    pub port: u16,
    pub via: DiscoveredVia,
    pub seed: u64,
    /// False for referral targets with no listener: resolved at
    /// admission with a single timed connect.
    pub listening: bool,
}

/// How an event loop's `run` call ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EngineRun {
    /// The job iterator was exhausted and every record emitted.
    Complete,
    /// Cancellation observed, or the emitter asked to stop; everything
    /// in flight was dropped.
    Cancelled,
}

/// What one run of a phase step — the sweep or one referral level —
/// left behind.
pub(crate) struct ShardRun<J> {
    /// Every job of every shard was emitted.
    pub complete: bool,
    /// Each shard's job iterator after the run, in shard order (the
    /// sweep's carry the shard's counters).
    pub jobs: Vec<J>,
    /// Scheduler telemetry summed over the shards.
    pub engine: EngineStats,
}

/// One result leaving an event loop: ordinal, record (`None` for a dead
/// referral target), and the virtual probe microseconds it consumed.
type Emitted = (u64, Option<ScanRecord>, u64);

/// Everything the event loops of one suite phase share.
#[derive(Clone, Copy)]
pub(crate) struct PhaseEnv<'a> {
    pub internet: &'a Internet,
    pub config: &'a ScanConfig,
    pub certs: &'a CertStore,
    /// Frozen campaign epoch every probe forks its private clock from.
    pub epoch: &'a VirtualClock,
    /// The suite whose stage ladder and payload template the phase runs.
    pub suite: &'a Arc<dyn ProtocolSuite>,
}

impl PhaseEnv<'_> {
    /// Runs one phase step on `shards` event loops, loop `s` driving the
    /// jobs `jobs(s)` yields, and hands every result to `emit` strictly
    /// in ordinal order. `emit` returns false to stop the step; when
    /// `cancel` is `Some`, the loops also poll it between timer firings.
    ///
    /// One shard runs inline on the caller's thread. More run on scoped
    /// threads, each feeding a bounded channel of
    /// [`ScanConfig::channel_capacity`] results; the caller's thread
    /// merges the N ordinal-sorted streams by always emitting the
    /// smallest head, which reproduces the one-shard order exactly.
    pub fn run_shards<J>(
        &self,
        shards: usize,
        cancel: Option<&CancelToken>,
        jobs: impl Fn(usize) -> J + Sync,
        emit: &mut dyn FnMut(u64, Option<ScanRecord>, u64) -> bool,
    ) -> ShardRun<J>
    where
        J: Iterator<Item = Job> + Send,
    {
        if shards <= 1 {
            let mut shard_jobs = jobs(0);
            let mut engine = EventLoop::new(*self);
            let run = engine.run(&mut shard_jobs, cancel, emit);
            return ShardRun {
                complete: run == EngineRun::Complete,
                jobs: vec![shard_jobs],
                engine: engine.stats(),
            };
        }
        let capacity = self.config.effective_channel_capacity();
        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(shards);
            let mut rxs = Vec::with_capacity(shards);
            for shard in 0..shards {
                let (tx, rx) = mpsc::sync_channel::<Emitted>(capacity);
                rxs.push(rx);
                let (env, jobs) = (*self, &jobs);
                handles.push(scope.spawn(move || {
                    let mut shard_jobs = jobs(shard);
                    let mut engine = EventLoop::new(env);
                    // A closed channel means the merge stopped.
                    let run =
                        engine.run(&mut shard_jobs, cancel, &mut |ordinal, record, micros| {
                            tx.send((ordinal, record, micros)).is_ok()
                        });
                    (run, shard_jobs, engine.stats())
                }));
            }
            // N-way merge. Blocking on one shard is fine: the others run
            // ahead into their bounded buffers. A shard only ends early
            // after cancellation, so checking the token before every
            // emission keeps a truncated shard from leaving a gap.
            let mut heads: Vec<Option<Emitted>> = rxs.iter().map(|rx| rx.recv().ok()).collect();
            let mut stopped = false;
            while let Some(next) = heads
                .iter()
                .enumerate()
                .filter_map(|(i, h)| h.as_ref().map(|(ordinal, _, _)| (*ordinal, i)))
                .min()
                .map(|(_, i)| i)
            {
                // ua-lint: allow(panic-hygiene) -- `next` was selected because this head is Some
                let (ordinal, record, micros) = heads[next].take().expect("head present");
                if cancel.is_some_and(CancelToken::is_cancelled) || !emit(ordinal, record, micros) {
                    stopped = true;
                    break;
                }
                heads[next] = rxs[next].recv().ok();
            }
            // Unblock shards waiting on a full channel, then join them.
            drop(rxs);
            let mut out = ShardRun {
                complete: !stopped,
                jobs: Vec::with_capacity(shards),
                engine: EngineStats::default(),
            };
            for handle in handles {
                // ua-lint: allow(panic-hygiene) -- re-raise a worker panic on the merging thread
                let (run, shard_jobs, stats) = handle.join().expect("scan shard panicked");
                out.complete &= run == EngineRun::Complete;
                out.jobs.push(shard_jobs);
                out.engine.absorb(stats);
            }
            out
        })
    }
}

/// A probe in flight: its private fork clock, network view, record
/// under construction, and position in the probe stack.
struct InFlight {
    ordinal: u64,
    addr: Ipv4,
    port: u16,
    seed: u64,
    clock: VirtualClock,
    start_micros: u64,
    net: Internet,
    record: ScanRecord,
    client: Option<UaClient<TcpStreamSim>>,
    stage: usize,
    /// Fork-elapsed µs already reflected in wheel scheduling.
    charged: u64,
}

/// The single-threaded scan engine: drives one shard of one phase step
/// (see [`PhaseEnv::run_shards`]).
struct EventLoop<'a> {
    env: PhaseEnv<'a>,
    stack: Vec<Box<dyn Probe>>,
    wheel: TimerWheel<usize>,
    slots: Vec<Option<InFlight>>,
    free: Vec<usize>,
    pending: VecDeque<u64>,
    /// Completion buffer keyed by admission sequence; records leave in
    /// cursor order, so the map's own order never shows.
    // ua-lint: allow(unordered-iteration) -- drained by sequence cursor, never iterated
    ready: HashMap<u64, (Option<ScanRecord>, u64)>,
    stats: EngineStats,
    cap: usize,
}

impl<'a> EventLoop<'a> {
    fn new(env: PhaseEnv<'a>) -> Self {
        EventLoop {
            stack: env.suite.stack(),
            wheel: TimerWheel::new(),
            slots: Vec::new(),
            free: Vec::new(),
            pending: VecDeque::new(),
            // ua-lint: allow(unordered-iteration) -- drained by sequence cursor, never iterated
            ready: HashMap::new(),
            stats: EngineStats::default(),
            cap: env.config.effective_max_in_flight(),
            env,
        }
    }

    fn stats(&self) -> EngineStats {
        let mut stats = self.stats;
        stats.wheel_cascades = self.wheel.cascades();
        stats.virtual_micros = self.wheel.now();
        stats
    }

    /// Drives `jobs` to completion (or cancellation), calling
    /// `emit(ordinal, record, probe_micros)` strictly in ordinal order.
    /// `record` is `None` for dead referral targets. The loop stops at
    /// the first `emit` that returns false, and, when `cancel` is
    /// `Some`, at the first timer firing that finds the token set.
    fn run(
        &mut self,
        jobs: &mut dyn Iterator<Item = Job>,
        cancel: Option<&CancelToken>,
        emit: &mut dyn FnMut(u64, Option<ScanRecord>, u64) -> bool,
    ) -> EngineRun {
        let mut exhausted = false;
        loop {
            if cancel.is_some_and(CancelToken::is_cancelled) {
                self.abort();
                return EngineRun::Cancelled;
            }
            while !exhausted && self.pending.len() < self.cap {
                match jobs.next() {
                    Some(job) => self.admit(job),
                    None => exhausted = true,
                }
            }
            if !self.flush(emit) {
                self.abort();
                return EngineRun::Cancelled;
            }
            if exhausted && self.pending.is_empty() {
                return EngineRun::Complete;
            }
            if let Some((_, batch)) = self.wheel.expire_next() {
                self.stats.timers_fired += batch.len() as u64;
                for slot in batch {
                    self.run_stage(slot);
                }
            } else {
                // No timers armed: everything pending is resolved (the
                // next flush drains it) or admission still has input.
                debug_assert!(
                    !exhausted
                        || self
                            .pending
                            .front()
                            .is_none_or(|o| self.ready.contains_key(o)),
                    "event loop stalled with no timers and no ready frontier"
                );
            }
        }
    }

    /// Drops everything in flight. The fork clocks die with their
    /// probes, so none of their virtual time ever reaches the campaign
    /// clock — the invariant `week_epochs_strictly_advance` relies on.
    fn abort(&mut self) {
        self.pending.clear();
        self.stats.timers_cancelled += self.wheel.clear() as u64;
        self.slots.clear();
        self.free.clear();
        self.ready.clear();
    }

    fn admit(&mut self, job: Job) {
        self.stats.admitted += 1;
        self.pending.push_back(job.ordinal);
        self.stats.in_flight_high_water = self.stats.in_flight_high_water.max(self.pending.len());
        let env = self.env;

        if !job.listening {
            // Dead referral target: charge exactly what the failed
            // connect costs under the simulator's TCP model — one RTT
            // for a refused port on a live host, a full SYN timeout when
            // no host answers — measured on a throwaway fork.
            let clock = env.epoch.fork();
            let start = clock.now_micros();
            let _ = env.internet.with_clock(clock.clone()).connect(
                env.config.scanner_address,
                job.addr,
                job.port,
            );
            let elapsed = clock.now_micros().saturating_sub(start);
            self.ready.insert(job.ordinal, (None, elapsed));
            self.stats.completed += 1;
            return;
        }

        let hint = env
            .internet
            .poll_connect(job.addr, job.port)
            .latency_hint_micros();
        let clock = env.epoch.fork();
        let net = env.internet.with_clock(clock.clone());
        let mut record = ScanRecord::for_target(
            job.addr,
            job.port,
            job.via,
            net.as_number(job.addr),
            clock.now_unix_seconds(),
        );
        record.payload = env.suite.payload();
        let flight = InFlight {
            ordinal: job.ordinal,
            addr: job.addr,
            port: job.port,
            seed: job.seed,
            start_micros: clock.now_micros(),
            clock,
            net,
            record,
            client: None,
            stage: 0,
            charged: 0,
        };
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot] = Some(flight);
                slot
            }
            None => {
                self.slots.push(Some(flight));
                self.slots.len() - 1
            }
        };
        self.wheel.insert(self.wheel.now() + hint.max(1), slot);
        self.stats.timers_scheduled += 1;
    }

    /// Runs one probe stage for the flight in `slot`, then either
    /// schedules the next stage (at a deadline offset by the virtual
    /// time this stage consumed on the flight's fork) or finalizes the
    /// record into the ready map.
    fn run_stage(&mut self, slot: usize) {
        let mut flight = match self.slots.get_mut(slot).and_then(Option::take) {
            Some(flight) => flight,
            // Slot was torn down by an abort racing a stale timer.
            None => return,
        };
        let mut ctx = ProbeContext::for_target(
            &flight.net,
            self.env.config,
            self.env.certs,
            flight.addr,
            flight.port,
            flight.seed,
        );
        ctx.client = flight.client.take();
        let outcome = self.stack[flight.stage].run(&mut ctx, &mut flight.record);
        flight.client = ctx.client.take();
        flight.stage += 1;

        let elapsed = flight
            .clock
            .now_micros()
            .saturating_sub(flight.start_micros);
        if outcome == ProbeOutcome::Stop || flight.stage >= self.stack.len() {
            // Added, not assigned: side-connection stages (vendor
            // fingerprinting) fold their traffic in via
            // `ScanRecord::account` as they run.
            if let Some(client) = &flight.client {
                flight.record.requests += client.requests_sent();
                let stats = client.stats();
                flight.record.tx_bytes += stats.tx_bytes;
                flight.record.rx_bytes += stats.rx_bytes;
            }
            self.stats.completed += 1;
            self.ready
                .insert(flight.ordinal, (Some(flight.record), elapsed));
            self.free.push(slot);
        } else {
            let delta = elapsed.saturating_sub(flight.charged);
            flight.charged = elapsed;
            let deadline = self.wheel.now() + delta.max(1);
            self.slots[slot] = Some(flight);
            self.wheel.insert(deadline, slot);
            self.stats.timers_scheduled += 1;
        }
    }

    /// Emits the in-order frontier: records leave strictly in admission
    /// order, which is the permutation-walk order — the whole
    /// byte-identity argument in one loop. Returns false as soon as
    /// `emit` does, leaving the later ready records unemitted.
    fn flush(&mut self, emit: &mut dyn FnMut(u64, Option<ScanRecord>, u64) -> bool) -> bool {
        while let Some(&front) = self.pending.front() {
            let Some((record, micros)) = self.ready.remove(&front) else {
                break;
            };
            self.pending.pop_front();
            if !emit(front, record, micros) {
                return false;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_cancels_and_shares() {
        let token = CancelToken::new();
        let clone = token.clone();
        assert!(!clone.is_cancelled());
        token.cancel();
        assert!(clone.is_cancelled());
        // notch is a no-op without a budget.
        let t = CancelToken::new();
        for _ in 0..10 {
            t.notch();
        }
        assert!(!t.is_cancelled());
    }

    #[test]
    fn token_budget_cancels_after_n_notches() {
        let token = CancelToken::after_records(3);
        token.notch();
        assert!(!token.is_cancelled());
        token.notch();
        assert!(!token.is_cancelled());
        token.notch();
        assert!(token.is_cancelled());
    }

    #[test]
    fn guard_cancels_on_drop_unless_disarmed() {
        let token = CancelToken::new();
        {
            let _guard = token.guard();
        }
        assert!(token.is_cancelled());

        let token = CancelToken::new();
        {
            let guard = token.guard();
            let _ = guard.disarm();
        }
        assert!(!token.is_cancelled());
    }

    #[test]
    fn wheel_fires_in_deadline_order() {
        let mut wheel = TimerWheel::new();
        wheel.insert(50, "c");
        wheel.insert(10, "a");
        wheel.insert(30, "b");
        assert_eq!(wheel.len(), 3);
        assert_eq!(wheel.expire_next(), Some((10, vec!["a"])));
        assert_eq!(wheel.now(), 10);
        assert_eq!(wheel.expire_next(), Some((30, vec!["b"])));
        assert_eq!(wheel.expire_next(), Some((50, vec!["c"])));
        assert_eq!(wheel.now(), 50);
        assert!(wheel.is_empty());
        assert_eq!(wheel.expire_next(), None);
    }

    #[test]
    fn wheel_same_tick_fifo_across_levels() {
        let mut wheel = TimerWheel::new();
        // "first" goes in at level 1 (delta 100 ≥ 64 from tick 0);
        // after the wheel turns past 40, "second" lands at level 0 for
        // the same deadline. The batch must still come out in
        // insertion order, which forces a cascade of "first".
        wheel.insert(100, "first");
        wheel.insert(40, "warmup");
        assert_eq!(wheel.expire_next(), Some((40, vec!["warmup"])));
        wheel.insert(100, "second");
        assert_eq!(wheel.expire_next(), Some((100, vec!["first", "second"])));
        assert!(wheel.cascades() > 0);
    }

    #[test]
    fn wheel_cancel_removes_without_reordering() {
        let mut wheel = TimerWheel::new();
        let _a = wheel.insert(10, "a");
        let b = wheel.insert(20, "b");
        let _c = wheel.insert(30, "c");
        assert!(wheel.cancel(b));
        assert!(!wheel.cancel(b), "second cancel is a no-op");
        assert_eq!(wheel.len(), 2);
        assert_eq!(wheel.expire_next(), Some((10, vec!["a"])));
        assert_eq!(wheel.expire_next(), Some((30, vec!["c"])));
        assert_eq!(wheel.expire_next(), None);
    }

    #[test]
    fn wheel_far_future_cascades_down() {
        let mut wheel = TimerWheel::new();
        wheel.insert(1_000_000_000, "far");
        wheel.insert(5, "near");
        assert_eq!(wheel.expire_next(), Some((5, vec!["near"])));
        assert_eq!(wheel.expire_next(), Some((1_000_000_000, vec!["far"])));
        // 10^9 sits four levels up (64^4 ≈ 1.6·10^7 ≤ 10^9 < 64^5):
        // reaching it takes at least one cascade per level crossed.
        assert!(wheel.cascades() >= 3, "cascades: {}", wheel.cascades());
        assert_eq!(wheel.now(), 1_000_000_000);
    }

    #[test]
    fn wheel_clamps_past_deadlines_to_now() {
        let mut wheel = TimerWheel::new();
        wheel.insert(100, "late");
        assert_eq!(wheel.expire_next(), Some((100, vec!["late"])));
        wheel.insert(10, "stale");
        // Clamped to now=100, fires immediately, time never rewinds.
        assert_eq!(wheel.expire_next(), Some((100, vec!["stale"])));
        assert_eq!(wheel.now(), 100);
    }

    #[test]
    fn wheel_clear_reports_dropped() {
        let mut wheel = TimerWheel::new();
        wheel.insert(10, 1);
        wheel.insert(20, 2);
        let id = wheel.insert(30, 3);
        wheel.cancel(id);
        assert_eq!(wheel.clear(), 2);
        assert!(wheel.is_empty());
        assert_eq!(wheel.expire_next(), None);
    }

    #[test]
    fn wheel_same_slot_different_rotation_stays_parked() {
        let mut wheel = TimerWheel::new();
        // 69 parks at level 1 and later cascades into level-0 slot 5 —
        // the slot 5 itself occupied one rotation earlier. The cascade
        // must not disturb already-fired history, and each deadline
        // fires exactly once.
        wheel.insert(5, "near");
        wheel.insert(64 + 5, "far");
        assert_eq!(wheel.expire_next(), Some((5, vec!["near"])));
        assert_eq!(wheel.expire_next(), Some((69, vec!["far"])));
    }
}
