//! The scan engine: per-host probe state machines multiplexed over a
//! timer heap, sharded across worker threads, with cooperative
//! cancellation and bounded-window backpressure.
//!
//! Every campaign runs here. An event loop drives one shard of one
//! phase step — the sweep, or one referral level — on one thread:
//!
//! * every admitted target gets a private [`VirtualClock`] fork of the
//!   campaign epoch, so record contents are a pure function of
//!   `(host, port, seed, epoch)` and never of probe order;
//! * a target's first stage is armed at admission, at the minimum
//!   delay: nothing about its connect is predicted, because the stage
//!   pays the connect's cost on its own fork;
//! * later stage transitions are timers on a min-heap keyed by the
//!   virtual time each stage consumed on its fork, so firing order is
//!   the order a real event loop would observe completions; timers
//!   sharing a deadline fire as one batch in arming order;
//! * admitted targets wait in an admission-ordered window, and records
//!   leave from its front, so they leave strictly in admission order;
//!   admission stalls once [`crate::ScanConfig::max_in_flight`] targets
//!   are in the window — the backpressure against a slow record sink;
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

use crate::pipeline::ScanSummary;
use crate::probe::{Probe, ProbeContext, ProbeOutcome, ScanConfig};
use crate::record::{DiscoveredVia, ScanRecord};
use crate::suite::ProtocolSuite;
use netsim::{Internet, Ipv4, TcpStreamSim, VirtualClock};
use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap, VecDeque};
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
    /// runs out inside one lands at the level's end.) A zero budget
    /// starts cancelled, so the scan aborts before admitting anything.
    pub fn after_records(n: u64) -> Self {
        CancelToken {
            cancelled: Arc::new(AtomicBool::new(n == 0)),
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
// Timers
// ---------------------------------------------------------------------------

/// One event loop's timers: a min-heap on `(deadline, arming sequence,
/// slot)` at 1 µs tick granularity. A loop holds at most one timer per
/// in-flight probe, so the heap stays [`crate::ScanConfig::max_in_flight`]
/// entries deep. The guarantees the scan engine builds on:
///
/// * timers fire in non-decreasing deadline order, and time only moves
///   when a batch fires;
/// * every timer sharing the earliest deadline fires in one batch, in
///   arming order.
#[derive(Debug, Default)]
struct Timers {
    heap: BinaryHeap<Reverse<(u64, u64, usize)>>,
    /// Deadline of the last batch fired (µs on the loop's timeline).
    now: u64,
    armed: u64,
}

impl Timers {
    /// Arms a timer for `slot`, `delay` µs after the last firing (at
    /// least 1 µs after it).
    fn arm(&mut self, delay: u64, slot: usize) {
        self.heap
            .push(Reverse((self.now + delay.max(1), self.armed, slot)));
        self.armed += 1;
    }

    /// Fires the earliest deadline: moves `now` to it and returns every
    /// slot armed for it, in arming order. `None` when nothing is armed.
    fn fire(&mut self) -> Option<Vec<usize>> {
        let Reverse((deadline, _, slot)) = self.heap.pop()?;
        self.now = deadline;
        let mut batch = vec![slot];
        while let Some(&Reverse((next, _, slot))) = self.heap.peek() {
            if next != deadline {
                break;
            }
            self.heap.pop();
            batch.push(slot);
        }
        Some(batch)
    }

    /// Drops every armed timer, returning how many were dropped.
    fn clear(&mut self) -> usize {
        let dropped = self.heap.len();
        self.heap.clear();
        dropped
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
    /// The campaign summary over the records emitted so far:
    /// `started_unix`, host and fault counts, referral counters, and the
    /// sweep counters of every phase whose sweep completed (a phase
    /// aborted mid-sweep is recounted from scratch on resume).
    /// Completion fills in `certs` and `finished_unix`.
    pub summary: ScanSummary,
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
    /// Per-host probe time (µs) of *emitted* records only — discarded
    /// in-flight probes never charge the campaign clock.
    pub probe_micros: u64,
    /// Referral URLs harvested from emitted records, not yet followed.
    pub frontier: Vec<PendingUrl>,
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
    /// Timers armed, one per scheduled probe stage.
    pub timers_scheduled: u64,
    /// Timers that fired.
    pub timers_fired: u64,
    /// Timers still armed when a loop aborted, dropped unfired.
    pub timers_cancelled: u64,
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
                engine: engine.stats,
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
                    (run, shard_jobs, engine.stats)
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
    /// Admission index within the loop: the probe's place in the window.
    index: u64,
    addr: Ipv4,
    port: u16,
    seed: u64,
    clock: VirtualClock,
    start_micros: u64,
    net: Internet,
    record: ScanRecord,
    client: Option<UaClient<TcpStreamSim>>,
    stage: usize,
    /// Fork-elapsed µs already reflected in timer scheduling.
    charged: u64,
}

/// The single-threaded scan engine: drives one shard of one phase step
/// (see [`PhaseEnv::run_shards`]).
struct EventLoop<'a> {
    env: PhaseEnv<'a>,
    stack: Vec<Box<dyn Probe>>,
    timers: Timers,
    slots: Vec<Option<InFlight>>,
    free: Vec<usize>,
    /// Admitted, unemitted targets in admission order: `None` until the
    /// target's result is in. Records leave from the front only.
    window: VecDeque<Option<Emitted>>,
    /// Results emitted so far: the admission index of the window's front.
    emitted: u64,
    stats: EngineStats,
    cap: usize,
}

impl<'a> EventLoop<'a> {
    fn new(env: PhaseEnv<'a>) -> Self {
        EventLoop {
            stack: env.suite.stack(),
            timers: Timers::default(),
            slots: Vec::new(),
            free: Vec::new(),
            window: VecDeque::new(),
            emitted: 0,
            stats: EngineStats::default(),
            cap: env.config.effective_max_in_flight(),
            env,
        }
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
            while !exhausted && self.window.len() < self.cap {
                match jobs.next() {
                    Some(job) => self.admit(job),
                    None => exhausted = true,
                }
            }
            if !self.flush(emit) {
                self.abort();
                return EngineRun::Cancelled;
            }
            if exhausted && self.window.is_empty() {
                return EngineRun::Complete;
            }
            if let Some(batch) = self.timers.fire() {
                self.stats.timers_fired += batch.len() as u64;
                for slot in batch {
                    self.run_stage(slot);
                }
            } else {
                // No timers armed: the window's front is resolved (the
                // next flush drains it) or admission still has input.
                debug_assert!(
                    !exhausted || self.window.front().is_none_or(Option::is_some),
                    "event loop stalled with no timers and no ready frontier"
                );
            }
        }
    }

    /// Drops everything in flight. The fork clocks die with their
    /// probes, so none of their virtual time ever reaches the campaign
    /// clock — the invariant `week_epochs_strictly_advance` relies on.
    fn abort(&mut self) {
        self.window.clear();
        self.stats.timers_cancelled += self.timers.clear() as u64;
        self.slots.clear();
        self.free.clear();
    }

    /// Admits `job` at the window's back. A dead referral target is
    /// resolved on the spot; a listening one becomes a flight whose
    /// first stage is armed now, at the minimum delay.
    fn admit(&mut self, job: Job) {
        let index = self.stats.admitted;
        self.stats.admitted += 1;
        self.window.push_back(None);
        self.stats.in_flight_high_water = self.stats.in_flight_high_water.max(self.window.len());
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
            self.finish(index, (job.ordinal, None, elapsed));
            return;
        }

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
            index,
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
        // The first stage is armed at the minimum delay: nothing is
        // predicted, because that stage's fork clock pays the connect's
        // RTT, timeout or fault cost, and the next timer is delayed by it.
        self.timers.arm(0, slot);
        self.stats.timers_scheduled += 1;
    }

    /// Runs one probe stage for the flight in `slot`, then either arms
    /// the next stage's timer (delayed by the virtual time this stage
    /// consumed on the flight's fork) or puts the finished record in its
    /// window slot.
    fn run_stage(&mut self, slot: usize) {
        let Some(mut flight) = self.slots[slot].take() else {
            return;
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
            self.finish(flight.index, (flight.ordinal, Some(flight.record), elapsed));
            self.free.push(slot);
        } else {
            let delta = elapsed.saturating_sub(flight.charged);
            flight.charged = elapsed;
            self.slots[slot] = Some(flight);
            self.timers.arm(delta, slot);
            self.stats.timers_scheduled += 1;
        }
    }

    /// Files the result of the target admitted `index`-th into its
    /// window slot.
    fn finish(&mut self, index: u64, result: Emitted) {
        self.stats.completed += 1;
        self.window[(index - self.emitted) as usize] = Some(result);
    }

    /// Emits the window's resolved front: records leave strictly in
    /// admission order, which is the permutation-walk order — the whole
    /// byte-identity argument in one loop. Returns false as soon as
    /// `emit` does, leaving the later results unemitted.
    fn flush(&mut self, emit: &mut dyn FnMut(u64, Option<ScanRecord>, u64) -> bool) -> bool {
        while let Some((ordinal, record, micros)) = self.window.front_mut().and_then(Option::take) {
            self.window.pop_front();
            self.emitted += 1;
            if !emit(ordinal, record, micros) {
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
    fn timers_fire_by_deadline_then_arming_order() {
        let mut timers = Timers::default();
        timers.arm(50, 0);
        timers.arm(10, 1);
        timers.arm(30, 2);
        timers.arm(10, 3);
        // A zero delay still waits the one-µs minimum.
        timers.arm(0, 4);
        assert_eq!(timers.fire(), Some(vec![4]));
        assert_eq!(timers.now, 1);
        // Same deadline: one batch, in arming order.
        assert_eq!(timers.fire(), Some(vec![1, 3]));
        assert_eq!(timers.now, 10);
        // Arming is relative to the last firing: 10 + 20 ties with 30,
        // and fires after the timer armed earlier.
        timers.arm(20, 5);
        assert_eq!(timers.fire(), Some(vec![2, 5]));
        assert_eq!(timers.fire(), Some(vec![0]));
        assert_eq!(timers.now, 50);
        assert_eq!(timers.fire(), None);
        assert_eq!(timers.now, 50);
    }

    #[test]
    fn timers_clear_reports_dropped() {
        let mut timers = Timers::default();
        timers.arm(10, 0);
        timers.arm(20, 1);
        timers.arm(20, 2);
        assert_eq!(timers.fire(), Some(vec![0]));
        assert_eq!(timers.clear(), 2);
        assert_eq!(timers.clear(), 0);
        assert_eq!(timers.fire(), None);
    }
}
