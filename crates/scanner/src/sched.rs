//! The scan engine: shards that each probe one target at a time, run
//! on worker threads, with cooperative cancellation.
//!
//! Every campaign runs here. A shard drives its part of one phase step
//! — the sweep, or one referral level — on one thread:
//!
//! * it draws one job, takes it through its suite's whole stage ladder,
//!   and emits that record before it draws the next, so records leave
//!   strictly in the order the jobs are drawn;
//! * every target is probed on a private [`VirtualClock`] fork of the
//!   campaign epoch, so record contents are a pure function of
//!   `(host, port, seed, epoch)` and never of probe order;
//! * a [`CancelToken`] stops the shard before it draws its next job, or
//!   at the very record whose emission cancels it, and no fork clock's
//!   time ever reaches the campaign clock.
//!
//! [`crate::ScanConfig::workers`] sets how many shards share a step:
//! with one worker the shard runs inline on the caller's thread; with
//! N, N shards run on N threads — shard `s` takes the walk steps
//! `pos % N == s` (each referral level's targets `i % N == s`) — and an
//! N-way merge joins their streams back into walk order. The record
//! stream, the summary, and every [`SweepCheckpoint`] are therefore
//! identical at any worker count.

use crate::pipeline::ScanSummary;
use crate::probe::{Probe, ProbeContext, ProbeOutcome, ScanConfig};
use crate::record::{DiscoveredVia, ScanRecord};
use crate::suite::ProtocolSuite;
use netsim::{Internet, Ipv4, VirtualClock};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::sync::{mpsc, Arc};
use ua_crypto::CertStore;

// ---------------------------------------------------------------------------
// Cancellation
// ---------------------------------------------------------------------------

/// A cooperative cancellation flag shared between a scan driver and
/// whoever wants to abort it.
///
/// Clones share the flag (the token is a handle, not the state). The
/// scan engine polls [`is_cancelled`] at safe points — before every
/// probe during the sweep, and at referral-level boundaries — so
/// cancellation is prompt but never tears a probe in a way the
/// checkpoint could not describe.
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
    /// sweep stops right after its `n`-th record, at any worker count,
    /// which is what lets CI abort a sweep at ~50% and diff the stitched
    /// abort+resume output byte-for-byte against an uninterrupted run.
    /// (Referral levels are atomic: a budget that runs out inside one
    /// lands at the level's end.) A zero budget starts cancelled, so the
    /// scan aborts before admitting anything.
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
}

impl Default for CancelToken {
    fn default() -> Self {
        Self::new()
    }
}

// ---------------------------------------------------------------------------
// Checkpoints
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
/// on; whatever was probed ahead at the abort is re-probed from
/// scratch. Because record contents are a pure function of
/// `(host, port, seed, epoch)`, the stitched stream
/// `aborted-run records ++ resumed-run records` is byte-identical to an
/// uninterrupted run — and since nothing in the checkpoint names a
/// shard, it resumes at any [`crate::ScanConfig::workers`] count.
/// Referral levels are atomic: an abort in the referral phase lands
/// between levels.
///
/// One deliberate exception, for runs with more than one worker: there
/// the shards probe ahead of the merge into their bounded channels, and
/// an abort discards those results. The campaign-wide certificate
/// interner ([`ua_crypto::CertStore`]) counts *work performed*, so
/// certificates captured by discarded probes are sighted again on
/// re-probe, and `certs.sightings` in the final summary is telemetry,
/// not part of the byte-identity contract; every other summary field
/// (sweep stats, referral stats, host counts, timestamps) stitches
/// exactly. A one-worker shard probes nothing beyond the record it
/// emits, so an abort discards no probe and the whole summary,
/// `certs.sightings` included, stitches when every leg runs at one
/// worker.
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
    /// Index (into [`crate::probe::ScanConfig::suites`], in port order)
    /// of the suite phase the abort landed in; earlier phases are
    /// complete and resume skips them entirely.
    pub suite_cursor: usize,
    /// True when the current phase's sweep finished and only its
    /// referral levels remain.
    pub sweep_done: bool,
    /// The permutation-walk step after the last emitted sweep record of
    /// the current phase (0 when none was emitted). Resume admits only
    /// steps from here on.
    pub next_step: u64,
    /// Per-host probe time (µs) of *emitted* records only — discarded
    /// probes never charge the campaign clock.
    pub probe_micros: u64,
    /// Referral URLs harvested from emitted records, not yet followed.
    pub frontier: Vec<PendingUrl>,
    /// `(address, port)` pairs the current phase already probed via
    /// referral.
    pub probed_referrals: BTreeSet<(Ipv4, u16)>,
}

// ---------------------------------------------------------------------------
// The shards
// ---------------------------------------------------------------------------

/// One unit of admission: a target the walk classified as listening
/// (or a dead referral target that still owes a connect-time charge).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Job {
    /// Emission key: walk step for sweep jobs, level index for
    /// referral jobs. Strictly increasing within one shard, and unique
    /// across the shards of one run.
    pub ordinal: u64,
    pub addr: Ipv4,
    pub port: u16,
    pub via: DiscoveredVia,
    pub seed: u64,
    /// False for referral targets with no listener: resolved with a
    /// single timed connect.
    pub listening: bool,
}

/// What one run of a phase step — the sweep or one referral level —
/// left behind.
pub(crate) struct ShardRun<J> {
    /// Every job of every shard was emitted.
    pub complete: bool,
    /// Each shard's job iterator after the run, in shard order (the
    /// sweep's carry the shard's counters).
    pub jobs: Vec<J>,
}

/// One result leaving a shard: ordinal, record (`None` for a dead
/// referral target), and the virtual probe microseconds it consumed.
type Emitted = (u64, Option<ScanRecord>, u64);

/// Everything the shards of one suite phase share.
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
    /// Runs one phase step on `shards` shards, shard `s` probing the
    /// jobs `jobs(s)` yields, and hands every result to `emit` strictly
    /// in ordinal order. `emit` returns false to stop the step; when
    /// `cancel` is `Some`, the shards also poll it before every probe.
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
            let complete = self.run_shard(&mut shard_jobs, cancel, emit);
            return ShardRun {
                complete,
                jobs: vec![shard_jobs],
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
                    // A closed channel means the merge stopped.
                    let complete =
                        env.run_shard(&mut shard_jobs, cancel, &mut |ordinal, record, micros| {
                            tx.send((ordinal, record, micros)).is_ok()
                        });
                    (complete, shard_jobs)
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
            };
            for handle in handles {
                // ua-lint: allow(panic-hygiene) -- re-raise a worker panic on the merging thread
                let (complete, shard_jobs) = handle.join().expect("scan shard panicked");
                out.complete &= complete;
                out.jobs.push(shard_jobs);
            }
            out
        })
    }

    /// Drives one shard: draws a job from `jobs`, probes it to
    /// completion and calls `emit(ordinal, record, probe_micros)` before
    /// it draws the next, so records leave in the order the jobs came.
    /// Returns false when it stopped early: at the first `emit` that
    /// returns false, or before drawing a job when `cancel` is set.
    fn run_shard(
        &self,
        jobs: &mut dyn Iterator<Item = Job>,
        cancel: Option<&CancelToken>,
        emit: &mut dyn FnMut(u64, Option<ScanRecord>, u64) -> bool,
    ) -> bool {
        let mut stack = self.suite.stack();
        loop {
            if cancel.is_some_and(CancelToken::is_cancelled) {
                return false;
            }
            let Some(job) = jobs.next() else {
                return true;
            };
            let (record, micros) = self.probe(&mut stack, job);
            if !emit(job.ordinal, record, micros) {
                return false;
            }
        }
    }

    /// Probes one target through `stack` on a private fork of the
    /// campaign epoch. Returns its record (`None` for a dead referral
    /// target) and the virtual µs the fork consumed. The fork dies here:
    /// the campaign clock sees the probe only through those µs, which the
    /// pipeline adds once the scan completes — the invariant
    /// `week_epochs_strictly_advance` relies on.
    fn probe(&self, stack: &mut [Box<dyn Probe>], job: Job) -> (Option<ScanRecord>, u64) {
        let clock = self.epoch.fork();
        let start = clock.now_micros();
        let net = self.internet.with_clock(clock.clone());
        if !job.listening {
            // Dead referral target: charge exactly what the failed
            // connect costs under the simulator's TCP model — one RTT
            // for a refused port on a live host, a full SYN timeout when
            // no host answers.
            let _ = net.connect(self.config.scanner_address, job.addr, job.port);
            return (None, clock.now_micros().saturating_sub(start));
        }
        let mut record = ScanRecord::for_target(
            job.addr,
            job.port,
            job.via,
            net.as_number(job.addr),
            clock.now_unix_seconds(),
        );
        record.payload = self.suite.payload();
        let mut ctx =
            ProbeContext::for_target(&net, self.config, self.certs, job.addr, job.port, job.seed);
        for stage in stack.iter_mut() {
            if stage.run(&mut ctx, &mut record) == ProbeOutcome::Stop {
                break;
            }
        }
        let elapsed = clock.now_micros().saturating_sub(start);
        // Added, not assigned: side-connection stages (vendor
        // fingerprinting) fold their traffic in via
        // `ScanRecord::account` as they run.
        if let Some(client) = &ctx.client {
            record.requests += client.requests_sent();
            let stats = client.stats();
            record.tx_bytes += stats.tx_bytes;
            record.rx_bytes += stats.rx_bytes;
        }
        (Some(record), elapsed)
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
}
