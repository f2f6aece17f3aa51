//! Longitudinal campaign driver: N weekly sweeps over an evolving
//! universe, on one strictly advancing clock and one shared
//! certificate interner.
//!
//! The paper's core contribution is *longitudinal*: weekly
//! internet-wide campaigns over seven months expose IP churn,
//! certificate turnover, and (non-)patching behavior (§4, §6). A
//! [`Campaign`] replays that cadence against the simulated Internet:
//!
//! * **Week epochs are pinned.** Before each weekly sweep the shared
//!   [`netsim::VirtualClock`] is advanced to `start + week ×
//!   week_seconds`. The clock only ever moves forward
//!   ([`netsim::VirtualClock::advance_to_micros`]), so every fork taken
//!   in week *k+1* strictly follows everything week *k* produced —
//!   campaigns can never collapse to zero width, no matter how little
//!   virtual time a sweep consumes.
//! * **Evolution runs between campaigns.** [`Campaign::run_week`] hands
//!   the week index to a caller closure after the jump and before the
//!   sweep; `population::evolution` plugs in there, so churned hosts
//!   are live before the first SYN of the new week.
//! * **Certificates intern once per study.** All weekly sweeps share
//!   one [`CertStore`]: a certificate that survives the week — the
//!   common case, and the identity anchor of the cross-week host
//!   matching — is parsed, thumbprinted, and verified exactly once for
//!   the whole study. `summary.certs` therefore reports *cumulative*
//!   counters; the hit rate climbs week over week.
//!
//! Determinism: each week scans with a seed derived from `(campaign
//! seed, week)`, population evolution is a pure function of `(seed,
//! week)`, and the per-week epoch jump lands on the same instant
//! regardless of how long the previous sweep took — so a full
//! multi-campaign run is byte-identical per seed at any
//! [`crate::ScanConfig::workers`] count.

use crate::pipeline::{ScanOutcome, ScanSummary, Scanner};
use crate::record::ScanRecord;
use crate::sched::{CancelToken, SweepCheckpoint};
use netsim::Cidr;
use ua_crypto::{CertStore, CertStoreStats};

/// Cadence configuration of a longitudinal campaign.
#[derive(Debug, Clone, Copy)]
pub struct CampaignConfig {
    /// Virtual seconds between weekly campaign epochs. Defaults to one
    /// week; every campaign must finish within it.
    pub week_seconds: u64,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            week_seconds: 7 * 86_400,
        }
    }
}

/// One weekly campaign's output.
#[derive(Debug, Clone)]
pub struct WeeklyScan {
    /// Week index, starting at 0.
    pub week: u32,
    /// Campaign accounting (note: `summary.certs` counts cumulatively
    /// across the whole study — the interner is shared).
    pub summary: ScanSummary,
    /// The week's records, in discovery order.
    pub records: Vec<ScanRecord>,
}

/// How a resumable weekly campaign ended.
// The size gap vs the boxed checkpoint is fine: the outcome is
// destructured immediately by the caller, never stored in bulk.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum WeekOutcome {
    /// The week's sweep ran to completion.
    Complete(WeeklyScan),
    /// Cancellation was observed mid-week; pass the checkpoint to
    /// [`Campaign::resume_week`] to finish the week. The shared
    /// campaign clock is untouched — an aborted week consumed no
    /// campaign time.
    Aborted(Box<WeekCheckpoint>),
}

/// A week frozen mid-sweep: the records emitted so far plus the scan
/// engine's [`SweepCheckpoint`]. Resuming prepends the partial records,
/// so a stitched [`WeeklyScan`] is byte-identical to an uninterrupted
/// one (modulo the cert-interner `sightings` telemetry — see
/// [`SweepCheckpoint`]).
#[derive(Debug)]
pub struct WeekCheckpoint {
    /// Week index the abort landed in.
    pub week: u32,
    /// Records emitted before the abort, in discovery order.
    pub records: Vec<ScanRecord>,
    /// The scan engine's resume point.
    pub sweep: SweepCheckpoint,
}

/// Drives weekly campaigns against one (evolving) universe.
pub struct Campaign {
    scanner: Scanner,
    config: CampaignConfig,
    certs: CertStore,
    epoch_micros: u64,
    weeks_run: u32,
}

impl Campaign {
    /// A campaign driver with the default weekly cadence. The current
    /// virtual time becomes week 0's epoch.
    pub fn new(scanner: Scanner) -> Self {
        Self::with_config(scanner, CampaignConfig::default())
    }

    /// A campaign driver with an explicit cadence.
    pub fn with_config(scanner: Scanner, config: CampaignConfig) -> Self {
        let epoch_micros = scanner.internet().clock().now_micros();
        Campaign {
            scanner,
            config,
            certs: CertStore::new(),
            epoch_micros,
            weeks_run: 0,
        }
    }

    /// The underlying scanner.
    pub fn scanner(&self) -> &Scanner {
        &self.scanner
    }

    /// Weekly campaigns completed so far.
    pub fn weeks_run(&self) -> u32 {
        self.weeks_run
    }

    /// Cumulative certificate-interning counters across all weeks.
    pub fn cert_stats(&self) -> CertStoreStats {
        self.certs.stats()
    }

    /// Runs the next weekly campaign: pins the clock to the week's
    /// epoch, calls `evolve` with the week index (0 for the initial
    /// campaign — evolution conventionally skips it), then sweeps
    /// `universe` with a week-derived seed. This is
    /// [`Self::run_week_resumable`] with a token that never fires.
    ///
    /// Panics if the previous campaign overran the week — a study whose
    /// sweeps are slower than its cadence has no well-defined weekly
    /// series.
    pub fn run_week<F>(&mut self, universe: &[Cidr], seed: u64, evolve: F) -> WeeklyScan
    where
        F: FnOnce(u32),
    {
        match self.run_week_resumable(universe, seed, evolve, &CancelToken::new()) {
            WeekOutcome::Complete(scan) => scan,
            WeekOutcome::Aborted(_) => unreachable!("week with a fresh CancelToken cannot abort"),
        }
    }

    /// [`Self::run_week`] with a cancellation hook: the week can be
    /// aborted at any record boundary and finished later with
    /// [`Self::resume_week`].
    ///
    /// An abort happens *after* both the epoch jump and `evolve`, so the
    /// world is already in its week-`k` state and must not be evolved
    /// again on resume. `weeks_run` only advances when the week
    /// completes.
    pub fn run_week_resumable<F>(
        &mut self,
        universe: &[Cidr],
        seed: u64,
        evolve: F,
        cancel: &CancelToken,
    ) -> WeekOutcome
    where
        F: FnOnce(u32),
    {
        let week = self.weeks_run;
        let target = self.epoch_micros + u64::from(week) * self.config.week_seconds * 1_000_000;
        let clock = self.scanner.internet().clock();
        assert!(
            week == 0 || clock.now_micros() < target,
            "week {week} campaign would start late: the previous sweep overran the \
             {}s cadence",
            self.config.week_seconds
        );
        clock.advance_to_micros(target);
        evolve(week);
        self.finish_week(universe, seed, Vec::new(), None, cancel)
    }

    /// Continues a week aborted by [`Self::run_week_resumable`] (or a
    /// previous `resume_week` — aborts can nest). `seed` is the same
    /// campaign seed the week was started with. Does *not* re-evolve
    /// the universe and does not re-pin the epoch: the checkpoint
    /// carries the exact epoch instant, and the shared clock has not
    /// moved since the abort.
    pub fn resume_week(
        &mut self,
        universe: &[Cidr],
        seed: u64,
        checkpoint: WeekCheckpoint,
        cancel: &CancelToken,
    ) -> WeekOutcome {
        assert_eq!(
            checkpoint.week, self.weeks_run,
            "checkpoint is for week {} but the campaign is at week {}",
            checkpoint.week, self.weeks_run
        );
        self.finish_week(
            universe,
            seed,
            checkpoint.records,
            Some(checkpoint.sweep),
            cancel,
        )
    }

    /// Shared tail of both paths: runs (or continues) the current
    /// week's scan, stitching `records` in front of whatever it emits.
    fn finish_week(
        &mut self,
        universe: &[Cidr],
        seed: u64,
        mut records: Vec<ScanRecord>,
        resume: Option<SweepCheckpoint>,
        cancel: &CancelToken,
    ) -> WeekOutcome {
        let week = self.weeks_run;
        // A fresh permutation per week (the paper re-randomized each
        // campaign), still a pure function of (seed, week).
        let week_seed = seed ^ u64::from(week).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let outcome =
            self.scanner
                .scan_resumable(universe, week_seed, &self.certs, resume, cancel, |r| {
                    records.push(r)
                });
        match outcome {
            ScanOutcome::Complete { summary } => {
                self.weeks_run += 1;
                WeekOutcome::Complete(WeeklyScan {
                    week,
                    summary,
                    records,
                })
            }
            ScanOutcome::Aborted { checkpoint } => WeekOutcome::Aborted(Box::new(WeekCheckpoint {
                week,
                records,
                sweep: *checkpoint,
            })),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probe::ScanConfig;
    use netsim::{Blocklist, Internet, Ipv4, VirtualClock};
    use std::sync::Arc;
    use ua_addrspace::SpaceBuilder;
    use ua_server::{ServerConfig, ServerCore, UaServerService};

    fn tiny_world(addrs: &[Ipv4]) -> Internet {
        let net = Internet::new(VirtualClock::starting_at(1_581_206_400));
        for (i, &addr) in addrs.iter().enumerate() {
            let url = format!("opc.tcp://{addr}:4840/");
            let core = ServerCore::new(
                ServerConfig::wide_open(format!("urn:test:{i}"), url),
                SpaceBuilder::new(&["urn:test"], "1.0.0").finish(),
                i as u64,
            );
            net.add_host(addr, 10_000);
            net.bind(addr, 4840, Arc::new(UaServerService::new(core, 5)));
        }
        net
    }

    fn campaign(net: Internet, workers: usize) -> Campaign {
        let config = ScanConfig {
            workers,
            ..ScanConfig::default()
        };
        Campaign::new(Scanner::new(net, Blocklist::new(), config))
    }

    /// Regression test for the churn-agnostic clock: weekly epochs must
    /// strictly advance, so week k+1 timestamps always follow week k —
    /// no zero-width campaigns even though a tiny sweep consumes far
    /// less than a week of virtual time.
    #[test]
    fn week_epochs_strictly_advance() {
        let addrs = [Ipv4::new(10, 60, 0, 1), Ipv4::new(10, 60, 0, 2)];
        let universe: Cidr = "10.60.0.0/27".parse().unwrap();
        let mut c = campaign(tiny_world(&addrs), 1);
        let start = c.scanner().internet().clock().now_unix_seconds();
        let mut prev: Option<ScanSummary> = None;
        for week in 0..4 {
            let scan = c.run_week(&[universe], 42, |_| {});
            assert_eq!(scan.week, week);
            // The campaign starts exactly on its weekly epoch…
            assert_eq!(
                scan.summary.started_unix,
                start + i64::from(week) * 7 * 86_400,
            );
            // …and campaigns have width: probing takes virtual time.
            assert!(scan.summary.finished_unix > scan.summary.started_unix);
            if let Some(p) = prev {
                // Week k+1 strictly follows week k, fork epochs included
                // (discovered_unix comes from forks of the new epoch).
                assert!(scan.summary.started_unix > p.finished_unix);
                for r in &scan.records {
                    assert!(r.discovered_unix > p.finished_unix);
                }
            }
            prev = Some(scan.summary);
        }
        assert_eq!(c.weeks_run(), 4);
    }

    #[test]
    fn weekly_outputs_identical_across_worker_counts() {
        let addrs = [
            Ipv4::new(10, 61, 0, 3),
            Ipv4::new(10, 61, 0, 40),
            Ipv4::new(10, 61, 0, 200),
        ];
        let universe: Cidr = "10.61.0.0/24".parse().unwrap();
        let run = |workers: usize| {
            let mut c = campaign(tiny_world(&addrs), workers);
            (0..3)
                .map(|_| c.run_week(&[universe], 7, |_| {}))
                .collect::<Vec<_>>()
        };
        let one = run(1);
        let four = run(4);
        for (a, b) in one.iter().zip(&four) {
            assert_eq!(a.summary, b.summary);
            assert_eq!(a.records, b.records);
        }
    }

    #[test]
    fn cert_store_is_shared_across_weeks() {
        // wide-open servers serve no certificates; this asserts the
        // cumulative-counter plumbing rather than hit rates.
        let addrs = [Ipv4::new(10, 62, 0, 1)];
        let universe: Cidr = "10.62.0.0/28".parse().unwrap();
        let mut c = campaign(tiny_world(&addrs), 1);
        let w0 = c.run_week(&[universe], 1, |_| {});
        let w1 = c.run_week(&[universe], 1, |_| {});
        assert_eq!(w0.summary.certs, c.cert_stats());
        assert_eq!(w1.summary.certs, c.cert_stats());
        // Evolve callback sees the right week.
        let mut seen = Vec::new();
        c.run_week(&[universe], 1, |w| seen.push(w));
        assert_eq!(seen, vec![2]);
    }

    #[test]
    #[should_panic(expected = "overran")]
    fn overrunning_the_cadence_panics() {
        let addrs = [Ipv4::new(10, 63, 0, 1)];
        let universe: Cidr = "10.63.0.0/28".parse().unwrap();
        let mut c = Campaign::with_config(
            campaign(tiny_world(&addrs), 1).scanner.clone(),
            CampaignConfig { week_seconds: 1 },
        );
        c.run_week(&[universe], 1, |_| {});
        // The sweep consumed more than a second of virtual time; a
        // 1-second cadence cannot hold.
        c.run_week(&[universe], 1, |_| {});
    }
}
