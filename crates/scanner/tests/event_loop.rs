//! Scan-engine determinism: for a fixed seed, every worker count must
//! produce the 1-worker run's bytes — through `scan_with`, over shard
//! channels of capacity one, and across abort/resume cycles that may
//! change the worker count between legs.

use std::sync::Arc;

use netsim::{Blocklist, Cidr, Internet, VirtualClock};
use population::{synthesize, MiddleboxConfig, MiddleboxPlan, PopulationConfig, StrataMix};
use scanner::{
    CancelToken, CertStore, RetryPolicy, ScanConfig, ScanOutcome, ScanRecord, ScanSummary, Scanner,
    SweepCheckpoint, WeekOutcome,
};

const SEED: u64 = 20_200_209;

/// The two worlds every contract is checked on: polite, and fronted by
/// a seeded [`MiddleboxPlan`] (loss, tarpits, rate-limiting firewalls)
/// scanned with the hostile retry policy.
#[derive(Debug, Clone, Copy)]
enum World {
    Polite,
    Hostile,
}

/// A fresh, identically-seeded world per call: two scans over one
/// shared net would advance the same virtual clock twice. The hostile
/// world is larger: at 60 hosts its middleboxes silence every referred
/// server, and the referral phase under fire would emit no records.
fn build(world: World) -> (Internet, Vec<Cidr>, Blocklist) {
    let net = Internet::new(VirtualClock::default());
    let universe: Vec<Cidr> = ["10.40.0.0/22", "172.28.0.0/23"]
        .iter()
        .map(|s| s.parse().unwrap())
        .collect();
    let hosts = match world {
        World::Polite => 60,
        World::Hostile => 150,
    };
    let cfg = PopulationConfig::new(SEED, universe.clone(), StrataMix::paper_like(hosts));
    let pop = synthesize(&net, &cfg);
    if let World::Hostile = world {
        let plan = MiddleboxPlan::plan(&pop, &MiddleboxConfig::hostile(), SEED);
        net.set_profiles(Arc::new(plan));
    }
    let mut blocklist = Blocklist::new();
    blocklist.add_str("10.40.3.0/24").unwrap();
    (net, universe, blocklist)
}

fn config(world: World, workers: usize) -> ScanConfig {
    ScanConfig {
        workers,
        retry: match world {
            World::Polite => RetryPolicy::default(),
            World::Hostile => RetryPolicy::hostile(),
        },
        ..ScanConfig::default()
    }
}

fn scanner_with(world: World, workers: usize) -> (Scanner, Vec<Cidr>) {
    let (net, universe, blocklist) = build(world);
    let config = config(world, workers);
    (Scanner::new(net, blocklist, config), universe)
}

fn scan(world: World, workers: usize) -> (ScanSummary, Vec<ScanRecord>) {
    let (scanner, universe) = scanner_with(world, workers);
    let mut records = Vec::new();
    let summary = scanner.scan_with(&universe, SEED, |r| records.push(r));
    (summary, records)
}

/// Everything except the cert-interner counters must stitch exactly
/// across abort/resume legs that run more than one worker: there shards
/// probe ahead of the merge, and `sightings` counts work performed
/// (certificates captured by discarded probes are re-sighted on
/// re-probe), so it is telemetry, not part of the byte-identity
/// contract. Legs that all run one worker discard no probe, and their
/// summaries compare with `assert_eq!`.
fn assert_summary_matches_modulo_sightings(actual: &ScanSummary, expected: &ScanSummary) {
    assert_eq!(actual.sweep, expected.sweep);
    assert_eq!(actual.referrals, expected.referrals);
    assert_eq!(actual.opcua_hosts, expected.opcua_hosts);
    assert_eq!(actual.non_opcua_hosts, expected.non_opcua_hosts);
    assert_eq!(actual.started_unix, expected.started_unix);
    assert_eq!(actual.finished_unix, expected.finished_unix);
    assert_eq!(actual.certs.distinct, expected.certs.distinct);
    assert!(actual.certs.sightings >= expected.certs.sightings);
    assert_eq!(actual.faults, expected.faults);
}

#[test]
fn every_worker_count_matches_one_worker() {
    let (summary1, records1) = scan(World::Polite, 1);
    assert!(
        summary1.referrals.followed > 0,
        "world must exercise the referral phase, got {:?}",
        summary1.referrals
    );
    // 0 workers is treated as 1.
    for workers in [0usize, 1, 4, 8] {
        let (summary, records) = scan(World::Polite, workers);
        assert_eq!(summary, summary1, "workers={workers}");
        assert_eq!(records, records1, "workers={workers}");
    }
}

/// Backpressure must not deadlock even in the most constrained setup:
/// with 4 workers, shard channels of capacity 1 into the merge — and
/// the output order must still be exact.
#[test]
fn no_deadlock_at_capacity_one() {
    let (_, expected) = scan(World::Polite, 1);
    for workers in [1usize, 4] {
        let (net, universe, blocklist) = build(World::Polite);
        let config = ScanConfig {
            workers,
            channel_capacity: 1,
            ..ScanConfig::default()
        };
        let (_, records) = Scanner::new(net, blocklist, config).scan_collect(&universe, SEED);
        assert_eq!(records, expected, "workers={workers}");
    }
}

/// `CancelToken::after_records(n)` stops the sweep on exactly its
/// `n`-th record — not at the end of whatever run of completed records
/// happened to be ready — at every worker count.
#[test]
fn record_budget_stops_the_sweep_on_the_exact_record() {
    let universe: Vec<Cidr> = vec!["10.48.0.0/21".parse().unwrap()];
    let cfg = PopulationConfig::new(2020, universe.clone(), StrataMix::paper_like(80));
    let world = || {
        let net = Internet::new(VirtualClock::default());
        synthesize(&net, &cfg);
        net
    };
    let (_, expected) = Scanner::new(world(), Blocklist::new(), ScanConfig::default())
        .scan_collect(&universe, 2020);
    // Aborted scans never advance the clock, so they can share a world.
    let net = world();
    let sweep_records = expected.iter().filter(|r| !r.via.is_referral()).count();
    for n in [0usize, 1, 7] {
        assert!(n < sweep_records);
        for workers in [1usize, 4] {
            let config = ScanConfig {
                workers,
                ..ScanConfig::default()
            };
            let scanner = Scanner::new(net.clone(), Blocklist::new(), config);
            let mut emitted = Vec::new();
            let outcome = scanner.scan_resumable(
                &universe,
                2020,
                &CertStore::new(),
                None,
                &CancelToken::after_records(n as u64),
                |r| emitted.push(r),
            );
            let ScanOutcome::Aborted { checkpoint } = outcome else {
                panic!("budget {n} must abort the sweep (workers {workers})");
            };
            assert_eq!(emitted.len(), n, "budget {n} overshot at workers {workers}");
            assert_eq!(emitted[..], expected[..n]);
            assert!(!checkpoint.sweep_done);
            assert_eq!(checkpoint.next_step == 0, n == 0);
        }
    }
}

/// Runs a scan in legs over one world: every leg but the last aborts
/// after its record budget, each leg resuming the previous one's
/// checkpoint on a scanner with that leg's worker count. Returns the
/// stitched stream, the last leg's summary, and every checkpoint.
fn stitched(
    world: World,
    legs: &[(usize, Option<u64>)],
) -> (ScanSummary, Vec<ScanRecord>, Vec<SweepCheckpoint>) {
    let (net, universe, blocklist) = build(world);
    let certs = CertStore::new();
    let mut records: Vec<ScanRecord> = Vec::new();
    let mut checkpoints: Vec<SweepCheckpoint> = Vec::new();
    for (i, &(workers, budget)) in legs.iter().enumerate() {
        let scanner = Scanner::new(net.clone(), blocklist.clone(), config(world, workers));
        let token = budget.map_or_else(CancelToken::new, CancelToken::after_records);
        let resume = checkpoints.last().cloned();
        let before = records.len();
        match scanner.scan_resumable(&universe, SEED, &certs, resume, &token, |r| records.push(r)) {
            ScanOutcome::Aborted { checkpoint } => {
                assert!(budget.is_some(), "leg {i} aborted without a budget");
                // Records emitted before an abort are final, and the
                // checkpoint carries exactly their fault tallies and
                // host counts.
                let mut faults = scanner::FaultStats::default();
                for r in &records {
                    faults.observe(r);
                }
                assert_eq!(checkpoint.summary.faults, faults, "leg {i}");
                let speakers = records.iter().filter(|r| r.speaks()).count() as u64;
                assert_eq!(checkpoint.summary.opcua_hosts, speakers, "leg {i}");
                assert_eq!(
                    checkpoint.summary.non_opcua_hosts,
                    records.len() as u64 - speakers,
                    "leg {i}"
                );
                assert!(records.len() > before || checkpoint.sweep_done, "leg {i}");
                checkpoints.push(*checkpoint);
            }
            ScanOutcome::Complete { summary } => {
                assert_eq!(i, legs.len() - 1, "leg {i} completed early");
                return (summary, records, checkpoints);
            }
        }
    }
    panic!("the last leg must run to completion");
}

/// A checkpoint names a position in the merged stream, not a shard, so
/// an abort at one worker count resumes at another. At one worker an
/// abort discards no probe, so the whole summary stitches,
/// `certs.sightings` included.
#[test]
fn abort_resume_stitches_byte_identical() {
    let (expected_summary, expected) = scan(World::Polite, 1);
    assert!(expected.len() > 10, "need a meaningful record stream");

    // Abort mid-sweep at 4 workers, resume at 1, abort again in the tail
    // (nested aborts), resume to completion at 4; the concatenation must
    // be byte-identical.
    let half = expected.len() as u64 / 2;
    let rest = expected.len() as u64 - half - 1;
    let (summary, records, checkpoints) = stitched(
        World::Polite,
        &[(4, Some(half)), (1, Some(rest)), (4, None)],
    );
    assert!(!checkpoints[0].sweep_done, "abort should land mid-sweep");
    assert_eq!(checkpoints[0].seed, SEED);
    assert!(checkpoints[0].next_step > 0);
    assert_eq!(records, expected);
    assert_summary_matches_modulo_sightings(&summary, &expected_summary);

    // Every leg at one worker: after the first record, then mid-sweep.
    let (summary, records, _) =
        stitched(World::Polite, &[(1, Some(1)), (1, Some(half)), (1, None)]);
    assert_eq!(records, expected);
    assert_eq!(summary, expected_summary);
}

/// The contract under fire: with middleboxes injecting loss, tarpits
/// and rate limits, every worker count must still emit the 1-worker
/// bytes — and an abort in the sweep must stitch exactly, fault counters
/// included, whichever worker count resumes it.
#[test]
fn hostile_abort_resume_stitches_byte_identical() {
    let (expected_summary, expected) = scan(World::Hostile, 1);
    assert!(expected.len() > 10, "need a meaningful record stream");
    // The hostile plan must actually bite: every non-Ok outcome class
    // the retry layer distinguishes has to appear in the stream.
    let faults = expected_summary.faults;
    assert!(faults.throttled > 0, "no throttled hosts: {faults:?}");
    assert!(faults.tarpitted > 0, "no tarpitted hosts: {faults:?}");
    assert!(faults.timed_out > 0, "no timed-out hosts: {faults:?}");
    assert!(
        faults.retried_hosts > 0,
        "retries never engaged: {faults:?}"
    );
    assert!(faults.backoff_micros > 0);
    for workers in [1usize, 4] {
        let (summary, records) = scan(World::Hostile, workers);
        assert_eq!(summary, expected_summary, "workers={workers}");
        assert_eq!(records, expected, "workers={workers}");
    }

    let half = expected.len() as u64 / 2;
    for (first, second) in [(4usize, 1usize), (1, 4)] {
        let (summary, records, checkpoints) =
            stitched(World::Hostile, &[(first, Some(half)), (second, None)]);
        assert!(!checkpoints[0].sweep_done, "abort should land mid-sweep");
        assert_eq!(records, expected, "{first} → {second} workers");
        assert_summary_matches_modulo_sightings(&summary, &expected_summary);
    }
}

/// Referral levels are atomic, so an abort in the referral phase lands
/// between levels — and resumes exactly at any worker count, on both
/// worlds.
#[test]
fn abort_during_referral_phase_resumes_exactly() {
    for world in [World::Polite, World::Hostile] {
        let (expected_summary, expected) = scan(world, 1);
        let referral_records = expected.iter().filter(|r| r.via.is_referral()).count();
        assert!(
            referral_records > 0,
            "{world:?}: world must have referral hosts"
        );
        // Budget past the sweep so cancellation lands between referral
        // levels.
        let sweep_records = (expected.len() - referral_records) as u64;
        for (first, second) in [(1usize, 1usize), (4, 1), (1, 4)] {
            let (summary, records, checkpoints) =
                stitched(world, &[(first, Some(sweep_records + 1)), (second, None)]);
            assert!(
                checkpoints[0].sweep_done,
                "{world:?}: abort should land in the referral phase"
            );
            assert_eq!(records, expected, "{world:?}: {first} → {second} workers");
            assert_summary_matches_modulo_sightings(&summary, &expected_summary);
        }
    }
}

/// Satellite to the churn-agnostic-clock regression
/// (`week_epochs_strictly_advance`): an aborted week must consume *no*
/// campaign time — probes only ever advance their private fork clocks —
/// and the resumed week must be byte-identical to a never-aborted one,
/// summary included: at one worker the abort discards no probe.
#[test]
fn aborted_week_leaves_campaign_clock_untouched() {
    use scanner::Campaign;

    let uninterrupted = {
        let (scanner, universe) = scanner_with(World::Polite, 1);
        let mut campaign = Campaign::new(scanner);
        let w0 = campaign.run_week(&universe, SEED, |_| {});
        let w1 = campaign.run_week(&universe, SEED, |_| {});
        vec![w0, w1]
    };

    let (scanner, universe) = scanner_with(World::Polite, 1);
    let mut campaign = Campaign::new(scanner);
    let epoch_before = campaign.scanner().internet().clock().now_micros();

    let token = CancelToken::after_records(uninterrupted[0].records.len() as u64 / 2);
    let outcome = campaign.run_week_resumable(&universe, SEED, |_| {}, &token);
    let WeekOutcome::Aborted(checkpoint) = outcome else {
        panic!("budgeted token must abort the week");
    };
    // The abort consumed zero campaign time and did not finish a week.
    assert_eq!(
        campaign.scanner().internet().clock().now_micros(),
        epoch_before,
        "an aborted week must not advance the campaign clock"
    );
    assert_eq!(campaign.weeks_run(), 0);
    assert_eq!(checkpoint.week, 0);

    let outcome = campaign.resume_week(&universe, SEED, *checkpoint, &CancelToken::new());
    let WeekOutcome::Complete(week0) = outcome else {
        panic!("resume must complete the week");
    };
    assert_eq!(campaign.weeks_run(), 1);
    assert_eq!(week0.records, uninterrupted[0].records);
    assert_eq!(week0.summary, uninterrupted[0].summary);

    // The next week is entirely unaffected by the mid-week abort.
    let outcome = campaign.run_week_resumable(&universe, SEED, |_| {}, &CancelToken::new());
    let WeekOutcome::Complete(week1) = outcome else {
        panic!("uncancelled week must complete");
    };
    assert_eq!(week1.records, uninterrupted[1].records);
    assert_eq!(week1.summary, uninterrupted[1].summary);
}

/// A token cancelled before the scan starts aborts it before the first
/// probe, without emitting a record, at any worker count.
#[test]
fn cancelled_token_aborts_scan_before_any_record() {
    for workers in [1usize, 4] {
        let (scanner, universe) = scanner_with(World::Polite, workers);
        let token = CancelToken::new();
        token.cancel();
        let outcome =
            scanner.scan_resumable(&universe, SEED, &CertStore::new(), None, &token, |_| {
                panic!("a pre-cancelled scan must not emit records")
            });
        assert!(matches!(outcome, ScanOutcome::Aborted { .. }));
    }
}
