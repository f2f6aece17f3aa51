//! Hostile-network sweep: recovery vs planted truth, retry cost vs a
//! polite single-attempt baseline, and determinism under fire.
//!
//! A [`MiddleboxPlan`] (hostile preset) lays loss, flaky stacks,
//! tarpits, and rate-limiting firewalls over the bench world; the
//! scanner runs with [`RetryPolicy::hostile`]. Because the plan replays
//! the exact fate sequence a retrying scanner sees, the bench can
//! assert — not sample — that every recoverable swept host is
//! recovered and every write-off is classified to match its planted
//! fate, at every worker count, byte-identically.
//!
//! ```sh
//! BENCH_HOSTS=300 BENCH_UNIVERSE=20 BENCH_WORKERS=1,2,4,8 \
//!     cargo bench --bench hostile
//! ```
//!
//! Emits `BENCH_hostile.json`.

use std::sync::Arc;

use bench::{time, write_bench_json, BenchConfig, Json};
use netsim::{Blocklist, Internet};
use population::{FaultStratum, MiddleboxConfig, MiddleboxPlan, Population};
use scanner::{HostOutcome, RetryPolicy, ScanConfig, ScanRecord, ScanSummary, Scanner};

/// Order-sensitive digest over a record stream (same fold as the sweep
/// bench) — any reordering, dropped record, or changed payload shifts
/// it.
fn digest(records: &[ScanRecord], opcua_hosts: u64) -> String {
    format!(
        "{}/{}/{:x}",
        records.len(),
        opcua_hosts,
        records.iter().fold(0u64, |acc, r| acc
            .wrapping_mul(1_000_003)
            .wrapping_add(u64::from(r.address.0))
            .wrapping_add(r.rx_bytes))
    )
}

/// A fresh identically-seeded world with the hostile plan installed.
fn hostile_world(cfg: &BenchConfig) -> (Internet, Population, MiddleboxPlan) {
    let (net, population) = cfg.build_world();
    let plan = MiddleboxPlan::plan(&population, &MiddleboxConfig::hostile(), cfg.seed);
    net.set_profiles(Arc::new(plan.clone()));
    (net, population, plan)
}

fn scanner_with(net: Internet, workers: usize, retry: RetryPolicy) -> Scanner {
    let config = ScanConfig {
        workers,
        retry,
        ..ScanConfig::default()
    };
    Scanner::new(net, Blocklist::new(), config)
}

/// Checks the scan against the plan's replay over the *swept* planted
/// hosts (referral-only strata ride behind possibly-unrecoverable LDS
/// announcers, so their reachability is not the retry layer's claim).
/// Returns (recoverable, recovered, misclassified).
fn recovery_vs_truth(
    population: &Population,
    plan: &MiddleboxPlan,
    records: &[ScanRecord],
    budget: u32,
) -> (usize, usize, usize) {
    let by_addr: std::collections::BTreeMap<u32, HostOutcome> =
        records.iter().map(|r| (r.address.0, r.outcome)).collect();
    let mut recoverable = 0;
    let mut recovered = 0;
    let mut misclassified = 0;
    for host in population.hosts.iter().filter(|h| !h.class.referral_only()) {
        let outcome = by_addr.get(&host.address.0).copied();
        if plan.recoverable(host.address, budget) {
            recoverable += 1;
            if outcome == Some(HostOutcome::Ok) {
                recovered += 1;
            }
        } else {
            let want = match plan.terminal_fate(host.address, budget) {
                netsim::ConnectFate::Deliver => HostOutcome::Ok,
                netsim::ConnectFate::SynLost => HostOutcome::TimedOut,
                netsim::ConnectFate::Throttled { .. } => HostOutcome::Throttled,
                netsim::ConnectFate::Tarpit(_) => HostOutcome::Tarpitted,
            };
            if outcome != Some(want) {
                misclassified += 1;
            }
        }
    }
    (recoverable, recovered, misclassified)
}

fn faults_json(summary: &ScanSummary) -> Json {
    let f = summary.faults;
    Json::obj()
        .set("ok", Json::int(f.ok as i64))
        .set("unreachable", Json::int(f.unreachable as i64))
        .set("timed_out", Json::int(f.timed_out as i64))
        .set("throttled", Json::int(f.throttled as i64))
        .set("tarpitted", Json::int(f.tarpitted as i64))
        .set("retried_hosts", Json::int(f.retried_hosts as i64))
        .set("connect_attempts", Json::int(f.connect_attempts as i64))
        .set("backoff_micros", Json::int(f.backoff_micros as i64))
}

fn main() {
    let cfg = BenchConfig::from_env();
    let budget = RetryPolicy::hostile().max_attempts;
    println!(
        "hostile bench: {} hosts in {} addresses, workers {:?}, retry budget {budget}",
        cfg.hosts,
        cfg.universe_size(),
        cfg.worker_counts
    );

    // Hostile sweep at every worker count: byte-identical, and checked
    // against the planted truth each time.
    let mut runs = Vec::new();
    let mut baseline_digest: Option<String> = None;
    let mut hostile_seconds = f64::INFINITY;
    let mut hostile_summary: Option<ScanSummary> = None;
    let mut truth = (0usize, 0usize, 0usize);
    for &workers in &cfg.worker_counts {
        let (net, population, plan) = hostile_world(&cfg);
        let scanner = scanner_with(net, workers, RetryPolicy::hostile());
        let (seconds, (summary, records)) = time(|| scanner.scan_collect(&cfg.universe, cfg.seed));
        let run_digest = digest(&records, summary.opcua_hosts);
        match &baseline_digest {
            None => baseline_digest = Some(run_digest.clone()),
            Some(expected) => assert_eq!(
                expected, &run_digest,
                "hostile scan output diverged at workers={workers}"
            ),
        }
        truth = recovery_vs_truth(&population, &plan, &records, budget);
        let (recoverable, recovered, misclassified) = truth;
        assert_eq!(
            recovered, recoverable,
            "retry layer failed to recover every recoverable planted host"
        );
        assert_eq!(misclassified, 0, "write-offs misclassified vs planted fate");
        println!(
            "  workers={workers}: {seconds:.3}s, {} records, {}/{} recoverable recovered, \
             {} retried hosts, {:.1}s virtual backoff",
            records.len(),
            recovered,
            recoverable,
            summary.faults.retried_hosts,
            summary.faults.backoff_micros as f64 / 1e6,
        );
        hostile_seconds = hostile_seconds.min(seconds);
        hostile_summary = Some(summary);
        runs.push(
            Json::obj()
                .set("workers", Json::int(workers as i64))
                .set("seconds", Json::Num(seconds))
                .set("digest", Json::str(&run_digest)),
        );
    }
    // ua-lint: allow(panic-hygiene) -- BENCH_WORKERS always yields at least one run
    let hostile_summary = hostile_summary.expect("at least one worker count");
    let (recoverable, recovered, _) = truth;

    // Polite single-attempt baseline on the same hostile world: what a
    // pre-retry scanner would have reported, and what the retry layer
    // costs on top of it.
    let polite_workers = cfg.worker_counts.first().copied().unwrap_or(1);
    let (net, _, _) = hostile_world(&cfg);
    let scanner = scanner_with(net, polite_workers, RetryPolicy::default());
    let (polite_seconds, (polite_summary, _)) =
        time(|| scanner.scan_collect(&cfg.universe, cfg.seed));
    let undercount = hostile_summary.faults.ok - polite_summary.faults.ok;
    assert!(
        undercount > 0,
        "the hostile preset must make a single-attempt scanner undercount"
    );
    println!(
        "  polite baseline (workers={polite_workers}): {polite_seconds:.3}s, \
         {} ok vs {} with retries (+{undercount}), retry overhead {:.2}x wall",
        polite_summary.faults.ok,
        hostile_summary.faults.ok,
        hostile_seconds / polite_seconds,
    );

    // Planted strata, for the perf trail's context.
    let (_, _, plan) = hostile_world(&cfg);
    let mut strata = Json::obj();
    for stratum in FaultStratum::ALL {
        strata = strata.set(
            stratum.label(),
            Json::int(plan.stratum_count(stratum) as i64),
        );
    }

    let out = Json::obj()
        .set("bench", Json::str("hostile"))
        .set("hosts", Json::int(cfg.hosts as i64))
        .set("universe_addresses", Json::int(cfg.universe_size() as i64))
        .set("seed", Json::int(cfg.seed as i64))
        .set("retry_budget", Json::int(budget as i64))
        .set("deterministic_across_worker_counts", Json::Bool(true))
        .set("recoverable_swept_hosts", Json::int(recoverable as i64))
        .set("recovered_swept_hosts", Json::int(recovered as i64))
        .set(
            "recovery_rate",
            Json::Num(if recoverable == 0 {
                1.0
            } else {
                recovered as f64 / recoverable as f64
            }),
        )
        .set("planted_strata", strata)
        .set("faults", faults_json(&hostile_summary))
        .set(
            "polite_baseline",
            Json::obj()
                .set("ok", Json::int(polite_summary.faults.ok as i64))
                .set("undercount_fixed_by_retries", Json::int(undercount as i64))
                .set("seconds", Json::Num(polite_seconds)),
        )
        .set("hostile_seconds", Json::Num(hostile_seconds))
        .set(
            "retry_overhead_wall_ratio",
            Json::Num(hostile_seconds / polite_seconds),
        )
        .set("runs", Json::Arr(runs));
    let path = write_bench_json("hostile", &out);
    println!("wrote {}", path.display());
}
