//! Sweep a hostile Internet — lossy paths, flaky stacks, tarpits, and
//! rate-limiting firewalls — and prove the retry layer's story against
//! planted ground truth.
//!
//! [`MiddleboxPlan`] lays a deterministic fault profile over every
//! synthesized host (drawn from the campaign seed; firewalled /24s
//! share one middlebox). Because the plan can *replay* the exact fate
//! sequence a retrying scanner sees, it predicts — host by host —
//! which addresses a 4-attempt budget recovers and how the rest must
//! be classified. This demo checks the scanner against that oracle:
//!
//! 1. **Recovery**: every recoverable planted host ends `Ok`.
//! 2. **Classification**: every unrecoverable host's [`HostOutcome`]
//!    matches its replayed terminal fate (timed out / throttled /
//!    tarpitted).
//! 3. **Undercount**: a polite single-attempt baseline misses hosts a
//!    retrying scanner recovers — the bias the layer exists to fix.
//! 4. **Determinism**: the hostile sweep is byte-identical across
//!    worker counts and in-flight caps.
//!
//! ```sh
//! cargo run --release --example hostile_sweep             # default seed
//! cargo run --release --example hostile_sweep -- 1234     # custom seed
//! cargo run --release --example hostile_sweep -- 2020 4   # 4 workers
//! ```
//!
//! The optional second argument picks the worker count for the *main*
//! sweep; stdout must be byte-identical for any choice
//! (`examples/golden.sh` checks the default and the 4-worker run against
//! one golden file).

use std::collections::BTreeMap;
use std::sync::Arc;

use opcua_study::netsim::ConnectFate;
use opcua_study::prelude::*;

/// Sweep-visible strata only: no hidden/chained (referral-only)
/// classes, so planted hosts correspond 1:1 to sweep records and the
/// recovery check needs no referral-reachability caveats.
fn sweep_mix() -> StrataMix {
    StrataMix::new()
        .with(HostClass::WideOpen, 16)
        .with(HostClass::DeprecatedOnly, 10)
        .with(HostClass::MixedLegacy, 10)
        .with(HostClass::SecureModern, 8)
        .with(HostClass::ExpiredCert, 4)
        .with(HostClass::WeakCert, 4)
        .with(HostClass::ReusedCert, 6)
        .with(HostClass::BrokenSession, 4)
        .with(HostClass::DiscoveryServer, 10)
}

/// A fresh world per run (two scans over one net would advance the
/// same clock twice), with the hostile middlebox plan installed.
fn build(
    seed: u64,
    retry: RetryPolicy,
    workers: usize,
    max_in_flight: usize,
) -> (Scanner, Vec<Cidr>, Population, MiddleboxPlan) {
    let net = Internet::new(VirtualClock::default());
    let universe: Vec<Cidr> = vec!["10.60.0.0/21".parse().unwrap()];
    let cfg = PopulationConfig::new(seed, universe.clone(), sweep_mix());
    let population = synthesize(&net, &cfg);
    let plan = MiddleboxPlan::plan(&population, &MiddleboxConfig::hostile(), seed);
    net.set_profiles(Arc::new(plan.clone()));
    let config = ScanConfig {
        workers,
        max_in_flight,
        retry,
        ..ScanConfig::default()
    };
    (
        Scanner::new(net, Blocklist::new(), config),
        universe,
        population,
        plan,
    )
}

fn check(label: &str, ok: bool) -> bool {
    println!("{} {label}", if ok { "[ok]      " } else { "[MISMATCH]" });
    ok
}

/// The outcome class a replayed terminal fate must surface as.
fn expected_outcome(fate: ConnectFate) -> HostOutcome {
    match fate {
        ConnectFate::Deliver => HostOutcome::Ok,
        ConnectFate::SynLost => HostOutcome::TimedOut,
        ConnectFate::Throttled { .. } => HostOutcome::Throttled,
        ConnectFate::Tarpit(_) => HostOutcome::Tarpitted,
    }
}

fn main() {
    let seed: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(2020);
    let workers: usize = std::env::args()
        .nth(2)
        .and_then(|s| s.parse().ok())
        .unwrap_or(1);
    let default_cap = ScanConfig::default().max_in_flight;
    let mut all_ok = true;
    let budget = RetryPolicy::hostile().max_attempts;

    // --- The hostile sweep, against the planted oracle. --------------
    let (scanner, universe, population, plan) =
        build(seed, RetryPolicy::hostile(), workers, default_cap);
    let (summary, records) = scanner.scan_collect(&universe, seed);
    let faults = summary.faults;
    println!(
        "hostile sweep: {} records — {} ok, {} timed out, {} throttled, {} tarpitted; \
         {} hosts retried, {} connect attempts, {:.1} s backoff",
        records.len(),
        faults.ok,
        faults.timed_out,
        faults.throttled,
        faults.tarpitted,
        faults.retried_hosts,
        faults.connect_attempts,
        faults.backoff_micros as f64 / 1e6,
    );
    for stratum in FaultStratum::ALL {
        let n = plan.stratum_count(stratum);
        if n > 0 {
            println!("  planted {:<16} {n}", stratum.label());
        }
    }

    let by_addr: BTreeMap<u32, HostOutcome> =
        records.iter().map(|r| (r.address.0, r.outcome)).collect();
    let recoverable = population
        .hosts
        .iter()
        .filter(|h| plan.recoverable(h.address, budget))
        .count();
    let recovered = population
        .hosts
        .iter()
        .filter(|h| {
            plan.recoverable(h.address, budget)
                && by_addr.get(&h.address.0) == Some(&HostOutcome::Ok)
        })
        .count();
    println!("recovery: {recovered}/{recoverable} recoverable planted hosts reached");
    all_ok &= check(
        "every recoverable planted host is recovered",
        recovered == recoverable,
    );
    all_ok &= check(
        "every planted host's outcome matches its replayed terminal fate",
        population.hosts.iter().all(|h| {
            by_addr.get(&h.address.0)
                == Some(&expected_outcome(plan.terminal_fate(h.address, budget)))
        }),
    );
    let (mut want_timed_out, mut want_throttled, mut want_tarpitted) = (0u64, 0u64, 0u64);
    for h in &population.hosts {
        match expected_outcome(plan.terminal_fate(h.address, budget)) {
            HostOutcome::TimedOut => want_timed_out += 1,
            HostOutcome::Throttled => want_throttled += 1,
            HostOutcome::Tarpitted => want_tarpitted += 1,
            _ => {}
        }
    }
    all_ok &= check(
        "fault tallies equal the planted unrecoverable counts",
        faults.timed_out == want_timed_out
            && faults.throttled == want_throttled
            && faults.tarpitted == want_tarpitted
            && faults.unrecovered() == want_timed_out + want_throttled + want_tarpitted,
    );

    // --- The polite baseline undercounts. ----------------------------
    let (polite, universe_p, _, _) = build(seed, RetryPolicy::default(), 1, default_cap);
    let (polite_summary, _) = polite.scan_collect(&universe_p, seed);
    println!(
        "polite baseline: {} ok vs {} ok with retries ({} hosts recovered by retrying)",
        polite_summary.faults.ok,
        faults.ok,
        faults.ok - polite_summary.faults.ok,
    );
    all_ok &= check(
        "a single-attempt scanner visibly undercounts the hostile net",
        polite_summary.faults.ok < faults.ok,
    );

    // --- Byte identity across worker counts and in-flight caps. -------
    for (other_workers, cap, label) in [
        (1, 1, "1 worker, in-flight cap 1"),
        (4, default_cap, "4 workers"),
        (8, 16, "8 workers, in-flight cap 16"),
    ] {
        let (other, universe_o, _, _) = build(seed, RetryPolicy::hostile(), other_workers, cap);
        let (s, r) = other.scan_collect(&universe_o, seed);
        all_ok &= check(
            &format!("byte-identical under fire: {label}"),
            s == summary && r == records,
        );
    }

    println!("\n{}", assess(&records));
    if !all_ok {
        std::process::exit(1);
    }
    println!("hostile-network determinism and ground truth hold (seed {seed})");
}
