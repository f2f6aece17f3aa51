//! The traced run: the workload's campaign with spans around every call
//! into a layer, then replays that time single layers from outside on
//! the same inputs. Spans live in this package only; the program under
//! test is not instrumented.

use std::collections::HashSet;
use std::sync::Arc;

use assessment::{assess, LongitudinalAssessor};
use netsim::{Blocklist, ConnectFate, Internet, SweepConfig, SynScanner, VirtualClock};
use population::{
    synthesize, ChurnConfig, EvolvingWorld, LazyWorld, MiddleboxConfig, MiddleboxPlan, Population,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use scanner::probe::{DiscoveryProbe, SessionProbe, UacpProbe};
use scanner::{
    CertStore, DiscoveredVia, FaultStats, HostOutcome, Probe, ProbeContext, ProbeOutcome,
    RetryPolicy, ScanConfig, ScanRecord, ScanSummary, Scanner, DEFAULT_OPCUA_PORT,
};

use crate::trace::Trace;
use crate::workload::{by_target, stray, Run, Workload};
use crate::{Metrics, Outcome};

/// Spans whose self allocations are reported as `<span>.allocs` and
/// `<span>.alloc_bytes`. Every workload produces each of them. The
/// `campaign` and `scanner.probe` spans are left out: their children
/// cover them, so their self counts are zero by construction.
const SPANS: [&str; 18] = [
    "scanner.scan",
    "scanner.retry",
    "assessment.fold",
    "assessment.finalize",
    "assessment.render",
    "assessment.assess",
    "assessment.fold_week",
    "population.deploy",
    "population.synthesize",
    "population.evolve",
    "population.materialize",
    "netsim.sweep",
    "scanner.probe.host",
    "scanner.probe.uacp",
    "scanner.probe.discovery",
    "scanner.probe.session",
    "ua-crypto.intern",
    "ua-crypto.batch_gcd",
];

pub fn traced(w: &Workload, seed: u64, outcome: &mut Outcome) -> Metrics {
    // Untraced reference for the overhead ratio and the 1-worker side of
    // the shard speed-up.
    let mut off = Trace::off(w.name);
    let setup = w.setup(seed, 1, &mut off);
    let reference = w.run(setup, seed, true, &mut off);
    outcome.observe(&reference);

    let mut trace = Trace::on(w.name);
    let setup = w.setup(seed, 1, &mut trace);
    let run = w.run(setup, seed, false, &mut trace);
    outcome.observe(&run);
    let layer = replay_layers(w, seed, &run, &mut trace);
    outcome.checked(layer.retry_attempted, layer.retry_failed);
    let stats = trace.by_name();
    outcome.write_artifact(&format!("trace-{}-{seed}.json", w.name), &trace.to_json());
    drop(trace);

    // The shard speed-up runs untraced and with threads, after counting
    // has stopped.
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut off = Trace::off(w.name);
    let setup = w.setup(seed, workers, &mut off);
    let sharded = w.run(setup, seed, true, &mut off);
    outcome.observe(&sharded);

    let mut m = Metrics::default();
    let busy = |name: &str| stats.get(name).map_or(0.0, |s| s.busy_s());
    m.put("population.deploy.busy_s", busy("population.deploy"), "s");
    m.put(
        "population.materialize.busy_s",
        busy("population.materialize"),
        "s",
    );
    m.put("population.materialize.hosts", layer.hosts as f64, "count");
    m.put(
        "population.materialize.keygens",
        layer.keygens as f64,
        "count",
    );
    m.put(
        "population.materialize.peak_resident_bytes",
        layer.peak_resident_bytes as f64,
        "bytes",
    );
    m.put(
        "population.synthesize.busy_s",
        busy("population.synthesize"),
        "s",
    );
    m.put("population.evolve.busy_s", busy("population.evolve"), "s");
    m.put("netsim.sweep.busy_s", busy("netsim.sweep"), "s");
    m.put(
        "netsim.sweep.ns_per_address",
        busy("netsim.sweep") * 1e9 / layer.probes_sent.max(1) as f64,
        "ns",
    );
    m.put(
        "netsim.sweep.probes_sent",
        layer.probes_sent as f64,
        "count",
    );
    m.put("netsim.sweep.responsive", layer.responsive as f64, "count");
    m.put("scanner.scan.self_s", layer.scan_self_s, "s");
    m.put("scanner.probe.busy_s", busy("scanner.probe"), "s");
    let host = &stats["scanner.probe.host"];
    m.put("scanner.probe.host_p50_us", host.percentile_us(0.5), "us");
    m.put("scanner.probe.host_p99_us", host.percentile_us(0.99), "us");
    m.put("scanner.probe.samples", host.count as f64, "count");
    for stage in ["uacp", "discovery", "session"] {
        let s = &stats[format!("scanner.probe.{stage}").as_str()];
        m.put(
            &format!("scanner.probe.{stage}.p50_us"),
            s.percentile_us(0.5),
            "us",
        );
        m.put(
            &format!("scanner.probe.{stage}.p99_us"),
            s.percentile_us(0.99),
            "us",
        );
        m.put(
            &format!("scanner.probe.{stage}.samples"),
            s.count as f64,
            "count",
        );
    }
    let (referrals, certs, faults) = (run.summary.referrals, run.summary.certs, layer.faults);
    m.put(
        "scanner.referral.followed",
        referrals.followed as f64,
        "count",
    );
    m.put("scanner.referral.dead", referrals.dead as f64, "count");
    m.put("scanner.retry.busy_s", busy("scanner.retry"), "s");
    let attempts = faults.connect_attempts;
    m.put("scanner.retry.connect_attempts", attempts as f64, "count");
    m.put(
        "scanner.retry.retried_hosts",
        faults.retried_hosts as f64,
        "count",
    );
    m.put(
        "scanner.retry.backoff_virtual_s",
        faults.backoff_micros as f64 / 1e6,
        "virtual_s",
    );
    m.put(
        "scanner.retry.useful_ratio",
        faults.ok as f64 / attempts.max(1) as f64,
        "ratio",
    );
    m.put(
        "scanner.shard.speedup",
        reference.wall_s / sharded.wall_s,
        "ratio",
    );
    m.put("scanner.shard.workers", workers as f64, "count");
    m.put("ua-crypto.intern.busy_s", busy("ua-crypto.intern"), "s");
    m.put("ua-crypto.intern.hit_ratio", certs.hit_rate(), "ratio");
    m.put(
        "ua-crypto.intern.sightings",
        certs.sightings as f64,
        "count",
    );
    m.put(
        "ua-crypto.batch_gcd.busy_s",
        busy("ua-crypto.batch_gcd"),
        "s",
    );
    m.put("ua-crypto.batch_gcd.moduli", layer.moduli as f64, "count");
    for step in ["fold", "finalize", "render", "assess", "fold_week"] {
        m.put(
            &format!("assessment.{step}.busy_s"),
            busy(&format!("assessment.{step}")),
            "s",
        );
    }
    for name in SPANS {
        let s = &stats[name];
        m.put(&format!("{name}.allocs"), s.allocs as f64, "count");
        m.put(
            &format!("{name}.alloc_bytes"),
            s.alloc_bytes as f64,
            "bytes",
        );
    }
    m.put(
        "trace.overhead_ratio",
        run.wall_s / reference.wall_s,
        "ratio",
    );
    m
}

/// Counts the replays measure next to their spans.
struct LayerCounts {
    hosts: u64,
    keygens: u64,
    peak_resident_bytes: u64,
    probes_sent: u64,
    responsive: u64,
    moduli: usize,
    scan_self_s: f64,
    /// Fault accounting of the hostile replay, and its oracle check.
    faults: FaultStats,
    retry_attempted: u64,
    retry_failed: u64,
}

/// Times single layers from outside on the workload's inputs: fresh
/// worlds of the workload's population and the traced campaign's records.
fn replay_layers(w: &Workload, seed: u64, run: &Run, trace: &mut Trace) -> LayerCounts {
    let universe = w.universe();
    let cfg = w.population_config(seed);
    let net = Internet::new(VirtualClock::default());
    let world = LazyWorld::deploy(&net, &cfg);

    // The sweep alone: every address, no probes.
    let mut responsive = Vec::new();
    let sweep = trace.span("netsim.sweep", |_| {
        SynScanner::new(&net, &Blocklist::new(), SweepConfig::default()).sweep_each(
            &universe,
            &mut StdRng::seed_from_u64(seed),
            |addr| responsive.push(addr),
        )
    });

    // Load every host of a fresh world, then probe the loaded world.
    trace.span("population.materialize", |_| world.population());
    let materialized = world.stats();
    let config = ScanConfig::default();
    let scanner = Scanner::new(net.clone(), Blocklist::new(), config.clone());
    let probe = trace.open("scanner.probe");
    let mut last = trace.mark();
    scanner.scan_with(&universe, seed, |record| {
        drop(record);
        trace.record_since("scanner.probe.host", last);
        last = trace.mark();
    });
    trace.close(probe);

    // Each stage of the suite ladder on its own.
    let certs = CertStore::new();
    for &addr in &responsive {
        let port = DEFAULT_OPCUA_PORT;
        let target_seed = seed ^ u64::from(addr.0);
        let mut ctx = ProbeContext::for_target(&net, &config, &certs, addr, port, target_seed);
        let mut record = ScanRecord::for_target(addr, port, DiscoveredVia::Sweep, 0, 0);
        let mut stage = |name: &'static str, probe: &mut dyn Probe, trace: &mut Trace| {
            trace.span(name, |_| probe.run(&mut ctx, &mut record)) == ProbeOutcome::Continue
        };
        let _ = stage("scanner.probe.uacp", &mut UacpProbe, trace)
            && stage("scanner.probe.discovery", &mut DiscoveryProbe, trace)
            && stage("scanner.probe.session", &mut SessionProbe, trace);
    }

    // The retry layer over the eager world: the workload's population
    // built up front by `synthesize`, the hostile middlebox preset planted
    // on it (loss, flaky stacks, tarpits, rate-limiting firewalls), then
    // scanned with four-attempt retries and checked against the plan's
    // oracles.
    let net = Internet::new(VirtualClock::default());
    let eager = trace.span("population.synthesize", |_| synthesize(&net, &cfg));
    let plan = MiddleboxPlan::plan(&eager, &MiddleboxConfig::hostile(), seed);
    net.set_profiles(Arc::new(plan.clone()));
    let retry = ScanConfig {
        retry: RetryPolicy::hostile(),
        ..ScanConfig::default()
    };
    let (hostile_summary, hostile_records) = trace.span("scanner.retry", |_| {
        Scanner::new(net.clone(), Blocklist::new(), retry).scan_collect(&universe, seed)
    });
    let faults = hostile_summary.faults;
    let (retry_attempted, retry_failed) =
        check_hostile(&eager, &plan, &hostile_records, &hostile_summary);

    let records = &run.records;
    let store = CertStore::new();
    trace.span("ua-crypto.intern", |_| {
        for record in records {
            for der in record
                .endpoints()
                .iter()
                .filter_map(|ep| ep.certificate_der())
            {
                store.intern(der);
            }
        }
    });
    let mut seen = HashSet::new();
    let moduli: Vec<_> = records
        .iter()
        .flat_map(|r| r.certificates())
        .filter_map(|c| c.modulus().cloned())
        .filter(|n| seen.insert(n.clone()))
        .collect();
    trace.span("ua-crypto.batch_gcd", |_| {
        ua_crypto::find_shared_factors(&moduli)
    });

    // The longitudinal layers on this workload's world and records: two
    // weeks of churn bookkeeping, and the batch assessment plus one
    // weekly fold of the campaign's records.
    let net = Internet::new(VirtualClock::default());
    let mut evolving = EvolvingWorld::new_lazy(&net, &cfg, ChurnConfig::default());
    for week in 1..=2 {
        net.clock().advance_micros(7 * 86_400 * 1_000_000);
        trace.span("population.evolve", |_| {
            evolving.evolve(week);
        });
    }
    let report = trace.span("assessment.assess", |_| assess(records));
    trace.span("assessment.fold_week", |_| {
        LongitudinalAssessor::new().fold_week(records, &report);
    });

    let spans = trace.spans();
    let self_ns = crate::trace::self_times(spans);
    let scan_self_ns: u64 = spans
        .iter()
        .zip(&self_ns)
        .filter(|(s, _)| s.name == "scanner.scan")
        .map(|(_, ns)| ns)
        .sum();
    LayerCounts {
        hosts: materialized.hosts_materialized,
        keygens: materialized.keygen_count,
        peak_resident_bytes: materialized.peak_bytes_resident_estimate,
        probes_sent: sweep.probes_sent,
        responsive: sweep.responsive,
        moduli: moduli.len(),
        scan_self_s: scan_self_ns as f64 / 1e9,
        faults,
        retry_attempted,
        retry_failed,
    }
}

/// Compares a hostile scan with the plan's replay of each swept host's
/// connect fates: a host the retry budget recovers must end `Ok`, and
/// every other host in its terminal fate. Referral-only hosts sit behind
/// announcers that may themselves be unrecoverable, so only swept hosts
/// carry the oracle. Returns (hosts checked, hosts recorded wrongly).
fn check_hostile(
    population: &Population,
    plan: &MiddleboxPlan,
    records: &[ScanRecord],
    summary: &ScanSummary,
) -> (u64, u64) {
    let budget = RetryPolicy::hostile().max_attempts;
    let found = by_target(records);
    let swept: Vec<_> = population
        .hosts
        .iter()
        .filter(|h| !h.class.referral_only())
        .collect();
    let wrong = swept
        .iter()
        .filter(|host| {
            let want = if plan.recoverable(host.address, budget) {
                HostOutcome::Ok
            } else {
                match plan.terminal_fate(host.address, budget) {
                    ConnectFate::Deliver => HostOutcome::Ok,
                    ConnectFate::SynLost => HostOutcome::TimedOut,
                    ConnectFate::Throttled { .. } => HostOutcome::Throttled,
                    ConnectFate::Tarpit(_) => HostOutcome::Tarpitted,
                }
            };
            found.get(&(host.address.0, host.port)).map(|r| r.outcome) != Some(want)
        })
        .count() as u64;
    (
        swept.len() as u64,
        wrong + stray(records, population.len(), summary),
    )
}
