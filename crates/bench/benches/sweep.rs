//! Sweep throughput vs. worker count.
//!
//! Runs the full campaign (zmap-style sweep → probe stack → streamed
//! records) over the same seeded world at every configured worker count,
//! measures wall-clock throughput, and verifies on the way that the
//! records stay byte-identical — the sharding contract CI relies on.
//! A lazy-materialization run repeats the scan against a
//! [`population::LazyWorld`], asserts the digest still matches, and
//! records the materialization counters so the perf trail shows sweeps
//! paying only for the hosts probes actually reach.
//! A final section (`event_loop` in the JSON) reruns the campaign at a
//! fixed per-worker in-flight cap at the lowest and highest worker
//! counts, asserting the digest still matches and that no event loop's
//! window overran the cap.
//!
//! ```sh
//! BENCH_HOSTS=300 BENCH_UNIVERSE=20 BENCH_WORKERS=1,2,4,8 \
//!     cargo bench --bench sweep
//! ```
//!
//! Emits `BENCH_sweep.json`.

use bench::{time, write_bench_json, BenchConfig, Json};
use netsim::Blocklist;
use scanner::{CancelToken, CertStore, EngineStats, ScanConfig, ScanOutcome, ScanRecord, Scanner};

/// Cheap order-sensitive digest over a record stream — any reordering,
/// dropped record, or changed payload shifts it.
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

/// Per-worker in-flight window for the capped runs: large enough to
/// keep the wheel busy, small enough that the high-water gate means
/// something.
const EVENT_LOOP_CAP: usize = 64;
/// Best-of-N rounds for the capped-run timings — each round on a fresh
/// identically-seeded world.
const EVENT_LOOP_ROUNDS: usize = 3;

/// Times the campaign at `workers` and the fixed cap on fresh worlds.
/// Returns the best-of-N wall-clock seconds plus the (identical every
/// round) digest, record count, and engine counters of the last round.
fn event_loop_run(cfg: &BenchConfig, workers: usize) -> (f64, String, usize, EngineStats) {
    let mut best = f64::INFINITY;
    let mut last = None;
    for _ in 0..EVENT_LOOP_ROUNDS {
        let (net, _population) = cfg.build_world();
        let config = ScanConfig {
            workers,
            max_in_flight: EVENT_LOOP_CAP,
            ..ScanConfig::default()
        };
        let scanner = Scanner::new(net, Blocklist::new(), config);
        let certs = CertStore::new();
        let mut records = Vec::new();
        let (seconds, outcome) = time(|| {
            scanner.scan_resumable(
                &cfg.universe,
                cfg.seed,
                &certs,
                None,
                &CancelToken::new(),
                |r| records.push(r),
            )
        });
        let (summary, engine) = match outcome {
            ScanOutcome::Complete { summary, engine } => (summary, engine),
            ScanOutcome::Aborted { .. } => unreachable!("no cancellation armed"),
        };
        best = best.min(seconds);
        last = Some((digest(&records, summary.opcua_hosts), records.len(), engine));
    }
    let (d, n, engine) = last.expect("at least one round");
    (best, d, n, engine)
}

fn main() {
    let cfg = BenchConfig::from_env();
    let universe_size = cfg.universe_size();
    println!(
        "sweep bench: {} hosts in {} addresses, workers {:?}",
        cfg.hosts, universe_size, cfg.worker_counts
    );

    let mut runs = Vec::new();
    let mut baseline_seconds = None;
    let mut baseline_digest: Option<String> = None;
    for &workers in &cfg.worker_counts {
        // A fresh identically-seeded world per run: scans advance the
        // virtual clock, and identical worlds keep runs comparable.
        let (net, population) = cfg.build_world();
        let scanner = cfg.scanner(net, workers);
        let (seconds, (summary, records)) = time(|| scanner.scan_collect(&cfg.universe, cfg.seed));

        let run_digest = digest(&records, summary.opcua_hosts);
        match &baseline_digest {
            None => baseline_digest = Some(run_digest),
            Some(expected) => assert_eq!(
                expected, &run_digest,
                "sharded scan output diverged at workers={workers}"
            ),
        }

        let addrs_per_sec = universe_size as f64 / seconds;
        let hosts_per_sec = summary.sweep.responsive as f64 / seconds;
        let speedup = baseline_seconds.map(|base: f64| base / seconds);
        if baseline_seconds.is_none() {
            baseline_seconds = Some(seconds);
        }
        println!(
            "  workers={workers}: {seconds:.3}s, {addrs_per_sec:.0} addrs/s, \
             {hosts_per_sec:.0} hosts/s, {} OPC UA hosts{}",
            summary.opcua_hosts,
            speedup
                .map(|s| format!(", speedup {s:.2}x"))
                .unwrap_or_default()
        );
        assert_eq!(summary.opcua_hosts as usize, population.len());
        runs.push(
            Json::obj()
                .set("workers", Json::int(workers as i64))
                .set("seconds", Json::Num(seconds))
                .set("addresses_per_second", Json::Num(addrs_per_sec))
                .set("hosts_per_second", Json::Num(hosts_per_sec))
                .set(
                    "responsive_hosts",
                    Json::int(summary.sweep.responsive as i64),
                )
                .set("probes_sent", Json::int(summary.sweep.probes_sent as i64))
                .set(
                    "speedup_vs_1_worker",
                    speedup.map(Json::Num).unwrap_or(Json::Num(1.0)),
                ),
        );
    }

    // Lazy-materialization run: identical world, but hosts are built on
    // first probe contact. The record digest must match the eager
    // baseline byte-for-byte, and not one host beyond the responsive
    // population may have been materialized.
    let lazy_workers = cfg.worker_counts.first().copied().unwrap_or(1);
    let (lazy_net, lazy_world) = cfg.build_lazy_world();
    let scanner = cfg.scanner(lazy_net, lazy_workers);
    let (lazy_seconds, (lazy_summary, lazy_records)) =
        time(|| scanner.scan_collect(&cfg.universe, cfg.seed));
    let lazy_digest = digest(&lazy_records, lazy_summary.opcua_hosts);
    assert_eq!(
        baseline_digest.as_ref(),
        Some(&lazy_digest),
        "lazy scan output diverged from the eager baseline"
    );
    let stats = lazy_world.stats();
    assert_eq!(
        stats.hosts_materialized, lazy_summary.opcua_hosts,
        "lazy world materialized hosts the scan never reached"
    );
    println!(
        "  lazy (workers={lazy_workers}): {lazy_seconds:.3}s, \
         {} hosts materialized, {} keygens, ~{} bytes resident",
        stats.hosts_materialized, stats.keygen_count, stats.bytes_resident_estimate
    );

    // Capped runs: a small per-worker window must not change a byte,
    // and no event loop may overrun it.
    let el_low_workers = cfg.worker_counts.first().copied().unwrap_or(1);
    let el_high_workers = cfg.worker_counts.last().copied().unwrap_or(4).max(2);
    let mut el_runs = Vec::new();
    let mut el_engine = EngineStats::default();
    for workers in [el_low_workers, el_high_workers] {
        let (seconds, el_digest, n_records, engine) = event_loop_run(&cfg, workers);
        assert_eq!(
            baseline_digest.as_ref(),
            Some(&el_digest),
            "capped output diverged from the baseline at workers={workers}"
        );
        assert!(
            engine.in_flight_high_water <= EVENT_LOOP_CAP,
            "in-flight window overran the cap: {} > {EVENT_LOOP_CAP}",
            engine.in_flight_high_water
        );
        let records_per_sec = n_records as f64 / seconds;
        println!(
            "  capped (workers={workers}, cap {EVENT_LOOP_CAP}): {seconds:.3}s, \
             {records_per_sec:.0} records/s, high water {}, {} cascades",
            engine.in_flight_high_water, engine.wheel_cascades
        );
        el_engine = engine;
        el_runs.push(
            Json::obj()
                .set("workers", Json::int(workers as i64))
                .set("seconds", Json::Num(seconds))
                .set("records_per_second", Json::Num(records_per_sec))
                .set(
                    "addresses_per_second",
                    Json::Num(universe_size as f64 / seconds),
                ),
        );
    }
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let out = Json::obj()
        .set("bench", Json::str("sweep"))
        .set("available_parallelism", Json::int(cores as i64))
        .set("hosts", Json::int(cfg.hosts as i64))
        .set("universe_addresses", Json::int(universe_size as i64))
        .set("seed", Json::int(cfg.seed as i64))
        .set("deterministic_across_worker_counts", Json::Bool(true))
        .set("runs", Json::Arr(runs))
        .set(
            "lazy",
            Json::obj()
                .set("workers", Json::int(lazy_workers as i64))
                .set("seconds", Json::Num(lazy_seconds))
                .set("hosts_materialized", Json::int(stats.hosts_materialized))
                .set("keygen_count", Json::int(stats.keygen_count))
                .set(
                    "bytes_resident_estimate",
                    Json::int(stats.bytes_resident_estimate),
                )
                .set(
                    "peak_bytes_resident_estimate",
                    Json::int(stats.peak_bytes_resident_estimate),
                )
                .set("digest_matches_eager", Json::Bool(true)),
        )
        .set(
            "event_loop",
            Json::obj()
                .set("max_in_flight", Json::int(EVENT_LOOP_CAP as i64))
                .set("rounds", Json::int(EVENT_LOOP_ROUNDS as i64))
                .set("runs", Json::Arr(el_runs))
                .set(
                    "in_flight_high_water",
                    Json::int(el_engine.in_flight_high_water as i64),
                )
                .set("timer_cascades", Json::int(el_engine.wheel_cascades as i64))
                .set("timers_fired", Json::int(el_engine.timers_fired as i64)),
        );
    let path = write_bench_json("sweep", &out);
    println!("wrote {}", path.display());
}
