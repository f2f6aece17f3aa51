//! A 30-week longitudinal study over a **million-address universe** in
//! bounded memory — the lazy-materialization showcase.
//!
//! `EvolvingWorld::new_lazy` installs only a seeded occupancy
//! predicate: the scanner sweeps all ~1M addresses of `10.0.0.0/12`,
//! and a host is synthesized — keys, certificate, address space,
//! referral wiring — the first time a probe actually reaches it, as a
//! pure function of `(seed, host id, week)`. Resident cost tracks the
//! ~120 responsive hosts, not the 1,048,576 addresses; CI runs this
//! example under a hard `ulimit -v` to hold that claim.
//!
//! Two self-checks print `[ok]`/`[MISMATCH]`; any `[MISMATCH]` makes
//! the example exit 1:
//!
//! 1. **Equivalence** — on a small shared world, a fleet built up front
//!    (`synthesize`, labelled "eager") and one built on first probe
//!    contact ("lazy") must produce byte-identical scan records.
//! 2. **Frugality** — across the whole study the world must have
//!    materialized exactly the hosts that ever lived (initial
//!    population + arrivals), and not one more.
//!
//! ```sh
//! cargo run --release --example million_host_study             # 30 weeks
//! cargo run --release --example million_host_study -- 1234 4   # seed, workers
//! cargo run --release --example million_host_study -- 1234 4 6 # ... 6 weeks
//! ```

use opcua_study::prelude::*;

fn main() {
    let mut args = std::env::args().skip(1);
    let seed: u64 = args.next().and_then(|s| s.parse().ok()).unwrap_or(2020);
    let workers: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(4);
    let weeks: u32 = args
        .next()
        .and_then(|s| s.parse().ok())
        .unwrap_or(30)
        .max(1);

    // ── Check 1: built on contact == built up front, shared world ───
    let check_universe: Cidr = "10.32.0.0/20".parse().unwrap();
    let check_cfg = PopulationConfig::new(seed, vec![check_universe], StrataMix::paper_like(60));
    let eager_net = Internet::new(VirtualClock::default());
    synthesize(&eager_net, &check_cfg);
    let (eager_summary, eager_records) =
        Scanner::new(eager_net, Blocklist::new(), ScanConfig::default())
            .scan_collect(&[check_universe], seed);
    let lazy_net = Internet::new(VirtualClock::default());
    let check_world = LazyWorld::deploy(&lazy_net, &check_cfg);
    let (lazy_summary, lazy_records) =
        Scanner::new(lazy_net, Blocklist::new(), ScanConfig::default())
            .scan_collect(&[check_universe], seed);
    let identical = eager_summary == lazy_summary && eager_records == lazy_records;
    println!(
        "eager vs lazy on {check_universe}: {} records, materialized {}  [{}]",
        lazy_records.len(),
        check_world.stats().hosts_materialized,
        if identical { "ok" } else { "MISMATCH" }
    );

    // ── The study: ~120 hosts hiding in 1,048,576 addresses ─────────
    let universe: Cidr = "10.0.0.0/12".parse().unwrap();
    let cfg = PopulationConfig::new(seed, vec![universe], StrataMix::paper_like(120));
    let net = Internet::new(VirtualClock::default());
    let mut world = EvolvingWorld::new_lazy(&net, &cfg, ChurnConfig::default());
    let initial_hosts = world.alive_count();
    println!(
        "\nmillion-host study: {initial_hosts} hosts in {universe} \
         ({} addresses), {weeks} weekly campaigns, {workers} workers (seed {seed})",
        universe.size()
    );
    println!(
        "world deployed lazily: {} hosts materialized so far",
        world.stats().hosts_materialized
    );

    let scan_config = ScanConfig {
        workers,
        ..ScanConfig::default()
    };
    let mut campaign = Campaign::new(Scanner::new(net, Blocklist::new(), scan_config));
    println!(
        "\n{:>4} {:>6} {:>6} {:>12} {:>14}",
        "week", "hosts", "built", "keygens", "peak resident"
    );
    for week in 0..weeks {
        let scan = {
            let world = &mut world;
            campaign.run_week(&[universe], seed, |w| {
                if w > 0 {
                    world.evolve(w);
                }
            })
        };
        let stats = world.stats();
        println!(
            "{week:>4} {:>6} {:>6} {:>12} {:>13}B",
            scan.summary.opcua_hosts,
            stats.hosts_materialized,
            stats.keygen_count,
            stats.peak_bytes_resident_estimate,
        );
    }

    // ── Check 2: only hosts that ever lived were materialized ───────
    let arrivals: usize = world.history().iter().map(|w| w.arrivals()).sum();
    let ever_alive = initial_hosts + arrivals;
    let stats = world.stats();
    let frugal = stats.hosts_materialized == ever_alive as u64;
    println!(
        "\nhosts ever alive: {initial_hosts} initial + {arrivals} arrivals = {ever_alive}; \
         materialized {}  [{}]",
        stats.hosts_materialized,
        if frugal { "ok" } else { "MISMATCH" }
    );
    println!(
        "peak resident estimate ~{} KiB for a {}-address universe \
         ({} bytes per materialized host, 0 bytes per vacant address)",
        stats.peak_bytes_resident_estimate / 1024,
        universe.size(),
        stats
            .peak_bytes_resident_estimate
            .checked_div(stats.hosts_materialized)
            .unwrap_or(0),
    );
    if !(identical && frugal) {
        std::process::exit(1);
    }
}
