//! Materialization-schedule equivalence: one world engine builds every
//! population, and *when* it builds a host must not change a byte the
//! scanner sees. "Eager" here means the fleet was fully materialized up
//! front (`synthesize`, or `population()` after every week); "lazy"
//! means no build was ever forced, so hosts materialize on first probe
//! contact. Both must yield the same `ScanRecord` streams, summaries
//! and longitudinal series at every worker count, for every host
//! class. And a world left alone must pay only for the hosts probes
//! actually reach: unresponsive addresses materialize nothing.

use netsim::{Blocklist, Cidr, Internet, VirtualClock};
use population::{
    synthesize, ChurnConfig, EvolvingWorld, HostClass, LazyWorld, PopulationConfig, StrataMix,
};
use scanner::{Campaign, ScanConfig, ScanRecord, ScanSummary, Scanner};

const SEED: u64 = 20_200_504;
const EPOCH: u64 = 1_581_206_400;

fn universe() -> Vec<Cidr> {
    vec!["10.50.0.0/22".parse().unwrap()]
}

fn fresh_net() -> Internet {
    Internet::new(VirtualClock::starting_at(EPOCH))
}

/// One full sweep+referral campaign over `net`.
fn scan(net: Internet, workers: usize) -> (ScanSummary, Vec<ScanRecord>) {
    let config = ScanConfig {
        workers,
        ..ScanConfig::default()
    };
    Scanner::new(net, Blocklist::new(), config).scan_collect(&universe(), SEED)
}

/// A small mix exercising `class`, plus whatever wiring the class needs
/// to be reachable at all (referral-only classes need an LDS entry
/// point; an LDS is more interesting with servers to announce).
fn mix_for(class: HostClass) -> StrataMix {
    let mix = StrataMix::new().with(class, 3);
    match class {
        HostClass::HiddenServer | HostClass::ChainedLds => mix.with(HostClass::DiscoveryServer, 2),
        HostClass::DiscoveryServer => mix.with(HostClass::WideOpen, 2),
        _ => mix,
    }
}

#[test]
fn every_class_scans_identically_eager_and_lazy_at_any_worker_count() {
    for class in HostClass::ALL {
        let cfg = PopulationConfig::new(SEED ^ class as u64, universe(), mix_for(class));
        for workers in [1usize, 2, 8] {
            let eager_net = fresh_net();
            synthesize(&eager_net, &cfg);
            let (eager_summary, eager_records) = scan(eager_net, workers);

            let lazy_net = fresh_net();
            let world = LazyWorld::deploy(&lazy_net, &cfg);
            assert_eq!(world.stats().hosts_materialized, 0, "{class:?}: pre-scan");
            let (lazy_summary, lazy_records) = scan(lazy_net.clone(), workers);

            assert_eq!(
                eager_summary, lazy_summary,
                "{class:?} summary diverged at workers={workers}"
            );
            assert_eq!(
                eager_records, lazy_records,
                "{class:?} records diverged at workers={workers}"
            );
        }
    }
}

#[test]
fn paper_mix_scans_identically_and_materializes_exactly_the_population() {
    let cfg = PopulationConfig::new(SEED, universe(), StrataMix::paper_like(40));
    for workers in [1usize, 2, 8] {
        let eager_net = fresh_net();
        let pop = synthesize(&eager_net, &cfg);
        let (eager_summary, eager_records) = scan(eager_net, workers);

        let lazy_net = fresh_net();
        let world = LazyWorld::deploy(&lazy_net, &cfg);
        let (lazy_summary, lazy_records) = scan(lazy_net, workers);

        assert_eq!(eager_summary, lazy_summary, "workers={workers}");
        assert_eq!(eager_records, lazy_records, "workers={workers}");
        // Sweep + referral following reaches every host in this mix —
        // and not one host more was ever built.
        let stats = world.stats();
        assert_eq!(
            stats.hosts_materialized,
            pop.len() as u64,
            "workers={workers}: materialized ≠ responsive"
        );
        assert!(stats.keygen_count > 0);
        assert!(stats.bytes_resident_estimate > 0);
        assert_eq!(
            stats.peak_bytes_resident_estimate,
            stats.bytes_resident_estimate
        );
    }
}

#[test]
fn unresponsive_probes_materialize_nothing() {
    // 30 hosts scattered over 16k addresses: occupancy answers come
    // from the seeded predicate, and neither SYN-level sweeps nor full
    // connects to empty addresses build anything.
    let cfg = PopulationConfig::new(SEED, universe(), StrataMix::paper_like(30));
    let net = fresh_net();
    let world = LazyWorld::deploy(&net, &cfg);
    let pop = world.population(); // audit view; reset not needed — counters are checked against it
    let baseline = world.stats().hosts_materialized;
    assert_eq!(baseline, pop.len() as u64);

    // A full SYN pass over the universe touches no host material.
    let block: Cidr = "10.50.0.0/22".parse().unwrap();
    let mut listeners = 0;
    for i in 0..block.size() {
        let addr = netsim::Ipv4(block.base.0 + i as u32);
        if net.has_listener(addr, 4840) {
            listeners += 1;
        }
    }
    let swept: u64 = pop.hosts.iter().filter(|h| h.port == 4840).count() as u64;
    assert_eq!(listeners, swept, "predicate must mirror the population");
    assert_eq!(world.stats().hosts_materialized, baseline);

    // Connecting to a vacant address fails without materializing.
    let vacant = (0..block.size())
        .map(|i| netsim::Ipv4(block.base.0 + i as u32))
        .find(|a| pop.host(*a).is_none())
        .expect("a /22 holding 30 hosts has vacant addresses");
    assert!(net
        .connect(netsim::Ipv4::new(192, 0, 2, 1), vacant, 4840)
        .is_err());
    assert_eq!(world.stats().hosts_materialized, baseline);
}

#[test]
fn unprobed_lazy_world_builds_nothing_at_all() {
    let cfg = PopulationConfig::new(SEED, universe(), StrataMix::paper_like(30));
    let net = fresh_net();
    let world = LazyWorld::deploy(&net, &cfg);
    // Probe only addresses that hold nothing.
    let block: Cidr = "10.50.0.0/22".parse().unwrap();
    let mut missed = 0;
    for i in 0..64 {
        let addr = netsim::Ipv4(block.base.0 + i);
        if !net.has_listener(addr, 4840)
            && net
                .connect(netsim::Ipv4::new(192, 0, 2, 1), addr, 4840)
                .is_err()
        {
            missed += 1;
        }
    }
    assert!(missed > 0);
    assert_eq!(world.stats(), population::MaterializationStats::default());
}

/// Runs an `weeks`-week longitudinal study and returns the per-week
/// records plus the final scanner-visible truth. `eager` materializes
/// the whole fleet before every campaign, so weekly events apply to
/// built hosts live; otherwise nothing is forced and events replay
/// when a probe first builds a host.
fn longitudinal(
    eager: bool,
    weeks: u32,
    workers: usize,
) -> (
    Vec<(u32, Vec<ScanRecord>)>,
    Vec<population::TruthObservation>,
) {
    let net = fresh_net();
    let cfg = PopulationConfig::new(SEED, universe(), StrataMix::paper_like(36));
    let mut world = EvolvingWorld::new_lazy(&net, &cfg, ChurnConfig::default());
    let config = ScanConfig {
        workers,
        ..ScanConfig::default()
    };
    let mut campaign = Campaign::new(Scanner::new(net, Blocklist::new(), config));
    let mut series = Vec::new();
    for week in 0..weeks {
        let scan = campaign.run_week(&universe(), SEED, |w| {
            if w > 0 {
                world.evolve(w);
            }
            if eager {
                world.population();
            }
        });
        series.push((week, scan.records));
    }
    (series, world.observable_truth())
}

#[test]
fn longitudinal_series_is_identical_eager_and_lazy() {
    for workers in [1usize, 2] {
        let (eager_series, eager_truth) = longitudinal(true, 4, workers);
        let (lazy_series, lazy_truth) = longitudinal(false, 4, workers);
        assert_eq!(
            eager_series.len(),
            lazy_series.len(),
            "workers={workers}: series length"
        );
        for ((week, eager), (_, lazy)) in eager_series.iter().zip(&lazy_series) {
            assert_eq!(eager, lazy, "workers={workers}: week {week} diverged");
        }
        assert_eq!(eager_truth, lazy_truth, "workers={workers}: final truth");
    }
}

/// Runs a `weeks`-week study of a paper-like mix over `universe` on a
/// world nothing forces to build, and returns its materialization
/// counters plus the host-scans the weekly campaigns made.
fn study_cost(universe: &[Cidr], weeks: u32) -> (population::MaterializationStats, u64) {
    let net = fresh_net();
    let cfg = PopulationConfig::new(SEED, universe.to_vec(), StrataMix::paper_like(60));
    let mut world = EvolvingWorld::new_lazy(&net, &cfg, ChurnConfig::default());
    let mut campaign = Campaign::new(Scanner::new(net, Blocklist::new(), ScanConfig::default()));
    let mut host_scans = 0;
    for _ in 0..weeks {
        let scan = campaign.run_week(universe, SEED, |w| {
            if w > 0 {
                world.evolve(w);
            }
        });
        host_scans += scan.summary.opcua_hosts;
    }
    (world.stats(), host_scans)
}

#[test]
fn study_cost_is_independent_of_universe_size() {
    // Host identities, churn events and key generations are functions
    // of (seed, host id, week), so the same study in a 16× wider
    // address space builds the same hosts and generates the same keys:
    // weekly cost tracks the population, not the universe.
    let (narrow, narrow_scans) = study_cost(&["10.48.0.0/20".parse().unwrap()], 4);
    let (wide, wide_scans) = study_cost(&["10.48.0.0/16".parse().unwrap()], 4);
    assert!(narrow.hosts_materialized > 0, "the study built nothing");
    assert_eq!(wide.hosts_materialized, narrow.hosts_materialized);
    assert_eq!(wide.keygen_count, narrow.keygen_count);
    // A world left alone builds only hosts some probe reached.
    assert!(narrow.hosts_materialized <= narrow_scans);
    assert!(wide.hosts_materialized <= wide_scans);
}

/// A built host lives in its world alone: a full scan of a lazy world
/// builds every host, a week of churn moves, renews and upgrades them
/// (each built host so changed gets a new listener), and a second scan
/// finds every one at its current address, all without a single entry
/// in the Internet's host table.
#[test]
fn built_hosts_never_enter_the_bound_table() {
    let net = fresh_net();
    let cfg = PopulationConfig::new(SEED, universe(), StrataMix::paper_like(40));
    let churn = ChurnConfig {
        ip_move: 0.3,
        renewal: 0.3,
        upgrade: 0.3,
        ..ChurnConfig::frozen()
    };
    let mut world = EvolvingWorld::new_lazy(&net, &cfg, churn);
    let config = ScanConfig {
        workers: 2,
        ..ScanConfig::default()
    };
    let mut campaign = Campaign::new(Scanner::new(net.clone(), Blocklist::new(), config));
    for week in 0..2 {
        let scan = campaign.run_week(&universe(), SEED, |w| {
            if w > 0 {
                let churn = world.evolve(w);
                assert!(churn.moves() > 0 && churn.renewals() > 0 && churn.upgrades() > 0);
            }
        });
        assert_eq!(
            world.stats().hosts_materialized as usize,
            world.alive_count(),
            "week {week}: every host built"
        );
        assert_eq!(
            scan.summary.opcua_hosts as usize,
            world.alive_count(),
            "week {week}: every host found"
        );
        assert_eq!(net.host_count(), 0, "week {week}: a built host was bound");
    }
    assert_eq!(world.week(), 1);
}
