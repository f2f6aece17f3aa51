//! Factory-telemetry walkthrough on the real pipeline (§6, Figure 7):
//! a plant-floor-shaped population — wide-open telemetry endpoints,
//! "supports everything" mixed-legacy servers, hidden servers behind a
//! discovery server, broken session configs, and a reused vendor
//! certificate — is deployed, scanned, and assessed, then the
//! data-access findings (readable sensors, *writable* setpoints,
//! executable maintenance methods) and the certificate-interning
//! counters are cross-checked against the deployment ground truth.
//!
//! Deterministic: the same seed prints the same numbers. Any
//! `[MISMATCH]` makes the example exit 1.
//!
//! ```sh
//! cargo run --release --example factory_telemetry           # default seed
//! cargo run --release --example factory_telemetry -- 99     # custom seed
//! ```

use opcua_study::prelude::*;
use population::HostGroundTruth;
use std::collections::HashSet;

fn main() {
    let seed: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(2020);

    let net = Internet::new(VirtualClock::default());
    let universe: Cidr = "10.90.0.0/21".parse().unwrap();
    // Telemetry-shaped strata: lots of anonymously reachable process
    // data, a referral layer hiding part of the fleet, a faulty-session
    // group, and a reused certificate so the interning counters have
    // ground truth to match.
    let mix = StrataMix::new()
        .with(HostClass::WideOpen, 14)
        .with(HostClass::MixedLegacy, 10)
        .with(HostClass::BrokenSession, 5)
        .with(HostClass::SecureModern, 6)
        .with(HostClass::ReusedCert, 6)
        .with(HostClass::DiscoveryServer, 2)
        .with(HostClass::HiddenServer, 4);
    let cfg = PopulationConfig::new(seed, vec![universe], mix);
    let population = synthesize(&net, &cfg);
    println!(
        "deployed {} plant hosts in {universe} (seed {seed})",
        population.len()
    );

    let scanner = Scanner::new(net, Blocklist::new(), ScanConfig::default());
    let (summary, records) = scanner.scan_collect(&[universe], seed);
    println!(
        "scanned: {} OPC UA hosts ({} via LDS referral), {} anonymous sessions activated",
        summary.opcua_hosts,
        summary.referrals.opcua_hosts,
        records
            .iter()
            .filter(|r| r.session() == SessionOutcome::AnonymousActivated)
            .count(),
    );

    let report = assess(&records);

    let mut mismatches = 0usize;
    let mut check = |label: &str, found: usize, expected: usize| {
        let mark = if found == expected {
            "ok"
        } else {
            mismatches += 1;
            "MISMATCH"
        };
        println!("  {label:<44} found {found:>3}, ground truth {expected:>3}  [{mark}]");
    };
    let n = |class: HostClass| population.count(class);
    // The classes whose servers accept an anonymous session and expose
    // a process address space (discovery servers expose none).
    let data_classes = [
        HostClass::WideOpen,
        HostClass::MixedLegacy,
        HostClass::HiddenServer,
    ];
    let data_hosts = |pred: &dyn Fn(&HostGroundTruth) -> bool| {
        population
            .hosts
            .iter()
            .filter(|h| data_classes.contains(&h.class) && pred(h))
            .count()
    };

    println!("\nanonymous exposure (§5.4):");
    check(
        "anonymous access advertised",
        report.count(Deficit::AnonymousAccess),
        n(HostClass::WideOpen)
            + n(HostClass::MixedLegacy)
            + n(HostClass::BrokenSession)
            + n(HostClass::DiscoveryServer)
            + n(HostClass::HiddenServer),
    );
    check(
        "advertised but broken session config",
        report.count(Deficit::BrokenSessionConfig),
        n(HostClass::BrokenSession),
    );

    println!("\naccessible process data (§6, Figure 7):");
    check(
        "telemetry readable anonymously",
        report.count(Deficit::DataReadable),
        data_hosts(&|h| h.variables > 0),
    );
    check(
        "setpoints writable anonymously",
        report.count(Deficit::DataWritable),
        data_hosts(&|h| h.writable_variables > 0),
    );
    check(
        "maintenance methods executable",
        report.count(Deficit::MethodsExecutable),
        data_hosts(&|h| h.executable_methods > 0),
    );
    let traversed: usize = records
        .iter()
        .filter_map(|r| r.traversal())
        .map(|t| t.nodes)
        .sum();
    println!("    ({traversed} nodes traversed across all activated sessions)");

    println!("\ncertificate interning (campaign-wide CertStore):");
    // Every certificate-bearing host serves exactly one certificate;
    // the ReusedCert stratum shares a single one. The store's distinct
    // count must therefore match the ground truth's distinct
    // thumbprints exactly.
    let truth_distinct: HashSet<[u8; 20]> = population
        .hosts
        .iter()
        .filter_map(|h| h.cert_thumbprint)
        .collect();
    check(
        "distinct certificates interned",
        summary.certs.distinct as usize,
        truth_distinct.len(),
    );
    check(
        "hosts sharing the reused certificate",
        report.count(Deficit::ReusedCertificate),
        n(HostClass::ReusedCert),
    );
    println!(
        "    {} sightings collapsed into {} parses ({:.0} % intern hit rate)",
        summary.certs.sightings,
        summary.certs.distinct,
        summary.certs.hit_rate() * 100.0,
    );

    println!("\n{report}");
    if mismatches > 0 {
        std::process::exit(1);
    }
}
