//! An Internet-wide measurement campaign, end to end: a paper-like
//! population spread across several announced prefixes, a streaming scan
//! with an opt-out blocklist, and the full configuration assessment.
//!
//! Deterministic: the same seed prints the same numbers.
//!
//! Deterministic in the worker count too: sharded scans merge back into
//! discovery order, so the printed output is byte-identical whether one
//! worker runs the campaign or eight (`examples/golden.sh` checks the 1-
//! and 4-worker runs against one golden file).
//!
//! ```sh
//! cargo run --release --example internet_scan              # default seed
//! cargo run --release --example internet_scan -- 1234      # custom seed
//! cargo run --release --example internet_scan -- 1234 8    # ... 8 workers
//! ```

use opcua_study::prelude::*;

fn main() {
    let mut args = std::env::args().skip(1);
    let seed: u64 = args.next().and_then(|s| s.parse().ok()).unwrap_or(2020);
    let workers: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(1);

    let net = Internet::new(VirtualClock::default());
    // Several announced blocks — regional ISPs, an IoT ISP, hosting.
    let universe: Vec<Cidr> = [
        "10.16.0.0/18",
        "100.64.0.0/19",
        "172.22.0.0/20",
        "198.18.0.0/21",
    ]
    .iter()
    .map(|s| s.parse().unwrap())
    .collect();

    // ~150 deployments mixing every configuration stratum of §5-§6.
    let cfg = PopulationConfig::new(seed, universe.clone(), StrataMix::paper_like(150));
    let population = synthesize(&net, &cfg);
    println!(
        "population: {} hosts over {} prefixes (seed {seed})",
        population.len(),
        universe.len()
    );

    // The paper honors opt-out requests: blocklist one /24.
    let mut blocklist = Blocklist::new();
    blocklist.add_str("10.16.7.0/24").unwrap();

    // Stream records through the bounded channel while the scan runs,
    // sharded across `workers` event loops. The output below must not
    // mention the worker count: `examples/golden.sh` holds a 1-worker and
    // a 4-worker run to one golden file.
    let config = ScanConfig {
        workers,
        ..ScanConfig::default()
    };
    let scanner = Scanner::new(net, blocklist, config);
    let mut stream = scanner.scan_stream(universe, seed);
    let mut records = Vec::new();
    for record in stream.by_ref() {
        if records.is_empty() {
            println!("first responsive host: {}", record.address);
        }
        records.push(record);
    }
    let summary = stream.finish();
    println!(
        "sweep: {} probes sent, {} blocklisted, {} responsive ({} OPC UA, {} other)",
        summary.sweep.probes_sent,
        summary.sweep.blocklisted,
        summary.sweep.responsive,
        summary.opcua_hosts,
        summary.non_opcua_hosts,
    );
    println!(
        "referrals: {} announced, {} followed ({} OPC UA, {} dead), {} deduped, {} unfollowable, max depth {}",
        summary.referrals.urls_announced,
        summary.referrals.followed,
        summary.referrals.opcua_hosts,
        summary.referrals.dead,
        summary.referrals.already_probed,
        summary.referrals.unfollowable,
        summary.referrals.max_depth,
    );
    println!(
        "virtual campaign time: {} s",
        summary.finished_unix - summary.started_unix
    );

    let report = assess(&records);
    println!("\n{report}");

    // The acceptance numbers, spelled out.
    println!("headline shares (of {} OPC UA hosts):", report.hosts);
    for deficit in [
        Deficit::OnlyNoneMode,
        Deficit::NoneModeOffered,
        Deficit::DeprecatedPolicy,
        Deficit::SelfSignedCertificate,
        Deficit::ExpiredCertificate,
        Deficit::CertificateTooWeak,
        Deficit::ReusedCertificate,
        Deficit::SharedPrimeKey,
        Deficit::AnonymousAccess,
        Deficit::DataWritable,
    ] {
        println!(
            "  {:<30} {:>5.1} %  ({} hosts)",
            deficit.label(),
            100.0 * report.share(deficit),
            report.count(deficit),
        );
    }
}
