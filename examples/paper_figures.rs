//! The paper's headline deficit shares next to the measured ones.
//!
//! A paper-like population (`StrataMix::paper_like(300)` in
//! `10.0.0.0/20`) is deployed, scanned and assessed, and every deficit
//! the paper quotes a share of OPC UA hosts for (§5: servers offering
//! only mode None, deprecated policies, anonymous access, self-signed
//! certificates, shared prime factors) is printed beside the share this
//! run measured. `internet_scan` prints the full report of a paper-like
//! campaign; this example prints only the comparison.
//!
//! ```sh
//! cargo run --release --example paper_figures           # default seed
//! cargo run --release --example paper_figures -- 99     # custom seed
//! ```

use opcua_study::prelude::*;

/// The paper's headline shares of OPC UA hosts.
const PAPER_SHARES: [(Deficit, f64); 5] = [
    (Deficit::OnlyNoneMode, 0.24),
    (Deficit::DeprecatedPolicy, 0.45),
    (Deficit::AnonymousAccess, 0.50),
    (Deficit::SelfSignedCertificate, 0.99),
    (Deficit::SharedPrimeKey, 0.0),
];

fn main() {
    let seed: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(2020);

    let net = Internet::new(VirtualClock::default());
    let universe: Cidr = "10.0.0.0/20".parse().unwrap();
    let cfg = PopulationConfig::new(seed, vec![universe], StrataMix::paper_like(300));
    let population = synthesize(&net, &cfg);
    let scanner = Scanner::new(net, Blocklist::new(), ScanConfig::default());
    let (_, records) = scanner.scan_collect(&[universe], seed);
    let report = assess(&records);

    println!(
        "paper figures: {} deployments in {universe}, {} OPC UA hosts (seed {seed})\n",
        population.len(),
        report.hosts
    );
    println!("  {:<26} {:>8} {:>9}", "deficit", "paper", "measured");
    for (deficit, paper) in PAPER_SHARES {
        println!(
            "  {:<26} {:>6.1} % {:>7.1} %",
            deficit.label(),
            100.0 * paper,
            100.0 * report.share(deficit)
        );
    }
}
