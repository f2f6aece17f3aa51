//! Live deployment audit on the *incremental* assessment API: records
//! stream out of the sharded scanner and fold into an [`Assessor`] as
//! they arrive, printing running per-deficit counts while the campaign
//! is still probing — no record buffering anywhere.
//!
//! Deterministic: the same seed prints the same numbers for any worker
//! count.
//!
//! ```sh
//! cargo run --release --example deployment_audit            # defaults
//! cargo run --release --example deployment_audit -- 7 4     # seed 7, 4 workers
//! ```

use assessment::Assessor;
use opcua_study::prelude::*;

fn main() {
    let mut args = std::env::args().skip(1);
    let seed: u64 = args.next().and_then(|s| s.parse().ok()).unwrap_or(2020);
    let workers: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(2);

    let net = Internet::new(VirtualClock::default());
    let universe: Cidr = "10.60.0.0/21".parse().unwrap();
    let cfg = PopulationConfig::new(seed, vec![universe], StrataMix::paper_like(120));
    let population = synthesize(&net, &cfg);
    println!(
        "auditing {} deployments in {universe} (seed {seed})",
        population.len()
    );

    let config = ScanConfig {
        workers,
        ..ScanConfig::default()
    };
    let scanner = Scanner::new(net, Blocklist::new(), config);

    // The running tallies we narrate while the scan runs. Cross-host
    // deficits (reused certs, shared primes) stay 0 until finalize —
    // they cannot be attributed before the population is complete.
    let watched = [
        Deficit::OnlyNoneMode,
        Deficit::DeprecatedPolicy,
        Deficit::AnonymousAccess,
        Deficit::DataWritable,
    ];
    let mut assessor = Assessor::new();
    let summary = scanner.scan_with(&[universe], seed, |record| {
        assessor.fold(&record);
        let seen = assessor.hosts_seen();
        if seen > 0 && seen.is_multiple_of(25) {
            let counts: Vec<String> = watched
                .iter()
                .map(|&d| format!("{}: {}", d.label(), assessor.running_count(d)))
                .collect();
            println!("  after {seen:>4} hosts — {}", counts.join(", "));
        }
    });
    println!(
        "scan done: {} probes sent, {} OPC UA hosts, {} other listeners",
        summary.sweep.probes_sent, summary.opcua_hosts, summary.non_opcua_hosts
    );

    // Batch GCD and cross-host clustering happen only now.
    let report = assessor.finalize();
    println!("\n{report}");
}
