//! Certificate-hygiene walkthrough on the real pipeline (§5.2–§5.3):
//! a population heavy on certificate deficits — expired validity
//! windows, keys/hashes too weak for the advertised policy, one
//! certificate deployed across many hosts, and RSA keys sharing a prime
//! factor — is deployed, scanned (including LDS referral following),
//! and assessed, then each finding is cross-checked against the
//! deployment ground truth.
//!
//! Deterministic: the same seed prints the same numbers. Any
//! `[MISMATCH]` makes the example exit 1.
//!
//! ```sh
//! cargo run --release --example cert_hygiene            # default seed
//! cargo run --release --example cert_hygiene -- 99      # custom seed
//! ```

use opcua_study::prelude::*;

fn main() {
    let seed: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(2020);

    let net = Internet::new(VirtualClock::default());
    let universe: Cidr = "10.80.0.0/21".parse().unwrap();
    // Certificate-focused strata, plus a healthy control group and a
    // couple of discovery servers so referral-discovered hosts join the
    // certificate analysis too.
    let mix = StrataMix::new()
        .with(HostClass::ExpiredCert, 8)
        .with(HostClass::WeakCert, 8)
        .with(HostClass::ReusedCert, 10)
        .with(HostClass::SharedPrime, 4)
        .with(HostClass::SecureModern, 8)
        .with(HostClass::SecureCa, 4)
        .with(HostClass::DiscoveryServer, 2)
        .with(HostClass::HiddenServer, 3);
    let cfg = PopulationConfig::new(seed, vec![universe], mix);
    let population = synthesize(&net, &cfg);
    println!(
        "deployed {} hosts in {universe} (seed {seed})",
        population.len()
    );

    let scanner = Scanner::new(net, Blocklist::new(), ScanConfig::default());
    let (summary, records) = scanner.scan_collect(&[universe], seed);
    println!(
        "scanned: {} OPC UA hosts ({} via LDS referral), {} certificates collected\n",
        summary.opcua_hosts,
        summary.referrals.opcua_hosts,
        records
            .iter()
            .map(|r| r.certificates().len())
            .sum::<usize>(),
    );

    let report = assess(&records);

    // --- Walkthrough, one §5 finding at a time. ---
    let mut mismatches = 0usize;
    let mut check = |label: &str, found: usize, expected: usize| {
        let mark = if found == expected {
            "ok"
        } else {
            mismatches += 1;
            "MISMATCH"
        };
        println!("  {label:<42} found {found:>3}, ground truth {expected:>3}  [{mark}]");
    };

    println!("certificate validity (§5.2):");
    check(
        "expired at scan time",
        report.count(Deficit::ExpiredCertificate),
        population.count(HostClass::ExpiredCert),
    );

    println!("\ncertificate strength vs advertised policy (§5.2):");
    check(
        "hash/key too weak for policy",
        report.count(Deficit::CertificateTooWeak),
        population.count(HostClass::WeakCert),
    );

    println!("\ncertificate reuse across hosts (§5.3):");
    check(
        "hosts serving a shared certificate",
        report.count(Deficit::ReusedCertificate),
        population.count(HostClass::ReusedCert),
    );
    for cluster in &report.reuse_clusters {
        println!(
            "    cluster {}…: {} hosts ({} … {})",
            &cluster.thumbprint_hex[..16],
            cluster.hosts.len(),
            cluster.hosts.first().unwrap(),
            cluster.hosts.last().unwrap(),
        );
    }

    println!("\nshared prime factors, batch GCD (§5.3):");
    check(
        "hosts whose RSA moduli share a prime",
        report.count(Deficit::SharedPrimeKey),
        population.count(HostClass::SharedPrime),
    );
    for pair in &report.shared_prime_pairs {
        println!(
            "    {} ↔ {}  (keys factorable by the other's prime)",
            pair.a, pair.b
        );
    }

    println!("\nidentity chains:");
    // Every certificate-bearing stratum here is self-signed except the
    // CA-issued control group; LDS hosts serve no certificate at all.
    let self_signed_expected = [
        HostClass::ExpiredCert,
        HostClass::WeakCert,
        HostClass::ReusedCert,
        HostClass::SharedPrime,
        HostClass::SecureModern,
        HostClass::HiddenServer,
    ]
    .iter()
    .map(|&c| population.count(c))
    .sum::<usize>();
    check(
        "self-signed certificates",
        report.count(Deficit::SelfSignedCertificate),
        self_signed_expected,
    );
    // Whoever is left after removing self-signed hosts and the
    // certificate-less LDS hosts must be the CA-issued control group.
    let cert_less = report
        .host_reports
        .iter()
        .filter(|h| h.is_discovery_server)
        .count();
    check(
        "CA-issued certificates (clean)",
        report.hosts - report.count(Deficit::SelfSignedCertificate) - cert_less,
        population.count(HostClass::SecureCa),
    );

    println!("\n{report}");
    if mismatches > 0 {
        std::process::exit(1);
    }
}
