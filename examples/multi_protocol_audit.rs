//! Audit a two-protocol Internet — plain `opc.tcp` next to TLS-wrapped
//! `uat-tls` — with one campaign, and prove the suite layer's story
//! against planted ground truth.
//!
//! The world deploys the usual OPC UA strata on 4840 plus
//! [`MultiProtoPlan`]'s TLS strata on 4843: wrappers done right,
//! wrappers over anonymous inner servers, and wrappers serving expired
//! certificates — the "Missed Opportunities" deficits. Both suites run
//! with vendor fingerprinting, so the audit also recovers the vendor
//! each synthesized stack betrays through its error taxonomy. Checks:
//!
//! 1. **Coverage**: every planted `uat-tls` host yields a speaking
//!    record; typed payloads partition the records by suite.
//! 2. **Deficit columns**: TLS-but-anonymous and TLS-cert-expired
//!    counts equal the planted strata exactly.
//! 3. **Vendor breakdown**: fingerprinting attributes every host — on
//!    both ports — to exactly the vendor the synthesis planted.
//! 4. **Composition**: the mixed-registry sweep equals the literal
//!    concatenation of the single-suite sweeps.
//! 5. **Determinism**: the campaign is byte-identical across worker
//!    counts and in-flight caps.
//!
//! ```sh
//! cargo run --release --example multi_protocol_audit            # default seed
//! cargo run --release --example multi_protocol_audit -- 1234    # custom seed
//! cargo run --release --example multi_protocol_audit -- 2020 4  # 4 workers
//! ```
//!
//! The optional second argument picks the worker count for the *main*
//! campaign; stdout must be byte-identical for any choice
//! (`examples/golden.sh` checks the default and the 4-worker run against
//! one golden file).

use std::sync::Arc;

use opcua_study::prelude::*;

/// Sweep-visible strata only (no referral-only classes), so planted
/// hosts correspond 1:1 to sweep records and the vendor oracle is
/// exact without referral-reachability caveats.
fn sweep_mix() -> StrataMix {
    StrataMix::new()
        .with(HostClass::WideOpen, 8)
        .with(HostClass::DeprecatedOnly, 6)
        .with(HostClass::MixedLegacy, 6)
        .with(HostClass::SecureModern, 5)
        .with(HostClass::ExpiredCert, 3)
        .with(HostClass::ReusedCert, 4)
        .with(HostClass::DiscoveryServer, 4)
}

/// A fresh, identically-seeded two-protocol world per run (two scans
/// over one net would advance the same clock twice).
fn build(seed: u64) -> (Internet, Vec<Cidr>, Population, MultiProtoPlan) {
    let net = Internet::new(VirtualClock::default());
    let universe: Vec<Cidr> = vec!["10.62.0.0/22".parse().unwrap()];
    let cfg = PopulationConfig::new(seed, universe.clone(), sweep_mix());
    let population = synthesize(&net, &cfg);
    let plan = MultiProtoPlan::deploy(&net, &universe, &MultiProtoConfig::sample(), seed);
    (net, universe, population, plan)
}

fn audit_config(workers: usize, max_in_flight: usize) -> ScanConfig {
    ScanConfig::builder()
        .workers(workers)
        .max_in_flight(max_in_flight)
        .suite(DEFAULT_OPCUA_PORT, Arc::new(OpcUaSuite::with_fingerprint()))
        .suite(
            DEFAULT_UATLS_PORT,
            Arc::new(UatTlsSuite::with_fingerprint()),
        )
        .build()
        .expect("valid two-suite config")
}

fn scan(
    seed: u64,
    config: ScanConfig,
) -> (ScanSummary, Vec<ScanRecord>, Population, MultiProtoPlan) {
    let (net, universe, population, plan) = build(seed);
    let (summary, records) =
        Scanner::new(net, Blocklist::new(), config).scan_collect(&universe, seed);
    (summary, records, population, plan)
}

fn check(label: &str, ok: bool) -> bool {
    println!("{} {label}", if ok { "[ok]      " } else { "[MISMATCH]" });
    ok
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

    // --- The two-suite campaign, against the planted oracles. --------
    let (summary, records, population, plan) = scan(seed, audit_config(workers, default_cap));

    // Partition the records by typed payload. Exhaustive on purpose:
    // adding a suite must force this audit to account for its records
    // (ua-lint rejects a `_` arm here).
    let (mut opcua_speakers, mut tls_speakers, mut silent) = (0usize, 0usize, 0usize);
    for r in &records {
        match &r.payload {
            ProtocolPayload::OpcUa(p) => {
                if p.hello_ok {
                    opcua_speakers += 1;
                } else {
                    silent += 1;
                }
            }
            ProtocolPayload::UatTls(p) => {
                if p.tls_ok {
                    tls_speakers += 1;
                } else {
                    silent += 1;
                }
            }
        }
    }
    println!(
        "campaign: {} records — {opcua_speakers} opc.tcp speakers, \
         {tls_speakers} uat-tls speakers, {silent} silent",
        records.len(),
    );
    for class in TlsClass::ALL {
        println!("  planted {:<20} {}", class.label(), plan.count(class));
    }
    all_ok &= check(
        "every planted uat-tls host speaks the prologue",
        tls_speakers == plan.hosts.len(),
    );
    all_ok &= check(
        "every swept opc.tcp host completes the hello",
        opcua_speakers == population.len(),
    );

    // --- Deficit columns and vendor breakdown. ------------------------
    let report = assess(&records);
    all_ok &= check(
        "TLS-but-anonymous column matches the planted stratum",
        report.count(Deficit::TlsButAnonymous) == plan.expected_tls_anonymous(),
    );
    all_ok &= check(
        "TLS-cert-expired column matches the planted stratum",
        report.count(Deficit::TlsExpiredCert) == plan.expected_tls_expired(),
    );
    let mut expected_vendors = population_vendor_counts(&population);
    for (vendor, n) in plan.vendor_counts() {
        *expected_vendors.entry(vendor).or_default() += n;
    }
    all_ok &= check(
        "vendor fingerprints recover the planted breakdown on both ports",
        report.vendor_counts == expected_vendors && report.unfingerprinted == 0,
    );

    // --- Mixed registry == concatenation of single-suite sweeps. ------
    let opcua_only = ScanConfig::builder()
        .suite(DEFAULT_OPCUA_PORT, Arc::new(OpcUaSuite::with_fingerprint()))
        .build()
        .expect("valid opcua-only config");
    let uattls_only = ScanConfig::builder()
        .suite(
            DEFAULT_UATLS_PORT,
            Arc::new(UatTlsSuite::with_fingerprint()),
        )
        .referral_depth(0)
        .build()
        .expect("valid uat-tls-only config");
    let (_, opcua_records, _, _) = scan(seed, opcua_only);
    let (_, tls_records, _, _) = scan(seed, uattls_only);
    let concat: Vec<ScanRecord> = opcua_records.into_iter().chain(tls_records).collect();
    all_ok &= check(
        "mixed registry equals the concatenation of single-suite sweeps",
        records == concat,
    );

    // --- Byte identity across worker counts and in-flight caps. -------
    for (other_workers, cap, label) in [
        (1, 1, "1 worker, in-flight cap 1"),
        (4, default_cap, "4 workers"),
        (8, 16, "8 workers, in-flight cap 16"),
    ] {
        let (s, r, _, _) = scan(seed, audit_config(other_workers, cap));
        all_ok &= check(
            &format!("byte-identical: {label}"),
            s == summary && r == records,
        );
    }

    println!("\n{report}");
    if !all_ok {
        std::process::exit(1);
    }
    println!("multi-protocol ground truth and determinism hold (seed {seed})");
}
