//! Shard-count determinism: for a fixed seed, the sharded pipeline must
//! produce byte-identical records, in identical order, with an identical
//! summary, no matter how many workers run the campaign.

use netsim::{Blocklist, Cidr, Internet, VirtualClock};
use population::{synthesize, HostClass, PopulationConfig, StrataMix};
use scanner::{ScanConfig, ScanRecord, ScanSummary, Scanner};

const SEED: u64 = 20_200_209;

/// A fresh, identically-seeded world for every run: two scans over one
/// shared net would advance the same virtual clock twice.
fn build_world() -> (Internet, Vec<Cidr>) {
    let net = Internet::new(VirtualClock::default());
    let universe: Vec<Cidr> = ["10.40.0.0/22", "172.28.0.0/23"]
        .iter()
        .map(|s| s.parse().unwrap())
        .collect();
    let cfg = PopulationConfig::new(SEED, universe.clone(), StrataMix::paper_like(60));
    synthesize(&net, &cfg);
    (net, universe)
}

fn scan_with_workers(workers: usize) -> (ScanSummary, Vec<ScanRecord>) {
    let (net, universe) = build_world();
    let mut blocklist = Blocklist::new();
    blocklist.add_str("10.40.3.0/24").unwrap();
    let config = ScanConfig {
        workers,
        ..ScanConfig::default()
    };
    Scanner::new(net, blocklist, config).scan_collect(&universe, SEED)
}

#[test]
fn worker_counts_1_2_8_are_byte_identical() {
    let (summary1, records1) = scan_with_workers(1);
    assert!(
        summary1.opcua_hosts > 10,
        "population should yield a meaningful scan, got {summary1:?}"
    );
    // The paper mix hides servers behind LDS referrals: the campaign
    // must actually exercise the referral phase, or this test proves
    // nothing about its determinism.
    assert!(
        summary1.referrals.followed > 0,
        "campaign should follow referrals, got {:?}",
        summary1.referrals
    );
    assert!(records1.iter().any(|r| r.via.is_referral()));

    for workers in [2usize, 8] {
        let (summary, records) = scan_with_workers(workers);
        assert_eq!(
            summary, summary1,
            "summary must not depend on worker count (workers={workers})"
        );
        assert_eq!(
            records.len(),
            records1.len(),
            "record count must not depend on worker count (workers={workers})"
        );
        for (i, (a, b)) in records.iter().zip(&records1).enumerate() {
            assert_eq!(
                a, b,
                "record {i} differs between workers={workers} and workers=1"
            );
        }
        // Belt and braces: the rendered debug form is byte-identical too.
        assert_eq!(format!("{records:?}"), format!("{records1:?}"));
    }
}

#[test]
fn final_report_identical_across_worker_counts() {
    let reports: Vec<String> = [1usize, 2, 8]
        .iter()
        .map(|&workers| {
            let (_, records) = scan_with_workers(workers);
            assessment::assess(&records).to_string()
        })
        .collect();
    assert_eq!(reports[0], reports[1]);
    assert_eq!(reports[0], reports[2]);
}

/// End-to-end referral following over a synthesized world: every
/// referral-only host (non-default port, invisible to the sweep) is
/// found with correct provenance, dead/self/unresolvable referrals are
/// accounted, loops terminate — and all of it byte-identical at any
/// worker count.
#[test]
fn referral_following_end_to_end_across_worker_counts() {
    let build = || {
        let net = Internet::new(VirtualClock::default());
        let universe: Vec<Cidr> = vec!["10.44.0.0/22".parse().unwrap()];
        let mix = StrataMix::new()
            .with(HostClass::WideOpen, 6)
            .with(HostClass::SecureModern, 4)
            .with(HostClass::DiscoveryServer, 4)
            .with(HostClass::HiddenServer, 5)
            .with(HostClass::ChainedLds, 3);
        let cfg = PopulationConfig::new(SEED, universe.clone(), mix);
        let pop = synthesize(&net, &cfg);
        (net, universe, pop)
    };

    let scan = |workers: usize| {
        let (net, universe, pop) = build();
        let config = ScanConfig {
            workers,
            ..ScanConfig::default()
        };
        let (summary, records) =
            Scanner::new(net, Blocklist::new(), config).scan_collect(&universe, SEED);
        (summary, records, pop)
    };

    let (summary1, records1, pop) = scan(1);

    // Every deployed host — including the referral-only strata — is
    // found and speaks OPC UA.
    assert_eq!(summary1.opcua_hosts as usize, pop.len());
    for host in &pop.hosts {
        let record = records1
            .iter()
            .find(|r| r.address == host.address && r.port == host.port)
            .unwrap_or_else(|| panic!("{}:{} missing from scan", host.address, host.port));
        assert_eq!(
            record.via.is_referral(),
            host.class.referral_only(),
            "{:?} at {}:{} has wrong provenance {:?}",
            host.class,
            host.address,
            host.port,
            record.via
        );
    }

    // Chains actually deepen (LDS → chained LDS → hidden server), the
    // planted dead referrals and unresolvable names are accounted, and
    // loops (chained LDS ↔ referrer, chained cycle) terminate as dedup
    // hits rather than hanging the scan.
    let r = summary1.referrals;
    assert!(r.max_depth >= 2, "expected a chain, got {r:?}");
    assert_eq!(r.dead as usize, pop.count(HostClass::DiscoveryServer));
    assert_eq!(
        r.unfollowable as usize,
        pop.count(HostClass::DiscoveryServer)
    );
    assert!(r.already_probed > 0, "loops should dedup, got {r:?}");
    assert_eq!(
        r.followed as usize,
        pop.count(HostClass::HiddenServer) + pop.count(HostClass::ChainedLds) + r.dead as usize
    );

    // Byte-identical at any worker count — records, summary, report.
    for workers in [2usize, 8] {
        let (summary, records, _) = scan(workers);
        assert_eq!(summary, summary1, "workers={workers}");
        assert_eq!(records, records1, "workers={workers}");
    }
    let reports: Vec<String> = [1usize, 2, 8]
        .iter()
        .map(|&w| assessment::assess(&scan(w).1).to_string())
        .collect();
    assert_eq!(reports[0], reports[1]);
    assert_eq!(reports[0], reports[2]);
    // The paper-style summary names the referral-only hosts.
    assert!(reports[0].contains("referral-only"));
}
