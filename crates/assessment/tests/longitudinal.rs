//! End-to-end longitudinal integration: a churned world scanned by
//! weekly campaigns must produce exactly the churn series its ground
//! truth predicts.
//!
//! The ground-truth mirror applies the *same* diffing rules
//! ([`assessment::diff`]) to the world's true per-week state
//! (addresses, certificate thumbprints, version visibility), so any
//! divergence between planted and detected churn — a host the scanner
//! missed, a stale referral, a broken identity match — fails the test.

use assessment::{assess, diff, HostObservation, LongitudinalAssessor, WeekSnapshot};
use netsim::{Blocklist, Cidr, Internet, VirtualClock};
use population::{ChurnConfig, EvolvingWorld, HostClass, PopulationConfig, StrataMix};
use scanner::{Campaign, ScanConfig, Scanner};

/// What the scanner *should* observe this week — the world's own
/// scanner-visibility rule ([`EvolvingWorld::observable_truth`]),
/// projected into the differ's observation type.
fn truth_snapshot(week: u32, world: &EvolvingWorld) -> WeekSnapshot {
    WeekSnapshot {
        week,
        hosts: world
            .observable_truth()
            .into_iter()
            .map(|t| HostObservation {
                address: t.address,
                port: t.port,
                thumbprint: t.thumbprint,
                software_version: t.software_version,
            })
            .collect(),
    }
}

#[test]
fn scan_derived_deltas_match_planted_ground_truth() {
    let net = Internet::new(VirtualClock::default());
    let universe: Cidr = "10.80.0.0/22".parse().unwrap();
    let mix = StrataMix::new()
        .with(HostClass::SecureModern, 6)
        .with(HostClass::WideOpen, 3)
        .with(HostClass::ExpiredCert, 2)
        .with(HostClass::BrokenSession, 1)
        .with(HostClass::DiscoveryServer, 2)
        .with(HostClass::HiddenServer, 2);
    let cfg = PopulationConfig::new(2020, vec![universe], mix);
    // Aggressive rates so four weeks plant every event class.
    let churn = ChurnConfig {
        ip_move: 0.3,
        departure: 0.08,
        arrival: 0.15,
        renewal: 0.2,
        upgrade: 0.3,
        downgrade: 0.05,
        remediation: 0.1,
        regression: 0.1,
    };
    let mut world = EvolvingWorld::new_lazy(&net, &cfg, churn);
    let scan_config = ScanConfig {
        workers: 2,
        ..ScanConfig::default()
    };
    let mut campaign = Campaign::new(Scanner::new(net, Blocklist::new(), scan_config));
    let mut longitudinal = LongitudinalAssessor::new();
    let mut truth_prev: Option<WeekSnapshot> = None;
    let mut planted_moves = 0;
    let mut planted_renewals = 0;
    let mut detected_moves = 0;

    for week in 0..4u32 {
        let scan = {
            let world = &mut world;
            campaign.run_week(&[universe], 2020, |w| {
                if w > 0 {
                    let log = world.evolve(w);
                    planted_moves += log.moves();
                    planted_renewals += log.renewals();
                }
            })
        };
        let report = assess(&scan.records);
        let point = longitudinal.fold_week(&scan.records, &report).clone();
        assert_eq!(
            point.delta.hosts,
            world.alive_count(),
            "week {week}: scanner missed hosts"
        );

        let truth = truth_snapshot(week, &world);
        if let Some(prev) = &truth_prev {
            let truth_delta = diff(prev, &truth);
            assert_eq!(
                point.delta, truth_delta,
                "week {week}: scan-derived delta diverges from ground truth"
            );
            detected_moves += point.delta.moved_hosts;
        }
        truth_prev = Some(truth);
    }

    // The study actually churned, and identity matching actually fired.
    assert!(planted_moves > 0, "churn model planted no moves");
    assert!(planted_renewals > 0, "churn model planted no renewals");
    assert!(
        detected_moves > 0,
        "no stable-key-despite-IP-churn match in four weeks of 30% moves"
    );
    // Detection can only miss ambiguous/certificate-less movers, never
    // invent extras.
    assert!(detected_moves <= planted_moves);

    let series = longitudinal.finalize();
    assert_eq!(series.weeks.len(), 4);
    assert_eq!(series.churn_total(|d| d.moved_hosts), detected_moves);
}

#[test]
fn frozen_world_yields_zero_churn_series() {
    let net = Internet::new(VirtualClock::default());
    let universe: Cidr = "10.81.0.0/23".parse().unwrap();
    let cfg = PopulationConfig::new(7, vec![universe], StrataMix::paper_like(30));
    let mut world = EvolvingWorld::new_lazy(&net, &cfg, ChurnConfig::frozen());
    let mut campaign = Campaign::new(Scanner::new(net, Blocklist::new(), ScanConfig::default()));
    let mut longitudinal = LongitudinalAssessor::new();
    for week in 0..3u32 {
        let scan = {
            let world = &mut world;
            campaign.run_week(&[universe], 7, |w| {
                if w > 0 {
                    world.evolve(w);
                }
            })
        };
        let report = assess(&scan.records);
        longitudinal.fold_week(&scan.records, &report);
        let _ = week;
    }
    let series = longitudinal.finalize();
    assert_eq!(series.churn_total(|d| d.new_hosts), 0);
    assert_eq!(series.churn_total(|d| d.vanished_hosts), 0);
    assert_eq!(series.churn_total(|d| d.moved_hosts), 0);
    assert_eq!(series.churn_total(|d| d.renewed_certs), 0);
    assert_eq!(series.churn_total(|d| d.upgrades), 0);
    // The deficit trajectory is flat: same hosts, same deficits.
    for deficit in assessment::Deficit::ALL {
        let trajectory = series.deficit_trajectory(deficit);
        assert!(
            trajectory.windows(2).all(|w| w[0] == w[1]),
            "{deficit:?} trajectory moved in a frozen world: {trajectory:?}"
        );
    }
}
