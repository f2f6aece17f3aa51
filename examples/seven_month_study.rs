//! The seven-month study, replayed: weekly internet-wide campaigns over
//! an *evolving* population (§4, §6 of the paper).
//!
//! A paper-like world is deployed on 2020-02-09 (the paper's first
//! measurement) and then churned week over week — DHCP-style IP
//! reassignment, host arrivals and departures, certificate renewals,
//! software upgrades and rollbacks, deficit remediation and regression.
//! Each week one full campaign (sweep + referral following) scans the
//! universe; consecutive campaigns are diffed into the paper's series:
//! hosts seen/new/vanished, stable-key-despite-IP-churn matches (the
//! certificate thumbprint is the cross-week identity, §4.3),
//! certificate renewals, `software_version` upgrade detection, and
//! deficit-rate trajectories.
//!
//! Every series is cross-checked against a ground-truth mirror built
//! from the world's true state with the same diffing rules — any
//! `[MISMATCH]` means the scanner lost track of the fleet (CI greps for
//! it).
//!
//! Deterministic: the same seed prints the same seven months, at any
//! worker count (CI diffs a 1-worker against a 4-worker run). The world
//! is deployed through [`EvolvingWorld::new_lazy`] — hosts built on
//! first probe contact — and the materialization counters go to stderr
//! so diffs stay clean.
//!
//! ```sh
//! cargo run --release --example seven_month_study             # 30 weeks
//! cargo run --release --example seven_month_study -- 1234 4   # seed, workers
//! cargo run --release --example seven_month_study -- 1234 4 6 # ... 6 weeks
//! ```

use assessment::{diff, HostObservation, LongitudinalAssessor, WeekDelta, WeekSnapshot};
use opcua_study::prelude::*;

/// Gregorian (year, month, day) from unix seconds — Howard Hinnant's
/// civil-from-days, enough for the weekly date column.
fn ymd(unix: i64) -> (i64, u32, u32) {
    let days = unix.div_euclid(86_400);
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let day = (doy - (153 * mp + 2) / 5 + 1) as u32;
    let month = if mp < 10 { mp + 3 } else { mp - 9 } as u32;
    let year = yoe + era * 400 + i64::from(month <= 2);
    (year, month, day)
}

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

fn add(total: &mut WeekDelta, d: &WeekDelta) {
    total.hosts += d.hosts;
    total.new_hosts += d.new_hosts;
    total.vanished_hosts += d.vanished_hosts;
    total.stable_hosts += d.stable_hosts;
    total.moved_hosts += d.moved_hosts;
    total.renewed_certs += d.renewed_certs;
    total.upgrades += d.upgrades;
    total.downgrades += d.downgrades;
}

fn main() {
    let mut args = std::env::args().skip(1);
    let seed: u64 = args.next().and_then(|s| s.parse().ok()).unwrap_or(2020);
    let workers: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(1);
    // At least one campaign: the study needs a baseline week, and the
    // summary arithmetic below assumes weeks >= 1.
    let weeks: u32 = args
        .next()
        .and_then(|s| s.parse().ok())
        .unwrap_or(30)
        .max(1);

    // 2020-02-09, the paper's first campaign.
    let net = Internet::new(VirtualClock::default());
    let universe: Cidr = "10.32.0.0/20".parse().unwrap();
    let cfg = PopulationConfig::new(seed, vec![universe], StrataMix::paper_like(60));
    let mut world = EvolvingWorld::new_lazy(&net, &cfg, ChurnConfig::default());
    println!(
        "seven-month study: {} hosts in {universe}, {weeks} weekly campaigns (seed {seed})",
        world.alive_count()
    );

    let scan_config = ScanConfig {
        workers,
        ..ScanConfig::default()
    };
    let mut campaign = Campaign::new(Scanner::new(net, Blocklist::new(), scan_config));
    let mut longitudinal = LongitudinalAssessor::new();

    // Ground-truth mirror: the same diff over the world's true state.
    let mut truth_prev: Option<WeekSnapshot> = None;
    let mut detected_total = WeekDelta::default();
    let mut truth_total = WeekDelta::default();
    let mut delta_mismatch_weeks = 0usize;
    let mut deficit_mismatch_weeks = 0usize;

    println!(
        "\n{:>4}  {:<10} {:>5} {:>4} {:>4} {:>5} {:>5} {:>3} {:>4}  {:>6} {:>6}",
        "week", "date", "hosts", "new", "gone", "moved", "renew", "up", "down", "none%", "anon%"
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
        let report = assessment::assess(&scan.records);
        let point = longitudinal.fold_week(&scan.records, &report).clone();
        let d = point.delta;
        let (y, m, day) = ymd(scan.summary.started_unix);
        println!(
            "{:>4}  {y}-{m:02}-{day:02} {:>5} {:>4} {:>4} {:>5} {:>5} {:>3} {:>4}  {:>6.1} {:>6.1}",
            week,
            d.hosts,
            d.new_hosts,
            d.vanished_hosts,
            d.moved_hosts,
            d.renewed_certs,
            d.upgrades,
            d.downgrades,
            100.0 * point.deficit_rate(Deficit::NoneModeOffered),
            100.0 * point.deficit_rate(Deficit::AnonymousAccess),
        );

        // Cross-check against the world's true state.
        let truth = truth_snapshot(week, &world);
        if let Some(prev) = &truth_prev {
            let truth_delta = diff(prev, &truth);
            if d != truth_delta {
                delta_mismatch_weeks += 1;
            }
            add(&mut detected_total, &d);
            add(&mut truth_total, &truth_delta);
        }
        truth_prev = Some(truth);

        // Deficit trajectories against the deployed configurations.
        let expected_none = world
            .alive()
            .filter(|dep| {
                dep.config
                    .endpoints
                    .iter()
                    .any(|e| e.mode == MessageSecurityMode::None)
            })
            .count();
        let expected_anon = world
            .alive()
            .filter(|dep| dep.config.token_types.contains(&UserTokenType::Anonymous))
            .count();
        if report.count(Deficit::NoneModeOffered) != expected_none
            || report.count(Deficit::AnonymousAccess) != expected_anon
        {
            deficit_mismatch_weeks += 1;
        }
    }

    // Planted ground truth across the whole study.
    let planted = world.history();
    let sum =
        |f: &dyn Fn(&population::WeekChurn) -> usize| -> usize { planted.iter().map(f).sum() };
    println!(
        "\nplanted churn: {} moves, {} departures, {} arrivals, {} renewals, \
         {} upgrades, {} downgrades, {} remediations, {} regressions",
        sum(&|w| w.moves()),
        sum(&|w| w.departures()),
        sum(&|w| w.arrivals()),
        sum(&|w| w.renewals()),
        sum(&|w| w.upgrades()),
        sum(&|w| w.downgrades()),
        sum(&|w| w.remediations()),
        sum(&|w| w.regressions()),
    );
    let certs = campaign.cert_stats();
    println!(
        "certificate interning across the study: {} sightings, {} distinct ({:.0} % hit rate)",
        certs.sightings,
        certs.distinct,
        certs.hit_rate() * 100.0,
    );

    let mut mismatches = 0usize;
    let mut check = |label: &str, found: usize, expected: usize| {
        let mark = if found == expected {
            "ok"
        } else {
            mismatches += 1;
            "MISMATCH"
        };
        println!("  {label:<52} found {found:>4}, ground truth {expected:>4}  [{mark}]");
    };

    println!("\nground-truth cross-checks:");
    check(
        "weeks whose full delta matches the truth mirror",
        (weeks as usize - 1) - delta_mismatch_weeks,
        weeks as usize - 1,
    );
    check(
        "weeks whose deficit counts match deployed configs",
        weeks as usize - deficit_mismatch_weeks,
        weeks as usize,
    );
    check("new hosts", detected_total.new_hosts, truth_total.new_hosts);
    check(
        "vanished hosts",
        detected_total.vanished_hosts,
        truth_total.vanished_hosts,
    );
    check(
        "moved hosts (stable key, new IP)",
        detected_total.moved_hosts,
        truth_total.moved_hosts,
    );
    check(
        "certificate renewals",
        detected_total.renewed_certs,
        truth_total.renewed_certs,
    );
    check(
        "software upgrades detected",
        detected_total.upgrades,
        truth_total.upgrades,
    );
    check(
        "software downgrades detected",
        detected_total.downgrades,
        truth_total.downgrades,
    );
    check(
        "final-week living hosts",
        longitudinal
            .finalize()
            .weeks
            .last()
            .map(|p| p.delta.hosts)
            .unwrap_or(0),
        world.alive_count(),
    );

    if mismatches == 0 {
        println!("\nall longitudinal series agree with the planted ground truth");
    } else {
        println!("\n{mismatches} series diverge from ground truth");
    }

    // Materialization counters go to stderr, outside the diffed output.
    let stats = world.stats();
    eprintln!(
        "materialization: {} hosts built, {} keygens, \
         ~{} bytes resident (peak ~{})",
        stats.hosts_materialized,
        stats.keygen_count,
        stats.bytes_resident_estimate,
        stats.peak_bytes_resident_estimate,
    );
}
