//! Deterministic weekly evolution of a deployed population — the
//! churn behind the paper's seven-month longitudinal study (§4, §6).
//!
//! Real deployments do not sit still between campaigns: DHCP leases
//! expire and hand hosts new addresses, devices appear and disappear,
//! certificates get renewed, firmware gets upgraded (and occasionally
//! rolled back), and operators sometimes fix — or reintroduce —
//! configuration deficits. [`EvolvingWorld`] applies exactly those
//! event classes once per simulated week, mutating the shared
//! [`netsim::Internet`] in place so a multi-campaign scanner observes
//! the churn the way the paper's scanner did.
//!
//! Everything is a pure function of `(seed, week, host id)`: each host
//! draws every weekly decision from its own salted RNG stream, so the
//! same seed replays the same seven months event for event regardless
//! of scanner worker counts, wall-clock timing — or *materialization
//! order*. That last property is what lets [`EvolvingWorld`] run the
//! study over a million-address universe: weekly churn updates only a
//! cheap per-host fate table, and the expensive material (keys,
//! certificates, server cores) is built, with all past events
//! replayed, the first time a probe reaches the host. The ground truth
//! of every planted event is logged per week ([`WeekChurn`]) for the
//! longitudinal assessment to validate against.
//!
//! Two deliberate scope choices keep the referral topology analyzable:
//! discovery servers (default-port LDS and chained LDS) never *depart*
//! — stale LDS would strand hidden servers behind unreachable referral
//! chains — and arrivals draw from swept (default-port, non-LDS)
//! classes only. Everything may still *move*: when a referenced host is
//! re-addressed, every live FindServers answer naming it is rewritten,
//! modeling servers that re-register with their LDS after a lease
//! change.

use crate::world::{MaterializationStats, WorldCore};
use crate::{HostClass, HostDeployment, Population, PopulationConfig};
use netsim::{Internet, Ipv4};
use std::sync::Arc;
use ua_crypto::Thumbprint;
use ua_types::UserTokenType;

/// Weekly churn probabilities, applied per host per week.
///
/// The defaults are flavored after the paper's observations: noticeable
/// IP churn week over week (§4.3 matches hosts across address changes
/// by key), slow fleet growth, certificate renewals and software
/// upgrades in the single-digit percent range (§6 found *most* hosts
/// never patched), and rare deficit remediation/regression.
#[derive(Debug, Clone)]
pub struct ChurnConfig {
    /// P(host is re-addressed this week) — DHCP-style reassignment; the
    /// host keeps its certificate, key, and configuration.
    pub ip_move: f64,
    /// P(host goes offline for good). Discovery servers are exempt (a
    /// departed LDS would strand its referral-only hosts unreachably).
    pub departure: f64,
    /// Expected arrivals as a fraction of the living population.
    /// Arrivals draw from swept, non-LDS classes.
    pub arrival: f64,
    /// P(certificate holder rolls its certificate over) — new serial
    /// and validity window, same subject and key, so the thumbprint
    /// changes while the modulus stays.
    pub renewal: f64,
    /// P(`software_version` increases this week).
    pub upgrade: f64,
    /// P(`software_version` decreases this week) — rollbacks happen.
    pub downgrade: f64,
    /// P(a host offering mode `None` drops it and goes secure-only,
    /// disabling anonymous access).
    pub remediation: f64,
    /// P(a secure-only host grows a `None` endpoint plus anonymous
    /// access) — the deficit *regressions* §6 observed.
    pub regression: f64,
}

impl Default for ChurnConfig {
    fn default() -> Self {
        ChurnConfig {
            ip_move: 0.05,
            departure: 0.02,
            arrival: 0.025,
            renewal: 0.015,
            upgrade: 0.03,
            downgrade: 0.008,
            remediation: 0.012,
            regression: 0.006,
        }
    }
}

impl ChurnConfig {
    /// A frozen world: every rate zero. Weekly campaigns over it must
    /// report zero churn — the longitudinal null experiment.
    pub fn frozen() -> Self {
        ChurnConfig {
            ip_move: 0.0,
            departure: 0.0,
            arrival: 0.0,
            renewal: 0.0,
            upgrade: 0.0,
            downgrade: 0.0,
            remediation: 0.0,
            regression: 0.0,
        }
    }
}

/// One planted ground-truth churn event.
#[derive(Debug, Clone, PartialEq)]
pub enum ChurnEvent {
    /// A new host joined the population.
    Arrived {
        /// Stratum of the arriving host.
        class: HostClass,
    },
    /// The host went offline permanently.
    Departed,
    /// DHCP handed the host a new address; identity (certificate, key,
    /// configuration) unchanged.
    Moved {
        /// The address the host vacated.
        from: Ipv4,
    },
    /// The certificate was rolled over (new thumbprint, same key).
    RenewedCert,
    /// `software_version` increased.
    Upgraded {
        /// Version before the upgrade.
        from: String,
        /// Version after the upgrade.
        to: String,
    },
    /// `software_version` decreased (rollback).
    Downgraded {
        /// Version before the rollback.
        from: String,
        /// Version after the rollback.
        to: String,
    },
    /// Mode-`None` endpoints and anonymous access were removed.
    Remediated,
    /// A mode-`None` endpoint plus anonymous access appeared.
    Regressed,
}

/// The ground-truth log of one week's evolution: every planted event,
/// keyed by stable host id (roster index).
#[derive(Debug, Clone, Default)]
pub struct WeekChurn {
    /// Week index (1-based; week 0 is the initial deployment).
    pub week: u32,
    /// Planted events in deterministic roster order.
    pub events: Vec<(u64, ChurnEvent)>,
}

impl WeekChurn {
    fn count(&self, pred: impl Fn(&ChurnEvent) -> bool) -> usize {
        self.events.iter().filter(|(_, e)| pred(e)).count()
    }

    /// Hosts that joined this week.
    pub fn arrivals(&self) -> usize {
        self.count(|e| matches!(e, ChurnEvent::Arrived { .. }))
    }

    /// Hosts that departed this week.
    pub fn departures(&self) -> usize {
        self.count(|e| matches!(e, ChurnEvent::Departed))
    }

    /// Hosts re-addressed this week.
    pub fn moves(&self) -> usize {
        self.count(|e| matches!(e, ChurnEvent::Moved { .. }))
    }

    /// Certificates rolled over this week.
    pub fn renewals(&self) -> usize {
        self.count(|e| matches!(e, ChurnEvent::RenewedCert))
    }

    /// Software upgrades this week.
    pub fn upgrades(&self) -> usize {
        self.count(|e| matches!(e, ChurnEvent::Upgraded { .. }))
    }

    /// Software rollbacks this week.
    pub fn downgrades(&self) -> usize {
        self.count(|e| matches!(e, ChurnEvent::Downgraded { .. }))
    }

    /// Deficits fixed this week.
    pub fn remediations(&self) -> usize {
        self.count(|e| matches!(e, ChurnEvent::Remediated))
    }

    /// Deficits reintroduced this week.
    pub fn regressions(&self) -> usize {
        self.count(|e| matches!(e, ChurnEvent::Regressed))
    }
}

/// What a scanner campaign *should* observe for one living host: the
/// probe target, the certificate identity, and the software version —
/// the latter only where an anonymous session would expose it (the
/// session probe reads BuildInfo after activating anonymously, so
/// hosts without an anonymous token, and hosts whose session config is
/// broken, never reveal their version). Ground-truth mirrors project
/// these into their observation types; the visibility rule lives here,
/// in one place.
#[derive(Debug, Clone, PartialEq)]
pub struct TruthObservation {
    /// Current address.
    pub address: Ipv4,
    /// Listening port.
    pub port: u16,
    /// Identity of the served certificate, if any.
    pub thumbprint: Option<Thumbprint>,
    /// `software_version` as visible to an anonymous scanner.
    pub software_version: Option<String>,
}

/// Strata weekly arrivals cycle through — swept, non-LDS classes only
/// (see the module docs for why the referral topology stays stable).
pub(crate) const ARRIVAL_CLASSES: [HostClass; 7] = [
    HostClass::WideOpen,
    HostClass::MixedLegacy,
    HostClass::SecureModern,
    HostClass::DeprecatedOnly,
    HostClass::ReusedCert,
    HostClass::BrokenSession,
    HostClass::WeakCert,
];

/// Mixes `(seed, week, host id)` into an independent per-host weekly
/// RNG seed (the world engine salts it further per event kind).
pub(crate) fn host_week_seed(seed: u64, week: u32, id: u64) -> u64 {
    seed ^ (week as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ id.wrapping_mul(0xD1B5_4A32_D192_ED03)
}

/// Parses a `major.minor.patch` version string.
pub(crate) fn parse_version(v: &str) -> Option<(u32, u32, u32)> {
    let mut parts = v.split('.').map(|p| p.parse::<u32>());
    match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(Ok(a)), Some(Ok(b)), Some(Ok(c)), None) => Some((a, b, c)),
        _ => None,
    }
}

/// A deployed population evolving week over week on a shared
/// [`Internet`].
///
/// ```
/// use netsim::{Internet, VirtualClock};
/// use population::{ChurnConfig, EvolvingWorld, PopulationConfig, StrataMix};
///
/// let net = Internet::new(VirtualClock::default());
/// let cfg = PopulationConfig::new(
///     7,
///     vec!["10.0.0.0/22".parse().unwrap()],
///     StrataMix::paper_like(30),
/// );
/// let mut world = EvolvingWorld::new_lazy(&net, &cfg, ChurnConfig::default());
/// let week0 = world.population().len();
/// let churn = world.evolve(1).clone();
/// assert_eq!(
///     world.population().len(),
///     week0 + churn.arrivals() - churn.departures(),
/// );
/// ```
pub struct EvolvingWorld {
    core: Arc<WorldCore>,
    net: Internet,
    pub(crate) churn: ChurnConfig,
    week: u32,
    history: Vec<WeekChurn>,
}

impl EvolvingWorld {
    /// Deploys the week-0 world for `cfg` onto `net` (see
    /// [`crate::LazyWorld::deploy`]) and wraps it in an evolving world
    /// with the given churn model. Hosts materialize on first probe
    /// contact, weekly churn updates only the cheap fate table, and
    /// memory stays proportional to the hosts campaigns actually touch
    /// (or the fleet, once a ground-truth exit such as
    /// [`EvolvingWorld::population`] built it).
    ///
    /// ```
    /// use netsim::{Internet, VirtualClock};
    /// use population::{ChurnConfig, EvolvingWorld, PopulationConfig, StrataMix};
    ///
    /// let net = Internet::new(VirtualClock::default());
    /// let cfg = PopulationConfig::new(
    ///     7,
    ///     vec!["10.0.0.0/16".parse().unwrap()],
    ///     StrataMix::paper_like(30),
    /// );
    /// let mut world = EvolvingWorld::new_lazy(&net, &cfg, ChurnConfig::default());
    /// world.evolve(1);
    /// // A full week of churn, and still nothing was built.
    /// assert_eq!(world.stats().hosts_materialized, 0);
    /// ```
    pub fn new_lazy(net: &Internet, cfg: &PopulationConfig, churn: ChurnConfig) -> EvolvingWorld {
        EvolvingWorld {
            core: WorldCore::new(net, cfg),
            net: net.clone(),
            churn,
            week: 0,
            history: Vec::new(),
        }
    }

    /// The week the world currently sits in (0 = initial deployment).
    pub fn week(&self) -> u32 {
        self.week
    }

    /// The shared Internet the world is deployed on.
    pub fn net(&self) -> &Internet {
        &self.net
    }

    /// Materialization telemetry so far.
    pub fn stats(&self) -> MaterializationStats {
        self.core.stats()
    }

    /// Ground truth of the *living* population, in roster order.
    /// **Materializes every living host** — this is the audit exit,
    /// not the fast path.
    pub fn population(&self) -> Population {
        self.core.population()
    }

    /// The living hosts' full deployments, in roster order (current
    /// state). **Materializes every living host.**
    pub fn alive(&self) -> impl Iterator<Item = HostDeployment> {
        self.core.map_alive(HostDeployment::clone).into_iter()
    }

    /// Number of living hosts (cheap: fate table only).
    pub fn alive_count(&self) -> usize {
        self.core.alive_count()
    }

    /// The per-week ground-truth churn logs so far.
    pub fn history(&self) -> &[WeekChurn] {
        &self.history
    }

    /// The scanner-visible truth for every living host, in roster
    /// order — what a full campaign over the current week should
    /// observe (see [`TruthObservation`]). **Materializes every living
    /// host.**
    pub fn observable_truth(&self) -> Vec<TruthObservation> {
        self.core.map_alive(|dep| TruthObservation {
            address: dep.truth.address,
            port: dep.truth.port,
            thumbprint: dep
                .config
                .certificate
                .as_ref()
                .map(|c| Thumbprint(c.thumbprint())),
            software_version: (dep.config.token_types.contains(&UserTokenType::Anonymous)
                && !dep.config.broken_session_config)
                .then(|| dep.config.software_version.clone()),
        })
    }

    /// Advances the world by one week of churn. `week` must be the
    /// successor of the current week — the step is a deterministic
    /// function of `(seed, week, host id)`, so replaying the same seed
    /// replays the same study, whichever hosts were built. Returns the
    /// planted ground truth.
    ///
    /// Call *after* the campaign clock reached the new week's epoch:
    /// renewed certificates anchor their validity at the current
    /// virtual time.
    pub fn evolve(&mut self, week: u32) -> &WeekChurn {
        assert_eq!(week, self.week + 1, "evolution proceeds one week at a time");
        self.week = week;
        let log = self.core.evolve_week(week, &self.churn);
        self.history.push(log);
        // ua-lint: allow(panic-hygiene) -- the push on the previous line makes last() infallible
        self.history.last().expect("just pushed")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StrataMix;
    use netsim::{ConnectError, VirtualClock};
    use ua_addrspace::ids;
    use ua_types::{MessageSecurityMode, Variant};

    fn world(seed: u64, churn: ChurnConfig, mix: StrataMix) -> EvolvingWorld {
        let net = Internet::new(VirtualClock::starting_at(1_581_206_400));
        let cfg = PopulationConfig::new(seed, vec!["10.0.0.0/20".parse().unwrap()], mix);
        EvolvingWorld::new_lazy(&net, &cfg, churn)
    }

    fn full(rate: &str) -> ChurnConfig {
        let mut c = ChurnConfig::frozen();
        match rate {
            "ip_move" => c.ip_move = 1.0,
            "departure" => c.departure = 1.0,
            "arrival" => c.arrival = 1.0,
            "renewal" => c.renewal = 1.0,
            "upgrade" => c.upgrade = 1.0,
            "downgrade" => c.downgrade = 1.0,
            "remediation" => c.remediation = 1.0,
            "regression" => c.regression = 1.0,
            _ => unreachable!(),
        }
        c
    }

    #[test]
    fn frozen_world_never_changes() {
        let mut w = world(3, ChurnConfig::frozen(), StrataMix::paper_like(30));
        let before: Vec<_> = w.alive().map(|d| (d.truth.address, d.truth.port)).collect();
        for week in 1..=4 {
            let churn = w.evolve(week);
            assert!(churn.events.is_empty(), "week {week}: {:?}", churn.events);
        }
        let after: Vec<_> = w.alive().map(|d| (d.truth.address, d.truth.port)).collect();
        assert_eq!(before, after);
        // The world still serves every host it built before the weeks.
        let scanner = Ipv4::new(192, 0, 2, 1);
        for &(addr, port) in &before {
            assert!(w.net().has_listener(addr, port), "{addr}:{port}");
            assert!(
                w.net().connect(scanner, addr, port).is_ok(),
                "{addr}:{port}"
            );
        }
    }

    #[test]
    fn evolution_is_deterministic() {
        let run = || {
            let mut w = world(11, ChurnConfig::default(), StrataMix::paper_like(40));
            let mut events = Vec::new();
            for week in 1..=5 {
                events.extend(w.evolve(week).events.clone());
            }
            let addrs: Vec<_> = w.alive().map(|d| (d.truth.address, d.truth.port)).collect();
            (events, addrs)
        };
        let (events_a, addrs_a) = run();
        let (events_b, addrs_b) = run();
        assert_eq!(events_a, events_b);
        assert_eq!(addrs_a, addrs_b);
        assert!(!events_a.is_empty(), "default churn must actually churn");
    }

    #[test]
    fn moves_keep_identity_and_rewire_referrals() {
        let mix = StrataMix::new()
            .with(HostClass::SecureModern, 4)
            .with(HostClass::DiscoveryServer, 1)
            .with(HostClass::HiddenServer, 2);
        let mut w = world(7, full("ip_move"), mix);
        let before: Vec<_> = w
            .alive()
            .map(|d| (d.truth.address, d.truth.port, d.truth.cert_thumbprint))
            .collect();
        let churn = w.evolve(1);
        assert_eq!(churn.moves(), before.len(), "every host moves at p=1");
        let after: Vec<_> = w
            .alive()
            .map(|d| (d.truth.address, d.truth.port, d.truth.cert_thumbprint))
            .collect();
        for ((a0, p0, t0), (a1, p1, t1)) in before.iter().zip(&after) {
            assert_ne!(a0, a1, "address must change");
            assert_eq!(p0, p1, "port is stable across moves");
            assert_eq!(t0, t1, "certificate identity survives the move");
        }
        // The network followed: new addresses listen, old ones are gone.
        for ((old, _, _), (new, port, _)) in before.iter().zip(&after) {
            assert!(!w.net().host_exists(*old));
            assert!(w.net().has_listener(*new, *port));
        }
        // Referral wiring follows the moves: every hidden server's new
        // URL is announced by some live discovery host.
        let announced: Vec<String> = w
            .alive()
            .flat_map(|d| d.config.referenced_endpoints.clone())
            .collect();
        for dep in w.alive() {
            if dep.truth.class == HostClass::HiddenServer {
                let url = format!("opc.tcp://{}:{}/", dep.truth.address, dep.truth.port);
                assert!(
                    announced.iter().any(|u| **u == url),
                    "{url} not re-announced after move"
                );
            }
        }
        // No live referral mentions a vacated address.
        for (old, _, _) in &before {
            let pat = format!("://{old}:");
            assert!(
                announced.iter().all(|u| !u.contains(&pat)),
                "stale referral to {old}"
            );
        }
    }

    #[test]
    fn renewal_changes_thumbprint_keeps_address_and_key() {
        let mix = StrataMix::new().with(HostClass::SecureModern, 3);
        let mut w = world(5, full("renewal"), mix);
        let before: Vec<_> = w
            .alive()
            .map(|d| {
                (
                    d.truth.address,
                    d.truth.cert_thumbprint.unwrap(),
                    d.config
                        .certificate
                        .as_ref()
                        .unwrap()
                        .tbs
                        .public_key
                        .n
                        .clone(),
                )
            })
            .collect();
        let now = w.net().clock().now_unix_seconds();
        let churn = w.evolve(1);
        assert_eq!(churn.renewals(), 3);
        for (dep, (addr, old_tp, old_n)) in w.alive().zip(&before) {
            let cert = dep.config.certificate.as_ref().unwrap();
            assert_eq!(dep.truth.address, *addr);
            assert_ne!(dep.truth.cert_thumbprint.unwrap(), *old_tp);
            assert_eq!(&cert.tbs.public_key.n, old_n, "key survives renewal");
            assert!(cert.is_valid_at(now));
            assert_eq!(dep.truth.cert_thumbprint.unwrap(), cert.thumbprint());
        }
    }

    #[test]
    fn expired_certificates_become_valid_on_renewal() {
        let mix = StrataMix::new().with(HostClass::ExpiredCert, 2);
        let mut w = world(9, full("renewal"), mix);
        let now = w.net().clock().now_unix_seconds();
        for dep in w.alive() {
            assert!(!dep.config.certificate.as_ref().unwrap().is_valid_at(now));
        }
        w.evolve(1);
        for dep in w.alive() {
            assert!(dep.config.certificate.as_ref().unwrap().is_valid_at(now));
        }
    }

    #[test]
    fn upgrades_and_downgrades_adjust_version_and_space() {
        let mix = StrataMix::new().with(HostClass::SecureModern, 4);
        let mut w = world(13, full("upgrade"), mix);
        let before: Vec<String> = w
            .alive()
            .map(|d| d.config.software_version.clone())
            .collect();
        let churn = w.evolve(1);
        assert_eq!(churn.upgrades(), 4);
        assert_eq!(churn.downgrades(), 0);
        for (dep, old) in w.alive().zip(&before) {
            let new = &dep.config.software_version;
            assert!(
                parse_version(new) > parse_version(old),
                "{old} -> {new} is not an upgrade"
            );
            // The served BuildInfo node follows the config.
            let node = dep
                .space
                .get(&ua_types::NodeId::numeric(0, ids::SERVER_SOFTWARE_VERSION))
                .unwrap();
            assert_eq!(
                node.value,
                Some(Variant::String(Some(new.clone()))),
                "SoftwareVersion node out of sync"
            );
        }
    }

    #[test]
    fn remediation_goes_secure_and_regression_reopens() {
        let mix = StrataMix::new().with(HostClass::WideOpen, 3);
        let mut w = world(17, full("remediation"), mix);
        let churn = w.evolve(1);
        assert_eq!(churn.remediations(), 3);
        for dep in w.alive() {
            assert!(dep
                .config
                .endpoints
                .iter()
                .all(|e| e.mode != MessageSecurityMode::None));
            assert!(!dep.config.token_types.contains(&UserTokenType::Anonymous));
            assert!(dep.config.certificate.is_some(), "secure needs a cert");
            assert!(dep.truth.cert_thumbprint.is_some());
        }
        // Remediated hosts no longer offer None, so a regression pass
        // can reopen them.
        let mut w2 = world(
            17,
            full("remediation"),
            StrataMix::new().with(HostClass::WideOpen, 3),
        );
        w2.evolve(1);
        w2.churn = full("regression");
        let churn = w2.evolve(2);
        assert_eq!(churn.regressions(), 3);
        for dep in w2.alive() {
            assert!(dep
                .config
                .endpoints
                .iter()
                .any(|e| e.mode == MessageSecurityMode::None));
            assert!(dep.config.token_types.contains(&UserTokenType::Anonymous));
        }
    }

    #[test]
    fn departures_and_arrivals_turn_the_roster_over() {
        let mix = StrataMix::new()
            .with(HostClass::WideOpen, 4)
            .with(HostClass::DiscoveryServer, 1);
        let mut w = world(19, full("departure"), mix);
        // Build the fleet first, so the checks below see departures
        // take built hosts off the network.
        let before = w.population();
        let churn = w.evolve(1);
        // The LDS is exempt from departure.
        assert_eq!(churn.departures(), 4);
        assert_eq!(w.alive_count(), 1);
        let scanner = Ipv4::new(192, 0, 2, 1);
        for host in before.of_class(HostClass::WideOpen) {
            assert!(!w.net().host_exists(host.address), "{}", host.address);
            assert_eq!(
                w.net().connect(scanner, host.address, host.port).err(),
                Some(ConnectError::NoRoute),
                "{}",
                host.address
            );
        }

        w.churn = full("arrival");
        let churn = w.evolve(2).clone();
        assert_eq!(churn.arrivals(), 1, "one living host, arrival rate 1.0");
        assert_eq!(w.alive_count(), 2);
        // Arrivals are swept-class hosts on the sweep port and listen.
        let arrived = w.alive().last().unwrap();
        assert_eq!(arrived.truth.port, 4840);
        assert!(!arrived.truth.class.referral_only());
        assert!(w.net().has_listener(arrived.truth.address, 4840));
    }

    #[test]
    #[should_panic(expected = "one week at a time")]
    fn weeks_cannot_be_skipped() {
        let mut w = world(1, ChurnConfig::frozen(), StrataMix::paper_like(30));
        w.evolve(2);
    }

    #[test]
    fn lazy_evolution_materializes_nothing_until_probed() {
        let net = Internet::new(VirtualClock::starting_at(1_581_206_400));
        let cfg = PopulationConfig::new(
            23,
            vec!["10.0.0.0/16".parse().unwrap()],
            StrataMix::paper_like(30),
        );
        let mut w = EvolvingWorld::new_lazy(&net, &cfg, ChurnConfig::default());
        for week in 1..=6 {
            w.evolve(week);
        }
        assert_eq!(
            w.stats(),
            MaterializationStats::default(),
            "six weeks of churn must not build a single host"
        );
        assert_eq!(net.host_count(), 0);
        // The audit exit still works — and pays for exactly the fleet.
        let pop = w.population();
        assert_eq!(w.stats().hosts_materialized as usize, pop.len());
    }
}
