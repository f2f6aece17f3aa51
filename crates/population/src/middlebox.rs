//! Middlebox strata: deterministic per-host fault profiles with ground
//! truth.
//!
//! The paper's sweep crosses a hostile Internet — lossy paths, hosts
//! that only answer after a few SYNs, tarpits, and scan-detecting
//! firewalls that blocklist the prober for minutes or for the whole
//! sweep. [`MiddleboxPlan`] lays that hostility over a synthesized
//! [`Population`]: every host is assigned a [`FaultStratum`] and a
//! concrete [`netsim::NetProfile`] as a pure function of
//! `(campaign seed, address)`, firewalled ranges are drawn per /24 so a
//! whole prefix shares one middlebox, and — because
//! [`netsim::NetProfile::terminal_fate`] replays the exact fate
//! sequence a retrying scanner will see — the plan doubles as *checkable
//! ground truth*: it predicts which hosts a given retry budget recovers
//! and how the rest must be classified.
//!
//! Install the plan with [`netsim::Internet::set_profiles`]; it never
//! references scanner types, so the dependency arrow stays
//! population → netsim.

use crate::spec::mix64;
use crate::Population;
use netsim::{ConnectFate, FirewallProfile, Ipv4, NetProfile, ProfileProvider, TarpitProfile};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

/// RNG-stream salts ("FAULT", "FW/24"): per-host and per-prefix draws
/// must not correlate with the deployment streams sharing the seed.
const HOST_FAULT_SALT: u64 = 0x0046_4155_4c54;
const PREFIX_FAULT_SALT: u64 = 0x0046_572f_3234;

/// Which middlebox stratum a host landed in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FaultStratum {
    /// No middlebox: first SYN answers, as before this layer existed.
    Polite,
    /// Lossy path: each SYN drops with an independent seeded coin.
    Lossy,
    /// Drops its first 1–5 SYNs, then behaves (NAT table warm-up,
    /// overloaded embedded stacks). Hosts at the deep end exceed a
    /// 4-attempt retry budget and are ground-truth unrecoverable.
    Flaky,
    /// Accept-then-stall tarpit (half silent, half byte-dribbling).
    Tarpit,
    /// Rate-limiting firewall over the whole /24: eats the first 1–2
    /// SYNs per host with a penalty wait, then relents.
    FirewalledTemp,
    /// Scan-detecting firewall over the whole /24 that blocklists the
    /// scanner sweep-permanently: unrecoverable at any retry budget.
    FirewalledPerm,
}

impl FaultStratum {
    /// Every stratum, report order.
    pub const ALL: [FaultStratum; 6] = [
        FaultStratum::Polite,
        FaultStratum::Lossy,
        FaultStratum::Flaky,
        FaultStratum::Tarpit,
        FaultStratum::FirewalledTemp,
        FaultStratum::FirewalledPerm,
    ];

    /// Short stable label for reports.
    pub fn label(self) -> &'static str {
        match self {
            FaultStratum::Polite => "polite",
            FaultStratum::Lossy => "lossy",
            FaultStratum::Flaky => "flaky",
            FaultStratum::Tarpit => "tarpit",
            FaultStratum::FirewalledTemp => "firewalled_temp",
            FaultStratum::FirewalledPerm => "firewalled_perm",
        }
    }
}

/// Stratum mix and fault intensities for a [`MiddleboxPlan`].
///
/// Prefix permilles are drawn once per /24 (all hosts in a designated
/// prefix share the firewall); host permilles are drawn per host within
/// non-firewalled prefixes, in the order lossy → flaky → tarpit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MiddleboxConfig {
    /// Permille of /24 prefixes behind a temporary rate limiter.
    pub firewalled_temp_prefix_permille: u16,
    /// Permille of /24 prefixes that blocklist the scanner permanently.
    pub firewalled_perm_prefix_permille: u16,
    /// Permille of (non-firewalled) hosts on lossy paths.
    pub lossy_permille: u16,
    /// Permille of hosts that drop their first few SYNs.
    pub flaky_permille: u16,
    /// Permille of hosts that are tarpits.
    pub tarpit_permille: u16,
    /// Per-SYN loss probability (permille) for lossy hosts.
    pub syn_loss_permille: u16,
    /// Stall burned per exchange by tarpit hosts (µs). Must exceed the
    /// scanner's stage budget for dribbling tarpits to be classified.
    pub tarpit_stall_micros: u64,
    /// Penalty wait per eaten SYN at firewalled prefixes (µs).
    pub firewall_penalty_micros: u64,
}

impl Default for MiddleboxConfig {
    /// All-polite: the plan assigns every host [`FaultStratum::Polite`].
    fn default() -> Self {
        MiddleboxConfig {
            firewalled_temp_prefix_permille: 0,
            firewalled_perm_prefix_permille: 0,
            lossy_permille: 0,
            flaky_permille: 0,
            tarpit_permille: 0,
            syn_loss_permille: 350,
            tarpit_stall_micros: 30_000_000,
            firewall_penalty_micros: 2_000_000,
        }
    }
}

impl MiddleboxConfig {
    /// The hostile-sweep preset: every stratum populated hard enough
    /// that a polite single-attempt scanner visibly undercounts.
    pub fn hostile() -> Self {
        MiddleboxConfig {
            firewalled_temp_prefix_permille: 150,
            firewalled_perm_prefix_permille: 80,
            lossy_permille: 180,
            flaky_permille: 180,
            tarpit_permille: 120,
            ..MiddleboxConfig::default()
        }
    }
}

/// One host's planted hostility: the stratum it landed in and the
/// concrete profile the network will enforce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HostFault {
    /// The host's address at planning time.
    pub address: Ipv4,
    /// Assigned stratum.
    pub stratum: FaultStratum,
    /// The enforced network profile (polite for
    /// [`FaultStratum::Polite`]).
    pub profile: NetProfile,
}

/// The planted middlebox layout over one population: ground truth for
/// hostile sweeps, and the [`ProfileProvider`] that enforces it.
#[derive(Debug, Clone, Default)]
pub struct MiddleboxPlan {
    faults: BTreeMap<u32, HostFault>,
}

impl MiddleboxPlan {
    /// Plans hostility over `population`, deterministically from
    /// `seed`. The same `(population, config, seed)` always yields the
    /// same plan — worker counts, engines, and probe order never enter.
    pub fn plan(population: &Population, config: &MiddleboxConfig, seed: u64) -> Self {
        let mut faults = BTreeMap::new();
        for host in &population.hosts {
            let fault = plan_host(host.address, config, seed);
            faults.insert(host.address.0, fault);
        }
        MiddleboxPlan { faults }
    }

    /// The planted fault for `addr` (None for addresses outside the
    /// planned population — the provider treats them as polite).
    pub fn fault_of(&self, addr: Ipv4) -> Option<&HostFault> {
        self.faults.get(&addr.0)
    }

    /// All planned hosts, ascending by address.
    pub fn hosts(&self) -> impl Iterator<Item = &HostFault> {
        self.faults.values()
    }

    /// Hosts assigned to `stratum`.
    pub fn stratum_count(&self, stratum: FaultStratum) -> usize {
        self.faults
            .values()
            .filter(|f| f.stratum == stratum)
            .count()
    }

    /// Ground-truth replay: true when a scanner granting `max_attempts`
    /// connects recovers this address (its profile delivers a usable
    /// stream within the budget). Unplanned addresses are recoverable
    /// trivially.
    pub fn recoverable(&self, addr: Ipv4, max_attempts: u32) -> bool {
        self.terminal_fate(addr, max_attempts) == ConnectFate::Deliver
    }

    /// Ground-truth replay of the terminal [`ConnectFate`] a retrying
    /// scanner ends on for `addr` — the value a hostile sweep's
    /// `HostOutcome` classification is checked against.
    pub fn terminal_fate(&self, addr: Ipv4, max_attempts: u32) -> ConnectFate {
        self.fault_of(addr).map_or(ConnectFate::Deliver, |f| {
            f.profile.terminal_fate(max_attempts)
        })
    }
}

impl ProfileProvider for MiddleboxPlan {
    fn profile_of(&self, addr: Ipv4) -> NetProfile {
        self.faults
            .get(&addr.0)
            .map_or_else(NetProfile::polite, |f| f.profile)
    }
}

/// Plans one host: /24 firewall designation first (shared across the
/// prefix), then the per-host stratum draw.
fn plan_host(addr: Ipv4, config: &MiddleboxConfig, seed: u64) -> HostFault {
    let fault_seed = mix64(seed ^ HOST_FAULT_SALT ^ u64::from(addr.0));
    // The prefix stream is keyed on the /24 alone, so every host in a
    // designated prefix sees the identical firewall (same strikes, same
    // penalty) — one middlebox, not per-host coincidences.
    let mut prefix_rng =
        StdRng::seed_from_u64(mix64(seed ^ PREFIX_FAULT_SALT ^ u64::from(addr.0 >> 8)));
    let prefix_draw: u32 = prefix_rng.gen_range(0..1000);
    if prefix_draw < u32::from(config.firewalled_perm_prefix_permille) {
        return HostFault {
            address: addr,
            stratum: FaultStratum::FirewalledPerm,
            profile: NetProfile {
                fault_seed,
                firewall: Some(FirewallProfile::permanent(config.firewall_penalty_micros)),
                ..NetProfile::polite()
            },
        };
    }
    if prefix_draw
        < u32::from(config.firewalled_perm_prefix_permille)
            + u32::from(config.firewalled_temp_prefix_permille)
    {
        let strikes = prefix_rng.gen_range(1..3_u32);
        return HostFault {
            address: addr,
            stratum: FaultStratum::FirewalledTemp,
            profile: NetProfile {
                fault_seed,
                firewall: Some(FirewallProfile {
                    strikes,
                    penalty_micros: config.firewall_penalty_micros,
                }),
                ..NetProfile::polite()
            },
        };
    }

    let mut host_rng = StdRng::seed_from_u64(mix64(fault_seed ^ 0xa5));
    let host_draw: u32 = host_rng.gen_range(0..1000);
    let lossy = u32::from(config.lossy_permille);
    let flaky = lossy + u32::from(config.flaky_permille);
    let tarpit = flaky + u32::from(config.tarpit_permille);
    if host_draw < lossy {
        // Mid-stream loss rides along: the stream may die after a few
        // exchanges (degrading record completeness), but only after the
        // handshake — reachability ground truth stays crisp.
        HostFault {
            address: addr,
            stratum: FaultStratum::Lossy,
            profile: NetProfile {
                fault_seed,
                syn_loss_permille: config.syn_loss_permille,
                cut_after_exchanges: host_rng.gen_range(2..5_u32),
                ..NetProfile::polite()
            },
        }
    } else if host_draw < flaky {
        HostFault {
            address: addr,
            stratum: FaultStratum::Flaky,
            profile: NetProfile {
                fault_seed,
                flaky_connects: host_rng.gen_range(1..6_u32),
                ..NetProfile::polite()
            },
        }
    } else if host_draw < tarpit {
        HostFault {
            address: addr,
            stratum: FaultStratum::Tarpit,
            profile: NetProfile {
                fault_seed,
                tarpit: Some(TarpitProfile {
                    stall_micros: config.tarpit_stall_micros,
                    dribble_bytes: if host_rng.gen_bool(0.5) { 4 } else { 0 },
                }),
                ..NetProfile::polite()
            },
        }
    } else {
        HostFault {
            address: addr,
            stratum: FaultStratum::Polite,
            profile: NetProfile {
                fault_seed,
                ..NetProfile::polite()
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{synthesize, PopulationConfig, StrataMix};
    use netsim::{Internet, VirtualClock};

    fn small_population() -> Population {
        let net = Internet::new(VirtualClock::default());
        let cfg = PopulationConfig::new(
            77,
            vec!["10.50.0.0/22".parse().unwrap()],
            StrataMix::paper_like(60),
        );
        synthesize(&net, &cfg)
    }

    #[test]
    fn plan_is_deterministic_and_covers_population() {
        let pop = small_population();
        let cfg = MiddleboxConfig::hostile();
        let a = MiddleboxPlan::plan(&pop, &cfg, 2020);
        let b = MiddleboxPlan::plan(&pop, &cfg, 2020);
        assert_eq!(a.hosts().count(), pop.len());
        for (x, y) in a.hosts().zip(b.hosts()) {
            assert_eq!(x, y);
        }
        // A different seed rearranges strata (overwhelmingly likely for
        // 60 hosts; equality would mean the seed never entered).
        let c = MiddleboxPlan::plan(&pop, &cfg, 2021);
        assert!(a.hosts().zip(c.hosts()).any(|(x, y)| x != y));
    }

    #[test]
    fn default_config_is_all_polite() {
        let pop = small_population();
        let plan = MiddleboxPlan::plan(&pop, &MiddleboxConfig::default(), 2020);
        assert_eq!(plan.stratum_count(FaultStratum::Polite), pop.len());
        for host in plan.hosts() {
            assert!(host.profile.is_polite());
            assert!(plan.recoverable(host.address, 1));
        }
    }

    #[test]
    fn firewalled_prefixes_share_one_middlebox() {
        let pop = small_population();
        let plan = MiddleboxPlan::plan(&pop, &MiddleboxConfig::hostile(), 2020);
        let mut by_prefix: BTreeMap<u32, Vec<&HostFault>> = BTreeMap::new();
        for host in plan.hosts() {
            by_prefix.entry(host.address.0 >> 8).or_default().push(host);
        }
        for hosts in by_prefix.values() {
            let firewalled = hosts
                .iter()
                .filter(|h| {
                    matches!(
                        h.stratum,
                        FaultStratum::FirewalledTemp | FaultStratum::FirewalledPerm
                    )
                })
                .count();
            // All-or-nothing per /24, and one shared profile.
            assert!(firewalled == 0 || firewalled == hosts.len());
            if firewalled > 0 {
                let fw = hosts[0].profile.firewall;
                assert!(hosts.iter().all(|h| h.profile.firewall == fw));
            }
        }
    }

    #[test]
    fn ground_truth_replay_matches_strata() {
        let pop = small_population();
        let plan = MiddleboxPlan::plan(&pop, &MiddleboxConfig::hostile(), 2020);
        let budget = 4;
        for host in plan.hosts() {
            match host.stratum {
                FaultStratum::Polite => {
                    assert!(plan.recoverable(host.address, budget));
                    assert_eq!(
                        plan.terminal_fate(host.address, budget),
                        ConnectFate::Deliver
                    );
                }
                // Flaky hosts recover iff their drop count fits the
                // budget; the deep end (4–5 drops) times out.
                FaultStratum::Flaky => {
                    let drops = host.profile.flaky_connects;
                    assert_eq!(plan.recoverable(host.address, budget), drops < budget);
                    let fate = plan.terminal_fate(host.address, budget);
                    if drops < budget {
                        assert_eq!(fate, ConnectFate::Deliver);
                    } else {
                        assert_eq!(fate, ConnectFate::SynLost);
                    }
                }
                // Tarpits and permanent firewalls never recover.
                FaultStratum::Tarpit => {
                    assert!(!plan.recoverable(host.address, budget));
                    assert!(matches!(
                        plan.terminal_fate(host.address, budget),
                        ConnectFate::Tarpit(_)
                    ));
                }
                FaultStratum::FirewalledPerm => {
                    assert!(!plan.recoverable(host.address, budget));
                    assert!(matches!(
                        plan.terminal_fate(host.address, budget),
                        ConnectFate::Throttled { .. }
                    ));
                }
                // Temporary firewalls (1–2 strikes) recover within 4.
                FaultStratum::FirewalledTemp => {
                    assert!(plan.recoverable(host.address, budget));
                }
                // Lossy hosts recover iff the replayed coin says so —
                // both outcomes are legal; the fate must be consistent.
                FaultStratum::Lossy => {
                    let fate = plan.terminal_fate(host.address, budget);
                    assert_eq!(
                        plan.recoverable(host.address, budget),
                        fate == ConnectFate::Deliver
                    );
                }
            }
        }
        // The hostile preset actually plants hostility.
        assert!(plan.stratum_count(FaultStratum::Polite) < pop.len());
    }
}
