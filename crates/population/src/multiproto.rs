//! Multi-protocol strata: TLS-wrapped deployments with ground truth.
//!
//! "Missed Opportunities" (Dahlmanns et al., 2022) extended the OPC UA
//! census to TLS-fronted industrial protocols and found the wrapper
//! often *adds nothing*: servers behind TLS still grant anonymous
//! access, or present certificates that expired long ago.
//! [`MultiProtoPlan`] deploys exactly those strata on the `uat-tls`
//! port next to an existing OPC UA population — each host a pure
//! function of `(seed, index)` — and keeps the per-class counts as
//! checkable ground truth for the `uat-tls` deficit columns of the
//! assessment.
//!
//! Vendor-fingerprint ground truth needs no extra planting: every
//! synthesized host (OPC UA and TLS alike) carries a vendor from the
//! shared quirk table (`ua_proto::fingerprint`), and `ua-server`
//! answers bad-version hellos with that vendor's taxonomy error. The
//! oracles here ([`MultiProtoPlan::vendor_counts`],
//! [`population_vendor_counts`]) say what a fingerprinting scan must
//! recover.

use crate::{pick_free_address, Population, VENDORS};
use netsim::{Cidr, Internet, Ipv4, Service};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
// ua-lint: allow(unordered-iteration) -- address reservation membership only, never iterated
use std::collections::HashSet;
use std::sync::Arc;
use ua_addrspace::{NodeAccess, SpaceBuilder};
use ua_crypto::{CertificateBuilder, DistinguishedName, HashAlgorithm, RsaPrivateKey};
use ua_server::{
    EndpointConfig, ServerConfig, ServerCore, TlsWrapService, UaServerService, UserAccount,
};
use ua_types::{MessageSecurityMode, SecurityPolicy, UserTokenType, Variant};

/// RNG-stream salt ("TLS") — decorrelates TLS-host draws from the OPC
/// UA population streams sharing the seed.
const TLS_HOST_SALT: u64 = 0x0054_4c53;

/// The TLS-wrapper configuration strata, one per deployed host.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum TlsClass {
    /// The wrapper done right: fresh certificate, inner server secure
    /// (username auth only) — no TLS-specific deficit.
    Secure,
    /// Fresh wrapper certificate over a wide-open inner server: the
    /// "TLS but anonymous" missed opportunity.
    AnonymousInner,
    /// Secure inner server behind a wrapper certificate whose validity
    /// window ended months before the scan.
    ExpiredCert,
}

impl TlsClass {
    /// Every class, report order.
    pub const ALL: [TlsClass; 3] = [
        TlsClass::Secure,
        TlsClass::AnonymousInner,
        TlsClass::ExpiredCert,
    ];

    /// Short stable label for reports.
    pub fn label(self) -> &'static str {
        match self {
            TlsClass::Secure => "tls_secure",
            TlsClass::AnonymousInner => "tls_anonymous_inner",
            TlsClass::ExpiredCert => "tls_expired_cert",
        }
    }
}

/// Class counts and the listening port for a [`MultiProtoPlan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MultiProtoConfig {
    /// Port the TLS-wrapped servers listen on.
    pub tls_port: u16,
    /// Hosts doing the wrapper right.
    pub secure: usize,
    /// Hosts with an anonymous inner server behind valid TLS.
    pub anonymous_inner: usize,
    /// Hosts serving an expired wrapper certificate.
    pub expired_cert: usize,
}

impl Default for MultiProtoConfig {
    /// Empty plan on the conventional `uat-tls` port.
    fn default() -> Self {
        MultiProtoConfig {
            tls_port: 4843,
            secure: 0,
            anonymous_inner: 0,
            expired_cert: 0,
        }
    }
}

impl MultiProtoConfig {
    /// A small mix with every stratum represented — the example and
    /// conformance-harness preset.
    pub fn sample() -> Self {
        MultiProtoConfig {
            secure: 4,
            anonymous_inner: 3,
            expired_cert: 2,
            ..MultiProtoConfig::default()
        }
    }

    /// Total host count.
    pub fn total(&self) -> usize {
        self.secure + self.anonymous_inner + self.expired_cert
    }
}

/// Ground truth for one deployed TLS-wrapped host.
#[derive(Debug, Clone)]
pub struct TlsHostTruth {
    /// Deployed address.
    pub address: Ipv4,
    /// The `uat-tls` port the wrapper listens on.
    pub port: u16,
    /// Configuration stratum.
    pub class: TlsClass,
    /// Synthetic vendor (from the shared quirk table — the vendor a
    /// fingerprinting scan must recover for this host).
    pub vendor: &'static str,
}

/// The deployed TLS strata with their ground truth.
#[derive(Debug, Clone, Default)]
pub struct MultiProtoPlan {
    /// Per-host ground truth, in deployment order.
    pub hosts: Vec<TlsHostTruth>,
}

impl MultiProtoPlan {
    /// Deploys `config` onto `net`, placing hosts into `universe` at
    /// addresses not already occupied — by a bound host or by one a
    /// world's resolver has planted but not built yet. Deterministic:
    /// the same `(universe, config, seed)` — over the same pre-existing
    /// host set — always yields the same plan.
    pub fn deploy(
        net: &Internet,
        universe: &[Cidr],
        config: &MultiProtoConfig,
        seed: u64,
    ) -> MultiProtoPlan {
        let now = net.clock().now_unix_seconds();
        // Every drawn address stays reserved, taken or not, so a full
        // universe ends in "universe too small" instead of spinning.
        // ua-lint: allow(unordered-iteration) -- membership-only reservation set, never iterated
        let mut used: HashSet<u32> = HashSet::new();
        let mut rng = StdRng::seed_from_u64(crate::spec::mix64(seed ^ TLS_HOST_SALT));
        let mut hosts = Vec::with_capacity(config.total());
        let roster = TlsClass::ALL
            .into_iter()
            .flat_map(|class| {
                let n = match class {
                    TlsClass::Secure => config.secure,
                    TlsClass::AnonymousInner => config.anonymous_inner,
                    TlsClass::ExpiredCert => config.expired_cert,
                };
                std::iter::repeat_n(class, n)
            })
            .enumerate();
        for (idx, class) in roster {
            // Occupied: bound, or planted by a world and not built yet.
            let address = loop {
                let address = pick_free_address(&mut rng, universe, &mut used);
                if !net.host_exists(address) {
                    break address;
                }
            };
            let truth = deploy_host(net, address, config.tls_port, class, idx, seed, now);
            hosts.push(truth);
        }
        MultiProtoPlan { hosts }
    }

    /// Number of deployed hosts of `class`.
    pub fn count(&self, class: TlsClass) -> usize {
        self.hosts.iter().filter(|h| h.class == class).count()
    }

    /// Oracle: hosts the "TLS but anonymous" deficit must flag.
    pub fn expected_tls_anonymous(&self) -> usize {
        self.count(TlsClass::AnonymousInner)
    }

    /// Oracle: hosts the "TLS cert expired" deficit must flag.
    pub fn expected_tls_expired(&self) -> usize {
        self.count(TlsClass::ExpiredCert)
    }

    /// Oracle: the vendor breakdown a fingerprinting `uat-tls` scan of
    /// this plan must recover.
    pub fn vendor_counts(&self) -> BTreeMap<&'static str, usize> {
        let mut counts = BTreeMap::new();
        for h in &self.hosts {
            *counts.entry(h.vendor).or_default() += 1;
        }
        counts
    }
}

/// Oracle for the sweep-port population: the vendor breakdown a
/// fingerprinting OPC UA scan must recover over `population`'s
/// *sweep-visible* hosts (referral-only classes are fingerprinted too
/// once referrals surface them; pass the full roster for that check).
pub fn population_vendor_counts(population: &Population) -> BTreeMap<&'static str, usize> {
    let mut counts = BTreeMap::new();
    for h in &population.hosts {
        *counts.entry(h.vendor).or_default() += 1;
    }
    counts
}

/// Builds and binds one TLS-wrapped host; returns its ground truth.
fn deploy_host(
    net: &Internet,
    address: Ipv4,
    port: u16,
    class: TlsClass,
    idx: usize,
    seed: u64,
    now: i64,
) -> TlsHostTruth {
    let mut rng =
        StdRng::seed_from_u64(crate::spec::mix64(seed ^ TLS_HOST_SALT ^ 0xA0 ^ idx as u64));
    let (vendor, uri_prefix) = VENDORS[idx % VENDORS.len()];
    let uri = format!("{uri_prefix}:tls:{idx:06}");
    let url = format!("opc.tcp://{address}:{port}/");

    // Inner server: wide open for the anonymous stratum, secure
    // (username auth, Basic256Sha256) otherwise.
    let key = RsaPrivateKey::generate(&mut rng, crate::ACTUAL_KEY_BITS, 2048);
    let inner_cert = CertificateBuilder::new(DistinguishedName::new(format!("tls-{idx}"), vendor))
        .serial(500_000 + idx as u64)
        .validity(now - 365 * 86_400, now + 2 * 365 * 86_400)
        .application_uri(&uri)
        .self_signed(HashAlgorithm::Sha256, &key);
    let config = if class == TlsClass::AnonymousInner {
        let mut c = ServerConfig::wide_open(uri.clone(), url);
        c.application_name = format!("{vendor} OPC UA Server");
        c
    } else {
        ServerConfig {
            application_uri: uri.clone(),
            application_name: format!("{vendor} OPC UA Server"),
            endpoint_url: url,
            endpoints: vec![EndpointConfig::new(
                MessageSecurityMode::SignAndEncrypt,
                SecurityPolicy::Basic256Sha256,
            )],
            token_types: vec![UserTokenType::UserName],
            certificate: Some(inner_cert.clone()),
            private_key: Some(key.clone()),
            users: vec![UserAccount {
                name: "operator".into(),
                password: format!("pw-tls-{idx}"),
            }],
            reject_foreign_certs: false,
            broken_session_config: false,
            is_discovery_server: false,
            referenced_endpoints: Vec::new(),
            software_version: "1.0.0".into(),
            max_references_per_browse: 64,
        }
    };

    // Wrapper certificate: fresh by default; the expired stratum fronts
    // the (still fresh) inner server with a certificate whose window
    // closed months ago — the stale-proxy-cert deployment.
    let wrapper_der = match class {
        TlsClass::ExpiredCert => {
            let expired =
                CertificateBuilder::new(DistinguishedName::new(format!("tls-fe-{idx}"), vendor))
                    .serial(600_000 + idx as u64)
                    .validity(now - 3 * 365 * 86_400, now - 120 * 86_400)
                    .application_uri(&uri)
                    .self_signed(HashAlgorithm::Sha256, &key);
            expired.to_der()
        }
        _ => inner_cert.to_der(),
    };

    let mut b = SpaceBuilder::new(&[uri.as_str()], "1.0");
    let folder = b.folder(None, "Line");
    b.variable(
        &folder,
        "rConveyorSpeed",
        Variant::Double(rng.gen_range(0.0..50.0)),
        NodeAccess::read_only(),
    );
    let core = ServerCore::new(config, b.finish(), seed ^ 0x7157 ^ idx as u64);
    core.set_time(now);
    let inner = UaServerService::new(core, seed ^ 0x7153 ^ idx as u64);
    let service: Arc<dyn Service> = Arc::new(TlsWrapService::with_certificate(
        Arc::new(inner),
        Some(wrapper_der),
    ));
    net.install_host(
        address,
        rng.gen_range(2_000..120_000u32),
        vec![(port, service)],
    );

    TlsHostTruth {
        address,
        port,
        class,
        vendor,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{synthesize, HostClass, LazyWorld, PopulationConfig, StrataMix};
    use netsim::VirtualClock;

    fn test_net() -> Internet {
        Internet::new(VirtualClock::starting_at(1_581_206_400))
    }

    fn universe() -> Vec<Cidr> {
        vec!["10.60.0.0/22".parse().unwrap()]
    }

    #[test]
    fn deploy_is_deterministic_and_disjoint_from_population() {
        let mix = StrataMix::new()
            .with(HostClass::WideOpen, 5)
            .with(HostClass::SecureModern, 3);
        let cfg = PopulationConfig::new(21, universe(), mix);
        let net_a = test_net();
        let pop_a = synthesize(&net_a, &cfg);
        let plan_a = MultiProtoPlan::deploy(&net_a, &universe(), &MultiProtoConfig::sample(), 21);
        let net_b = test_net();
        let _ = synthesize(&net_b, &cfg);
        let plan_b = MultiProtoPlan::deploy(&net_b, &universe(), &MultiProtoConfig::sample(), 21);

        assert_eq!(plan_a.hosts.len(), MultiProtoConfig::sample().total());
        for (a, b) in plan_a.hosts.iter().zip(&plan_b.hosts) {
            assert_eq!(a.address, b.address);
            assert_eq!(a.class, b.class);
            assert_eq!(a.vendor, b.vendor);
        }
        // TLS hosts never collide with the OPC UA population.
        for h in &plan_a.hosts {
            assert!(pop_a.host(h.address).is_none());
            assert!(net_a.has_listener(h.address, 4843));
            assert!(!net_a.has_listener(h.address, 4840));
        }
    }

    #[test]
    fn deploy_skips_planted_hosts_not_built_yet() {
        let universe: Vec<Cidr> = vec!["10.60.0.0/24".parse().unwrap()];
        let cfg = PopulationConfig::new(21, universe.clone(), StrataMix::paper_like(200));
        let planted = synthesize(&test_net(), &cfg);
        let net = test_net();
        let world = LazyWorld::deploy(&net, &cfg);
        let plan = MultiProtoPlan::deploy(&net, &universe, &MultiProtoConfig::sample(), 21);
        assert_eq!(world.stats().hosts_materialized, 0);
        assert_eq!(plan.hosts.len(), MultiProtoConfig::sample().total());
        for h in &plan.hosts {
            assert!(
                planted.host(h.address).is_none(),
                "TLS host on planted {}",
                h.address
            );
        }
    }

    #[test]
    fn bound_hosts_outside_the_universe_leave_its_capacity_alone() {
        let net = test_net();
        let mix = StrataMix::new().with(HostClass::WideOpen, 30);
        synthesize(&net, &PopulationConfig::new(4, universe(), mix));
        // 16 free addresses for 9 hosts, next to 30 bound elsewhere.
        let tls_universe: Vec<Cidr> = vec!["10.70.0.0/28".parse().unwrap()];
        let plan = MultiProtoPlan::deploy(&net, &tls_universe, &MultiProtoConfig::sample(), 4);
        assert_eq!(plan.hosts.len(), MultiProtoConfig::sample().total());
        assert!(plan
            .hosts
            .iter()
            .all(|h| tls_universe[0].contains(h.address)));
    }

    #[test]
    fn oracles_count_the_planted_strata() {
        let net = test_net();
        let plan = MultiProtoPlan::deploy(&net, &universe(), &MultiProtoConfig::sample(), 3);
        assert_eq!(plan.count(TlsClass::Secure), 4);
        assert_eq!(plan.expected_tls_anonymous(), 3);
        assert_eq!(plan.expected_tls_expired(), 2);
        let vendors = plan.vendor_counts();
        assert_eq!(vendors.values().sum::<usize>(), 9);
        // Every planted vendor is in the shared quirk table.
        for vendor in vendors.keys() {
            assert!(ua_proto::fingerprint::quirk_for_vendor(vendor).is_some());
        }
    }

    #[test]
    fn population_vendor_oracle_sums_to_roster() {
        let net = test_net();
        let cfg = PopulationConfig::new(5, universe(), StrataMix::paper_like(30));
        let pop = synthesize(&net, &cfg);
        let counts = population_vendor_counts(&pop);
        assert_eq!(counts.values().sum::<usize>(), pop.len());
        for vendor in counts.keys() {
            assert!(ua_proto::fingerprint::quirk_for_vendor(vendor).is_some());
        }
    }
}
