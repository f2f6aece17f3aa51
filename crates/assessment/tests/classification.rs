//! Table-driven end-to-end classification tests: purpose-built
//! populations are deployed, scanned, and assessed, and every paper
//! category must be detected exactly where the ground truth says it is.

use assessment::{assess, AssessmentReport, Deficit};
use netsim::{Blocklist, Cidr, Internet, Ipv4, VirtualClock};
use population::{synthesize, HostClass, Population, PopulationConfig, StrataMix};
use rand::rngs::StdRng;
use rand::SeedableRng;
use scanner::{CertStore, EndpointSnapshot, ScanConfig, ScanRecord, Scanner};
use ua_crypto::{BigUint, CertificateBuilder, DistinguishedName, HashAlgorithm, RsaPrivateKey};
use ua_types::{MessageSecurityMode, SecurityPolicy};

const UNIVERSE: &str = "10.0.0.0/20";

/// Deploys `mix`, scans the universe, assesses the records.
fn pipeline(mix: StrataMix, seed: u64) -> (Population, Vec<ScanRecord>, AssessmentReport) {
    let net = Internet::new(VirtualClock::starting_at(1_581_206_400));
    let universe: Cidr = UNIVERSE.parse().unwrap();
    let pop = synthesize(&net, &PopulationConfig::new(seed, vec![universe], mix));
    let scanner = Scanner::new(net, Blocklist::new(), ScanConfig::default());
    let (summary, records) = scanner.scan_collect(&[universe], seed ^ 0x5CA9);
    assert_eq!(
        summary.opcua_hosts as usize,
        pop.len(),
        "every deployed host must be found and speak OPC UA"
    );
    let report = assess(&records);
    (pop, records, report)
}

/// One row of the classification table.
struct Case {
    class: HostClass,
    count: usize,
    /// Deficits every host of the class must carry.
    expect: &'static [Deficit],
    /// Deficits no host of the class may carry.
    forbid: &'static [Deficit],
}

#[test]
fn every_paper_category_is_detected_on_purpose_built_populations() {
    use Deficit::*;
    let table = [
        Case {
            class: HostClass::WideOpen,
            count: 3,
            expect: &[OnlyNoneMode, NoneModeOffered, AnonymousAccess, DataReadable],
            forbid: &[
                DeprecatedPolicy,
                SelfSignedCertificate,
                ExpiredCertificate,
                CertificateTooWeak,
                BrokenSessionConfig,
            ],
        },
        Case {
            class: HostClass::DeprecatedOnly,
            count: 3,
            expect: &[DeprecatedPolicy, SelfSignedCertificate],
            forbid: &[
                NoneModeOffered,
                OnlyNoneMode,
                AnonymousAccess,
                ExpiredCertificate,
            ],
        },
        Case {
            class: HostClass::MixedLegacy,
            count: 3,
            expect: &[
                NoneModeOffered,
                DeprecatedPolicy,
                AnonymousAccess,
                SelfSignedCertificate,
                DataReadable,
            ],
            forbid: &[OnlyNoneMode, ExpiredCertificate, CertificateTooWeak],
        },
        Case {
            class: HostClass::SecureModern,
            count: 3,
            expect: &[SelfSignedCertificate],
            forbid: &[
                NoneModeOffered,
                OnlyNoneMode,
                DeprecatedPolicy,
                ExpiredCertificate,
                CertificateTooWeak,
                AnonymousAccess,
                DataReadable,
            ],
        },
        Case {
            class: HostClass::ExpiredCert,
            count: 3,
            expect: &[ExpiredCertificate, SelfSignedCertificate],
            forbid: &[CertificateTooWeak, NoneModeOffered],
        },
        Case {
            class: HostClass::WeakCert,
            count: 3,
            expect: &[CertificateTooWeak, SelfSignedCertificate],
            forbid: &[ExpiredCertificate, NoneModeOffered],
        },
        Case {
            class: HostClass::BrokenSession,
            count: 3,
            expect: &[AnonymousAccess, BrokenSessionConfig, OnlyNoneMode],
            forbid: &[DataReadable, DataWritable],
        },
    ];

    for case in table {
        let mix = StrataMix::new().with(case.class, case.count);
        let (pop, _, report) = pipeline(mix, 0xA11CE ^ case.count as u64);
        assert_eq!(report.hosts, case.count, "{:?}", case.class);
        for host in pop.of_class(case.class) {
            let hr = report
                .host_reports
                .iter()
                .find(|h| h.address == host.address)
                .unwrap_or_else(|| panic!("{:?}: no report for {}", case.class, host.address));
            for d in case.expect {
                assert!(
                    hr.deficits.contains(d),
                    "{:?} host {} must carry {d:?}, has {:?}",
                    case.class,
                    host.address,
                    hr.deficits
                );
            }
            for d in case.forbid {
                assert!(
                    !hr.deficits.contains(d),
                    "{:?} host {} must not carry {d:?}",
                    case.class,
                    host.address
                );
            }
        }
    }
}

#[test]
fn clean_ca_signed_hosts_have_no_deficits() {
    let (_, _, report) = pipeline(StrataMix::new().with(HostClass::SecureCa, 3), 77);
    assert_eq!(report.hosts, 3);
    for hr in &report.host_reports {
        assert!(
            hr.deficits.is_empty(),
            "clean host {} flagged: {:?}",
            hr.address,
            hr.deficits
        );
    }
}

#[test]
fn certificate_reuse_cluster_detected_across_hosts() {
    let mix = StrataMix::new()
        .with(HostClass::ReusedCert, 4)
        .with(HostClass::SecureModern, 3);
    let (pop, _, report) = pipeline(mix, 0xBEEF);
    assert_eq!(report.count(Deficit::ReusedCertificate), 4);
    assert_eq!(report.reuse_clusters.len(), 1);
    let cluster = &report.reuse_clusters[0];
    assert_eq!(cluster.hosts.len(), 4);
    for host in pop.of_class(HostClass::ReusedCert) {
        assert!(cluster.hosts.contains(&host.address));
    }
    // Independent hosts are not flagged.
    for host in pop.of_class(HostClass::SecureModern) {
        let hr = report
            .host_reports
            .iter()
            .find(|h| h.address == host.address)
            .unwrap();
        assert!(!hr.deficits.contains(&Deficit::ReusedCertificate));
    }
}

#[test]
fn shared_prime_keys_found_by_batch_gcd() {
    let mix = StrataMix::new()
        .with(HostClass::SharedPrime, 3)
        .with(HostClass::SecureModern, 3);
    let (pop, _, report) = pipeline(mix, 0xF00D);
    assert_eq!(report.count(Deficit::SharedPrimeKey), 3);
    assert!(!report.shared_prime_pairs.is_empty());
    for host in pop.of_class(HostClass::SharedPrime) {
        let hr = report
            .host_reports
            .iter()
            .find(|h| h.address == host.address)
            .unwrap();
        assert!(hr.deficits.contains(&Deficit::SharedPrimeKey));
        // Distinct certificates — this is weak keygen, not cert reuse.
        assert!(!hr.deficits.contains(&Deficit::ReusedCertificate));
    }
    for host in pop.of_class(HostClass::SecureModern) {
        let hr = report
            .host_reports
            .iter()
            .find(|h| h.address == host.address)
            .unwrap();
        assert!(!hr.deficits.contains(&Deficit::SharedPrimeKey));
    }
}

#[test]
fn zero_modulus_certificate_is_assessed_not_fatal() {
    // A server delivers whatever certificate bytes it likes, and the
    // subject key's modulus is parsed as delivered, 0 included. Two
    // hosts share one store: one serves a valid self-signed
    // certificate, the other a copy whose modulus was set to 0. Both
    // moduli reach the batch GCD, which must not divide by the zero.
    let mut rng = StdRng::seed_from_u64(0x2e80);
    let key = RsaPrivateKey::generate(&mut rng, 192, 2048);
    let cert = CertificateBuilder::new(DistinguishedName::new("plc-1", "Acme"))
        .self_signed(HashAlgorithm::Sha256, &key);
    let mut zeroed = cert.clone();
    zeroed.tbs.public_key.n = BigUint::zero();
    let certs = CertStore::new();
    let records: Vec<ScanRecord> = [cert.to_der(), zeroed.to_der()]
        .iter()
        .zip(1u8..)
        .map(|(der, host)| {
            let mut record = ScanRecord::new(Ipv4::new(10, 0, 0, host), 0, 0);
            let payload = record.opcua_mut();
            payload.hello_ok = true;
            payload.endpoints = vec![EndpointSnapshot {
                security_mode: MessageSecurityMode::SignAndEncrypt,
                security_policy: Some(SecurityPolicy::Basic256Sha256),
                security_policy_uri: Some(SecurityPolicy::Basic256Sha256.uri().into()),
                token_types: Vec::new(),
                certificate: Some(certs.intern(der)),
                security_level: 0,
            }];
            record
        })
        .collect();
    let zero_cert = records[1].certificates()[0];
    assert_eq!(zero_cert.modulus(), Some(&BigUint::zero()));
    assert!(!zero_cert.is_self_signed());

    let report = assess(&records);
    assert_eq!(report.hosts, 2);
    assert_eq!(report.count(Deficit::SharedPrimeKey), 0);
    assert!(report.shared_prime_pairs.is_empty());
}

#[test]
fn discovery_servers_classified_and_exempt_from_data_rules() {
    let mix = StrataMix::new()
        .with(HostClass::WideOpen, 2)
        .with(HostClass::DiscoveryServer, 2);
    let (pop, records, report) = pipeline(mix, 0xD15C);
    assert_eq!(report.discovery_servers, 2);
    for host in pop.of_class(HostClass::DiscoveryServer) {
        let record = records.iter().find(|r| r.address == host.address).unwrap();
        assert!(record.is_discovery_server());
        assert!(
            !record.referred_urls().is_empty(),
            "LDS must reference other deployments"
        );
        let hr = report
            .host_reports
            .iter()
            .find(|h| h.address == host.address)
            .unwrap();
        assert!(hr.deficits.contains(&Deficit::OnlyNoneMode));
        assert!(!hr.deficits.contains(&Deficit::DataReadable));
    }
}

#[test]
fn aggregate_counts_match_ground_truth_on_paper_mix() {
    let mix = StrataMix::paper_like(40);
    let (pop, _, report) = pipeline(mix, 2020);
    let n = |c| pop.count(c);

    assert_eq!(report.hosts, pop.len());
    // Referral-only strata are found (with provenance) despite being
    // invisible to the sweep.
    assert_eq!(
        report.referrals.referral_only_hosts,
        n(HostClass::HiddenServer) + n(HostClass::ChainedLds)
    );
    assert_eq!(
        report.count(Deficit::OnlyNoneMode),
        n(HostClass::WideOpen)
            + n(HostClass::BrokenSession)
            + n(HostClass::DiscoveryServer)
            + n(HostClass::ChainedLds)
    );
    assert_eq!(
        report.count(Deficit::DeprecatedPolicy),
        n(HostClass::DeprecatedOnly) + n(HostClass::MixedLegacy)
    );
    assert_eq!(
        report.count(Deficit::ExpiredCertificate),
        n(HostClass::ExpiredCert)
    );
    assert_eq!(
        report.count(Deficit::CertificateTooWeak),
        n(HostClass::WeakCert)
    );
    assert_eq!(
        report.count(Deficit::ReusedCertificate),
        n(HostClass::ReusedCert)
    );
    assert_eq!(
        report.count(Deficit::SharedPrimeKey),
        n(HostClass::SharedPrime)
    );
    assert_eq!(
        report.count(Deficit::AnonymousAccess),
        n(HostClass::WideOpen)
            + n(HostClass::MixedLegacy)
            + n(HostClass::BrokenSession)
            + n(HostClass::DiscoveryServer)
            + n(HostClass::HiddenServer)
            + n(HostClass::ChainedLds)
    );
    assert_eq!(
        report.count(Deficit::BrokenSessionConfig),
        n(HostClass::BrokenSession)
    );
    assert_eq!(
        report.count(Deficit::DataReadable),
        n(HostClass::WideOpen) + n(HostClass::MixedLegacy) + n(HostClass::HiddenServer)
    );
    // Writable/executable data matches the deployed address spaces.
    let writable_hosts = pop
        .hosts
        .iter()
        .filter(|h| {
            matches!(
                h.class,
                HostClass::WideOpen | HostClass::MixedLegacy | HostClass::HiddenServer
            ) && h.writable_variables > 0
        })
        .count();
    assert_eq!(report.count(Deficit::DataWritable), writable_hosts);
    let executable_hosts = pop
        .hosts
        .iter()
        .filter(|h| {
            matches!(
                h.class,
                HostClass::WideOpen | HostClass::MixedLegacy | HostClass::HiddenServer
            ) && h.executable_methods > 0
        })
        .count();
    assert_eq!(report.count(Deficit::MethodsExecutable), executable_hosts);
    // Self-signed: every certificate-bearing class except the CA-signed one.
    assert_eq!(
        report.count(Deficit::SelfSignedCertificate),
        n(HostClass::DeprecatedOnly)
            + n(HostClass::MixedLegacy)
            + n(HostClass::SecureModern)
            + n(HostClass::ExpiredCert)
            + n(HostClass::WeakCert)
            + n(HostClass::ReusedCert)
            + n(HostClass::SharedPrime)
            + n(HostClass::HiddenServer)
    );
    // Sessions: anonymous activation succeeds on wide-open, mixed,
    // hidden, and discovery hosts; broken hosts land in the
    // auth-rejected column.
    assert_eq!(
        report.sessions.anonymous_activated,
        n(HostClass::WideOpen)
            + n(HostClass::MixedLegacy)
            + n(HostClass::DiscoveryServer)
            + n(HostClass::HiddenServer)
            + n(HostClass::ChainedLds)
    );
    assert_eq!(report.sessions.auth_rejected, n(HostClass::BrokenSession));
}

#[test]
fn referral_port_novelty_judged_against_campaign_port_not_4840() {
    use netsim::Ipv4;
    use scanner::DiscoveredVia;

    // A campaign swept on port 4841: a referral host on 4841 is *not*
    // novel, while one on 4840 is.
    let mut swept =
        ScanRecord::for_target(Ipv4::new(10, 0, 0, 1), 4841, DiscoveredVia::Sweep, 0, 0);
    swept.opcua_mut().hello_ok = true;
    let referrer = swept.address;
    let mut same_port = ScanRecord::for_target(
        Ipv4::new(10, 0, 0, 2),
        4841,
        DiscoveredVia::Referral {
            from: referrer,
            depth: 1,
        },
        0,
        0,
    );
    same_port.opcua_mut().hello_ok = true;
    let mut odd_port = ScanRecord::for_target(
        Ipv4::new(10, 0, 0, 3),
        4840,
        DiscoveredVia::Referral {
            from: referrer,
            depth: 1,
        },
        0,
        0,
    );
    odd_port.opcua_mut().hello_ok = true;

    let report = assess(&[swept, same_port, odd_port]);
    assert_eq!(report.referrals.referral_only_hosts, 2);
    assert_eq!(report.referrals.non_default_port_hosts, 1);
}

#[test]
fn same_seed_produces_identical_aggregates() {
    let run = |seed| {
        let (_, _, report) = pipeline(StrataMix::paper_like(35), seed);
        report
    };
    let a = run(314);
    let b = run(314);
    assert_eq!(a.hosts, b.hosts);
    assert_eq!(a.deficit_counts, b.deficit_counts);
    assert_eq!(a.mode_distribution, b.mode_distribution);
    assert_eq!(a.policy_distribution, b.policy_distribution);
    assert_eq!(a.token_distribution, b.token_distribution);
    assert_eq!(
        a.reuse_clusters
            .iter()
            .map(|c| &c.thumbprint_hex)
            .collect::<Vec<_>>(),
        b.reuse_clusters
            .iter()
            .map(|c| &c.thumbprint_hex)
            .collect::<Vec<_>>()
    );
    assert_eq!(
        a.sessions.anonymous_activated,
        b.sessions.anonymous_activated
    );
    assert_eq!(a.sessions.auth_rejected, b.sessions.auth_rejected);
    // And the rendered report itself is stable.
    assert_eq!(a.to_string(), b.to_string());
}
