//! Population-level aggregation: cross-host analyses and the summary
//! tables of the paper.

use crate::deficit::{host_deficits, Deficit};
use netsim::Ipv4;
use scanner::{DiscoveredVia, FaultStats, ScanRecord, SessionOutcome, DEFAULT_OPCUA_PORT};
// ua-lint: allow(unordered-iteration) -- the one HashMap left is a lookup-only dedup index
use std::collections::{BTreeMap, BTreeSet, HashMap};
use ua_crypto::hash::to_hex;
use ua_crypto::{find_shared_factors, BigUint};
use ua_types::{MessageSecurityMode, SecurityPolicy, UserTokenType};

/// Per-host assessment outcome.
#[derive(Debug, Clone)]
pub struct HostReport {
    /// Host address.
    pub address: Ipv4,
    /// Port the host was probed on.
    pub port: u16,
    /// How the scanner discovered the host (sweep or LDS referral).
    pub via: DiscoveredVia,
    /// AS number.
    pub asn: u32,
    /// True for local discovery servers.
    pub is_discovery_server: bool,
    /// Referral URLs this host announced via FindServers.
    pub announced_referrals: usize,
    /// Every deficit detected on this host.
    pub deficits: BTreeSet<Deficit>,
}

/// Table 1-style accounting of what referral following added on top of
/// the sweep: the host category that is invisible without it.
#[derive(Debug, Clone, Default)]
pub struct ReferralSummary {
    /// Hosts reachable *only* via an LDS referral (their records carry
    /// [`DiscoveredVia::Referral`] provenance).
    pub referral_only_hosts: usize,
    /// Hosts announcing at least one referral URL.
    pub referring_hosts: usize,
    /// Discovery servers among the referring hosts.
    pub referring_discovery_servers: usize,
    /// Referral-discovered hosts on a port other than the campaign's
    /// sweep port (derived from the swept records;
    /// [`DEFAULT_OPCUA_PORT`] when a record set contains none).
    pub non_default_port_hosts: usize,
    /// Deepest referral chain among assessed hosts.
    pub max_chain_depth: u32,
    /// Deficit counts among referral-only hosts (the report renders
    /// these next to the whole-population counts for the
    /// swept-vs-referred deficit-rate contrast).
    pub deficit_counts: BTreeMap<Deficit, usize>,
}

/// A certificate served by more than one host.
#[derive(Debug, Clone)]
pub struct ReuseCluster {
    /// SHA-1 thumbprint (hex) of the reused certificate.
    pub thumbprint_hex: String,
    /// Hosts serving it, ascending.
    pub hosts: Vec<Ipv4>,
}

/// A pair of hosts whose RSA moduli share a prime factor.
#[derive(Debug, Clone)]
pub struct SharedPrimePair {
    /// First host.
    pub a: Ipv4,
    /// Second host.
    pub b: Ipv4,
}

/// Session-stage tallies (the paper's Table 2 columns).
#[derive(Debug, Clone, Copy, Default)]
pub struct SessionTally {
    /// Hosts where no session was attempted.
    pub not_attempted: usize,
    /// Secure-channel stage rejections.
    pub channel_rejected: usize,
    /// Authentication-stage rejections.
    pub auth_rejected: usize,
    /// Other protocol failures.
    pub protocol_error: usize,
    /// Anonymous sessions activated.
    pub anonymous_activated: usize,
}

/// The full population assessment.
#[derive(Debug, Clone)]
pub struct AssessmentReport {
    /// Hosts assessed (records with at least a completed UACP hello).
    pub hosts: usize,
    /// Responsive hosts that did not speak OPC UA (excluded from rules).
    pub non_opcua: usize,
    /// Discovery servers among the assessed hosts.
    pub discovery_servers: usize,
    /// Per-host outcomes, in record order.
    pub host_reports: Vec<HostReport>,
    /// Hosts per deficit.
    pub deficit_counts: BTreeMap<Deficit, usize>,
    /// Hosts offering each security mode.
    pub mode_distribution: BTreeMap<MessageSecurityMode, usize>,
    /// Hosts offering each (parseable) security policy.
    pub policy_distribution: BTreeMap<SecurityPolicy, usize>,
    /// Hosts offering each identity-token type.
    pub token_distribution: BTreeMap<UserTokenType, usize>,
    /// Certificate-reuse clusters, largest first.
    pub reuse_clusters: Vec<ReuseCluster>,
    /// Host pairs with shared prime factors.
    pub shared_prime_pairs: Vec<SharedPrimePair>,
    /// Session-stage outcomes.
    pub sessions: SessionTally,
    /// What following LDS referrals added on top of the sweep.
    pub referrals: ReferralSummary,
    /// Reachability over *every* folded record, including hosts the
    /// probe stack never got a byte out of: the same fold as the scan's
    /// [`ScanSummary::faults`](scanner::ScanSummary::faults). The report
    /// renders it only when a fault or a retry showed up.
    pub reachability: FaultStats,
    /// Assessed hosts per protocol suite (`"opcua"`, `"uat-tls"`, …).
    pub protocol_hosts: BTreeMap<&'static str, usize>,
    /// Vendor breakdown recovered by the fingerprint stage (hosts per
    /// identified vendor). Empty when no fingerprint stage ran.
    pub vendor_counts: BTreeMap<&'static str, usize>,
    /// Assessed hosts the fingerprint stage could not attribute (no
    /// known quirk, or the stage did not run).
    pub unfingerprinted: usize,
}

impl AssessmentReport {
    /// Hosts flagged with `deficit`.
    pub fn count(&self, deficit: Deficit) -> usize {
        self.deficit_counts.get(&deficit).copied().unwrap_or(0)
    }

    /// Share of assessed hosts flagged with `deficit` in `[0, 1]`.
    pub fn share(&self, deficit: Deficit) -> f64 {
        if self.hosts == 0 {
            0.0
        } else {
            self.count(deficit) as f64 / self.hosts as f64
        }
    }
}

/// Incremental population assessment: fold [`ScanRecord`]s one at a time
/// as a campaign streams them, then [`finalize`](Assessor::finalize) into
/// the [`AssessmentReport`].
///
/// Per-host rules run immediately on [`fold`](Assessor::fold); the small
/// cross-host state (thumbprint→hosts, modulus→hosts) accumulates online.
/// Only batch GCD — which needs every modulus — is deferred to
/// finalization, together with the back-patching of the two cross-host
/// deficits ([`Deficit::ReusedCertificate`], [`Deficit::SharedPrimeKey`])
/// into the per-host reports.
///
/// `fold` + `finalize` over any record sequence produces exactly the
/// report [`assess`] produces over the same slice; streaming consumers
/// (e.g. `examples/deployment_audit.rs`) read the running tallies via
/// [`hosts_seen`](Assessor::hosts_seen) and
/// [`running_count`](Assessor::running_count) while the scan is live.
#[derive(Debug, Default)]
pub struct Assessor {
    host_reports: Vec<HostReport>,
    non_opcua: usize,
    sweep_port: Option<u16>,
    by_thumbprint: BTreeMap<[u8; 20], BTreeSet<Ipv4>>,
    moduli: Vec<BigUint>,
    modulus_hosts: Vec<BTreeSet<Ipv4>>,
    // ua-lint: allow(unordered-iteration) -- modulus dedup index: keyed lookup only, never iterated
    modulus_index: HashMap<BigUint, usize>,
    deficit_counts: BTreeMap<Deficit, usize>,
    mode_distribution: BTreeMap<MessageSecurityMode, usize>,
    policy_distribution: BTreeMap<SecurityPolicy, usize>,
    token_distribution: BTreeMap<UserTokenType, usize>,
    sessions: SessionTally,
    reachability: FaultStats,
    protocol_hosts: BTreeMap<&'static str, usize>,
    vendor_counts: BTreeMap<&'static str, usize>,
    unfingerprinted: usize,
}

impl Assessor {
    /// An empty assessor.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one record into the running assessment. Per-host rules run
    /// now; cross-host state accumulates for [`Self::finalize`].
    pub fn fold(&mut self, record: &ScanRecord) {
        if !record.via.is_referral() {
            // Every swept record carries the campaign's sweep port; the
            // referral section judges "non-default port" against it
            // rather than assuming 4840.
            self.sweep_port.get_or_insert(record.port);
        }
        // Reachability counts every record — faulted hosts never reach
        // the hello stage, and writing them off silently is exactly the
        // bias the retry layer exists to measure.
        self.reachability.observe(record);
        if !record.speaks() {
            self.non_opcua += 1;
            return;
        }
        *self
            .protocol_hosts
            .entry(record.payload.protocol())
            .or_default() += 1;
        match record.vendor_fingerprint() {
            Some(vendor) => *self.vendor_counts.entry(vendor).or_default() += 1,
            None => self.unfingerprinted += 1,
        }
        let deficits = host_deficits(record);
        for &d in &deficits {
            *self.deficit_counts.entry(d).or_default() += 1;
        }
        self.host_reports.push(HostReport {
            address: record.address,
            port: record.port,
            via: record.via,
            asn: record.asn,
            is_discovery_server: record.is_discovery_server(),
            announced_referrals: record.referred_urls().len(),
            deficits,
        });

        // Cross-host: certificate reuse (thumbprint) and shared primes
        // (batch GCD over moduli), folded over the *interned* handles —
        // thumbprints and parsed moduli were precomputed once per
        // distinct certificate by the scanner's `CertStore`, so this is
        // pure map bookkeeping, no hashing or DER parsing per host.
        // Moduli are deduplicated with host multiplicity tracked: hosts
        // serving the *same* key are reuse, not weak randomness (the
        // paper checks distinct keys pairwise), and finalize's batch
        // GCD input shrinks by exactly the reuse factor.
        for cert in record.certificates() {
            self.by_thumbprint
                .entry(cert.thumbprint())
                .or_default()
                .insert(record.address);
            let Some(n) = cert.modulus() else {
                continue;
            };
            let idx = match self.modulus_index.get(n) {
                Some(&idx) => idx,
                None => {
                    self.moduli.push(n.clone());
                    self.modulus_hosts.push(BTreeSet::new());
                    self.modulus_index.insert(n.clone(), self.moduli.len() - 1);
                    self.moduli.len() - 1
                }
            };
            self.modulus_hosts[idx].insert(record.address);
        }

        // Distributions and session tallies.
        let mut modes: BTreeSet<MessageSecurityMode> = BTreeSet::new();
        let mut policies: BTreeSet<SecurityPolicy> = BTreeSet::new();
        let mut tokens: BTreeSet<UserTokenType> = BTreeSet::new();
        for ep in record.endpoints() {
            modes.insert(ep.security_mode);
            if let Some(p) = ep.security_policy {
                policies.insert(p);
            }
            tokens.extend(ep.token_types.iter().copied());
        }
        for m in modes {
            *self.mode_distribution.entry(m).or_default() += 1;
        }
        for p in policies {
            *self.policy_distribution.entry(p).or_default() += 1;
        }
        for t in tokens {
            *self.token_distribution.entry(t).or_default() += 1;
        }
        match record.session() {
            SessionOutcome::NotAttempted => self.sessions.not_attempted += 1,
            SessionOutcome::ChannelRejected => self.sessions.channel_rejected += 1,
            SessionOutcome::AuthRejected => self.sessions.auth_rejected += 1,
            SessionOutcome::ProtocolError => self.sessions.protocol_error += 1,
            SessionOutcome::AnonymousActivated => self.sessions.anonymous_activated += 1,
        }
    }

    /// OPC UA hosts folded so far.
    pub fn hosts_seen(&self) -> usize {
        self.host_reports.len()
    }

    /// Responsive-but-not-OPC-UA records folded so far.
    pub fn non_opcua_seen(&self) -> usize {
        self.non_opcua
    }

    /// Running count of hosts flagged with `deficit` by the *per-host*
    /// rules. The two cross-host deficits stay 0 until
    /// [`Self::finalize`] — they cannot be attributed before the
    /// population is complete.
    pub fn running_count(&self, deficit: Deficit) -> usize {
        self.deficit_counts.get(&deficit).copied().unwrap_or(0)
    }

    /// Completes the assessment: runs batch GCD over the accumulated
    /// moduli, patches the cross-host deficits into the per-host
    /// reports, and builds the final tables.
    pub fn finalize(self) -> AssessmentReport {
        let Assessor {
            mut host_reports,
            non_opcua,
            sweep_port,
            by_thumbprint,
            moduli,
            modulus_hosts,
            modulus_index: _,
            mut deficit_counts,
            mode_distribution,
            policy_distribution,
            token_distribution,
            sessions,
            reachability,
            protocol_hosts,
            vendor_counts,
            unfingerprinted,
        } = self;

        let mut reuse_clusters: Vec<ReuseCluster> = by_thumbprint
            .iter()
            .filter(|(_, hosts)| hosts.len() > 1)
            .map(|(tp, hosts)| ReuseCluster {
                thumbprint_hex: to_hex(tp),
                hosts: hosts.iter().copied().collect(),
            })
            .collect();
        reuse_clusters.sort_by(|a, b| {
            b.hosts
                .len()
                .cmp(&a.hosts.len())
                .then_with(|| a.thumbprint_hex.cmp(&b.thumbprint_hex))
        });
        let reused_hosts: BTreeSet<Ipv4> = reuse_clusters
            .iter()
            .flat_map(|c| c.hosts.iter().copied())
            .collect();

        let mut shared_prime_pairs = Vec::new();
        let mut shared_prime_hosts: BTreeSet<Ipv4> = BTreeSet::new();
        for hit in find_shared_factors(&moduli) {
            for &a in &modulus_hosts[hit.a] {
                shared_prime_hosts.insert(a);
            }
            for &b in &modulus_hosts[hit.b] {
                shared_prime_hosts.insert(b);
            }
            // ua-lint: allow(panic-hygiene) -- every modulus slot gains a host the moment it is created
            let a = *modulus_hosts[hit.a].iter().next().expect("hosts recorded");
            // ua-lint: allow(panic-hygiene) -- every modulus slot gains a host the moment it is created
            let b = *modulus_hosts[hit.b].iter().next().expect("hosts recorded");
            shared_prime_pairs.push(SharedPrimePair { a, b });
        }

        for hr in &mut host_reports {
            if reused_hosts.contains(&hr.address) && hr.deficits.insert(Deficit::ReusedCertificate)
            {
                *deficit_counts
                    .entry(Deficit::ReusedCertificate)
                    .or_default() += 1;
            }
            if shared_prime_hosts.contains(&hr.address)
                && hr.deficits.insert(Deficit::SharedPrimeKey)
            {
                *deficit_counts.entry(Deficit::SharedPrimeKey).or_default() += 1;
            }
        }

        // Referral accounting — computed after the cross-host
        // back-patch so referral-only deficit counts include reuse and
        // shared-prime findings.
        let mut referrals = ReferralSummary::default();
        let campaign_port = sweep_port.unwrap_or(DEFAULT_OPCUA_PORT);
        for hr in &host_reports {
            if hr.announced_referrals > 0 {
                referrals.referring_hosts += 1;
                if hr.is_discovery_server {
                    referrals.referring_discovery_servers += 1;
                }
            }
            if hr.via.is_referral() {
                referrals.referral_only_hosts += 1;
                if hr.port != campaign_port {
                    referrals.non_default_port_hosts += 1;
                }
                referrals.max_chain_depth = referrals.max_chain_depth.max(hr.via.depth());
                for &d in &hr.deficits {
                    *referrals.deficit_counts.entry(d).or_default() += 1;
                }
            }
        }

        AssessmentReport {
            hosts: host_reports.len(),
            non_opcua,
            discovery_servers: host_reports
                .iter()
                .filter(|h| h.is_discovery_server)
                .count(),
            host_reports,
            deficit_counts,
            mode_distribution,
            policy_distribution,
            token_distribution,
            reuse_clusters,
            shared_prime_pairs,
            sessions,
            referrals,
            reachability,
            protocol_hosts,
            vendor_counts,
            unfingerprinted,
        }
    }
}

/// Runs the per-host rules plus the cross-host analyses over `records`:
/// a thin batch wrapper over the incremental [`Assessor`].
pub fn assess(records: &[ScanRecord]) -> AssessmentReport {
    let mut assessor = Assessor::new();
    for record in records {
        assessor.fold(record);
    }
    assessor.finalize()
}

impl std::fmt::Display for AssessmentReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "OPC UA security assessment")?;
        writeln!(
            f,
            "  hosts: {} OPC UA ({} discovery servers), {} non-OPC-UA responders",
            self.hosts, self.discovery_servers, self.non_opcua
        )?;
        writeln!(
            f,
            "  discovery (Table 1): {} swept + {} referral-only ({} on non-default ports, max chain depth {})",
            self.hosts - self.referrals.referral_only_hosts,
            self.referrals.referral_only_hosts,
            self.referrals.non_default_port_hosts,
            self.referrals.max_chain_depth,
        )?;
        writeln!(
            f,
            "  referring hosts: {} ({} discovery servers announce referrals)",
            self.referrals.referring_hosts, self.referrals.referring_discovery_servers,
        )?;
        // Rendered only for multi-suite campaigns: OPC-UA-only output
        // stays byte-identical to the single-protocol report.
        if self.protocol_hosts.keys().any(|p| *p != "opcua") {
            writeln!(f, "  protocol suites (hosts):")?;
            for (proto, n) in &self.protocol_hosts {
                writeln!(
                    f,
                    "    {:<16} {:>6}  ({:>5.1} %)",
                    proto,
                    n,
                    pct(*n, self.hosts)
                )?;
            }
        }
        // Rendered only when the network bit: polite-campaign output is
        // byte-identical to the pre-fault-injection report.
        let reach = &self.reachability;
        if reach.unrecovered() > 0 || reach.retried_hosts > 0 {
            writeln!(
                f,
                "  reachability: {} ok, {} unreachable, {} timed out, {} throttled, {} tarpitted ({} hosts needed retries)",
                reach.ok,
                reach.unreachable,
                reach.timed_out,
                reach.throttled,
                reach.tarpitted,
                reach.retried_hosts,
            )?;
        }

        writeln!(f, "\n  security modes offered (hosts):")?;
        for (mode, n) in &self.mode_distribution {
            writeln!(
                f,
                "    {:<16} {:>6}  ({:>5.1} %)",
                mode.abbrev(),
                n,
                pct(*n, self.hosts)
            )?;
        }
        writeln!(f, "  security policies offered (hosts):")?;
        for (policy, n) in &self.policy_distribution {
            writeln!(
                f,
                "    {:<16} {:>6}  ({:>5.1} %)",
                policy.abbrev(),
                n,
                pct(*n, self.hosts)
            )?;
        }
        writeln!(f, "  identity tokens offered (hosts):")?;
        for (token, n) in &self.token_distribution {
            writeln!(
                f,
                "    {:<16} {:>6}  ({:>5.1} %)",
                token.label(),
                n,
                pct(*n, self.hosts)
            )?;
        }

        writeln!(f, "\n  configuration deficits (all hosts | referral-only):")?;
        let referred = self.referrals.referral_only_hosts;
        for d in Deficit::ALL {
            let n = self.count(d);
            let r = self.referrals.deficit_counts.get(&d).copied().unwrap_or(0);
            writeln!(
                f,
                "    {:<30} {:>6}  ({:>5.1} %) | {:>5}  ({:>5.1} %)",
                d.label(),
                n,
                pct(n, self.hosts),
                r,
                pct(r, referred),
            )?;
        }

        // Vendor breakdown (Table-6 style) — only when the fingerprint
        // stage attributed at least one host.
        if !self.vendor_counts.is_empty() {
            writeln!(f, "\n  vendor fingerprints (hosts):")?;
            for (vendor, n) in &self.vendor_counts {
                writeln!(
                    f,
                    "    {:<30} {:>6}  ({:>5.1} %)",
                    vendor,
                    n,
                    pct(*n, self.hosts)
                )?;
            }
            writeln!(
                f,
                "    {:<30} {:>6}  ({:>5.1} %)",
                "(unidentified)",
                self.unfingerprinted,
                pct(self.unfingerprinted, self.hosts)
            )?;
        }

        writeln!(f, "\n  sessions: {} anonymous activated, {} auth-rejected, {} channel-rejected, {} errors, {} not attempted",
            self.sessions.anonymous_activated,
            self.sessions.auth_rejected,
            self.sessions.channel_rejected,
            self.sessions.protocol_error,
            self.sessions.not_attempted,
        )?;

        if !self.reuse_clusters.is_empty() {
            writeln!(f, "\n  certificate reuse clusters:")?;
            for c in &self.reuse_clusters {
                writeln!(
                    f,
                    "    {} hosts share cert {}…",
                    c.hosts.len(),
                    &c.thumbprint_hex[..16]
                )?;
            }
        }
        if !self.shared_prime_pairs.is_empty() {
            writeln!(f, "  shared-prime key pairs:")?;
            for p in &self.shared_prime_pairs {
                writeln!(f, "    {} ↔ {}", p.a, p.b)?;
            }
        }
        Ok(())
    }
}

fn pct(n: usize, total: usize) -> f64 {
    if total == 0 {
        0.0
    } else {
        100.0 * n as f64 / total as f64
    }
}
