//! Per-target scan records — the data the measurement pipeline streams.
//!
//! One [`ScanRecord`] is produced per responsive host. The network-level
//! envelope (address, port, provenance, reachability, byte counters) is
//! protocol-agnostic; everything a protocol suite extracts lives in a
//! typed [`ProtocolPayload`] — the OPC UA snapshot (handshake outcome,
//! advertised endpoints, referred discovery URLs, traversal summary) is
//! one variant, the TLS-wrapped `uat-tls` transcript another. The
//! `assessment` crate consumes these records without ever touching the
//! network layer.

use netsim::Ipv4;
use std::sync::Arc;
use ua_client::Traversal;
use ua_crypto::{CertStore, ParsedCert};
use ua_types::{
    ApplicationType, EndpointDescription, MessageSecurityMode, NodeClass, SecurityPolicy,
    UserTokenType,
};

/// A scanner-side snapshot of one advertised endpoint: the subset of
/// [`EndpointDescription`] the assessment rules operate on, decoupled from
/// wire types so records can be stored/streamed cheaply.
#[derive(Debug, Clone, PartialEq)]
pub struct EndpointSnapshot {
    /// Message security mode.
    pub security_mode: MessageSecurityMode,
    /// Parsed security policy (`None` for unknown/garbled URIs).
    pub security_policy: Option<SecurityPolicy>,
    /// The raw policy URI as transmitted.
    pub security_policy_uri: Option<String>,
    /// Offered identity token types (deduplicated, sorted).
    pub token_types: Vec<UserTokenType>,
    /// The server certificate delivered during discovery, interned
    /// campaign-wide: a certificate served by N hosts is parsed and
    /// thumbprinted once, and all N snapshots share one handle.
    /// Equality compares the underlying DER bytes, so records stay
    /// byte-identical across worker counts and store instances.
    pub certificate: Option<Arc<ParsedCert>>,
    /// Server-assigned relative security level.
    pub security_level: u8,
}

impl EndpointSnapshot {
    /// Captures the fields of one endpoint description, interning the
    /// delivered certificate through `certs`.
    pub fn from_description(ep: &EndpointDescription, certs: &CertStore) -> Self {
        EndpointSnapshot {
            security_mode: ep.security_mode,
            security_policy: ep.security_policy(),
            security_policy_uri: ep.security_policy_uri.clone(),
            token_types: ep.token_types(),
            certificate: ep
                .server_certificate
                .as_deref()
                .map(|der| certs.intern(der)),
            security_level: ep.security_level,
        }
    }

    /// Raw DER bytes of the delivered certificate, if any.
    pub fn certificate_der(&self) -> Option<&[u8]> {
        self.certificate.as_deref().map(ParsedCert::der)
    }

    /// True if anonymous authentication is offered on this endpoint.
    pub fn allows_anonymous(&self) -> bool {
        self.token_types.contains(&UserTokenType::Anonymous)
    }
}

/// How the scanner came to probe a host: the breadth-first sweep, or a
/// FindServers referral announced by an already-probed host (the
/// paper's 2020-05-04 scanner extension, which surfaced over a thousand
/// servers hidden behind discovery servers on non-default ports).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiscoveredVia {
    /// Found by the zmap-style sweep on the campaign port.
    Sweep,
    /// Found by following an LDS referral.
    Referral {
        /// The host whose FindServers answer announced this target.
        from: Ipv4,
        /// Referral-chain depth: 1 for targets announced by swept
        /// hosts, 2 for targets announced by depth-1 hosts, and so on.
        depth: u32,
    },
}

impl DiscoveredVia {
    /// True for referral-discovered hosts.
    pub fn is_referral(&self) -> bool {
        matches!(self, DiscoveredVia::Referral { .. })
    }

    /// The referral-chain depth (0 for swept hosts).
    pub fn depth(&self) -> u32 {
        match self {
            DiscoveredVia::Sweep => 0,
            DiscoveredVia::Referral { depth, .. } => *depth,
        }
    }
}

/// Outcome of the session-establishment stage (the paper's Table 2
/// distinguishes exactly these failure stages).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SessionOutcome {
    /// No session was attempted (no anonymous token advertised, or the
    /// stage is disabled in the scan configuration).
    #[default]
    NotAttempted,
    /// The secure-channel stage rejected us (Table 2 "Secure Channel").
    ChannelRejected,
    /// Session creation/activation was rejected (Table 2
    /// "Authentication") — includes hosts with broken session configs.
    AuthRejected,
    /// The exchange failed in some other way (codec error, peer closed).
    ProtocolError,
    /// An anonymous session was activated — the host grants access
    /// without any credentials.
    AnonymousActivated,
}

/// Aggregate of a budgeted address-space traversal (the per-host data
/// behind the paper's Figure 7).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraversalSummary {
    /// Nodes discovered.
    pub nodes: usize,
    /// Variables discovered.
    pub variables: usize,
    /// Variables readable by the anonymous user.
    pub readable: usize,
    /// Variables writable by the anonymous user.
    pub writable: usize,
    /// Methods discovered.
    pub methods: usize,
    /// Methods executable by the anonymous user.
    pub executable: usize,
    /// True when a budget limit forced early disconnect.
    pub truncated: bool,
    /// Requests spent on the traversal.
    pub requests: u64,
}

impl TraversalSummary {
    /// Condenses a full traversal into the summary the record keeps.
    pub fn from_traversal(t: &Traversal) -> Self {
        let mut s = TraversalSummary {
            nodes: t.nodes.len(),
            truncated: t.truncated,
            requests: t.requests,
            ..TraversalSummary::default()
        };
        for node in &t.nodes {
            match node.node_class {
                NodeClass::Variable => {
                    s.variables += 1;
                    s.readable += node.readable as usize;
                    s.writable += node.writable as usize;
                }
                NodeClass::Method => {
                    s.methods += 1;
                    s.executable += node.executable as usize;
                }
                _ => {}
            }
        }
        s
    }
}

/// Network-level reachability verdict for one probed target: what the
/// connect/retry phase concluded before any protocol stage ran. The
/// paper's sweep contends with loss, scan-detecting firewalls, and
/// tarpits — without this taxonomy those hosts would silently vanish
/// into the non-speaker bucket and deficit rates would undercount.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum HostOutcome {
    /// The connect phase delivered a usable stream (whether or not the
    /// peer then spoke the probed protocol).
    #[default]
    Ok,
    /// The peer refused the connection (RST): live host, closed port —
    /// nothing a retry can recover.
    Unreachable,
    /// Every connect attempt ended in a SYN timeout: packet loss or a
    /// silent drop beyond the retry budget.
    TimedOut,
    /// A rate-limiting middlebox was still eating SYNs when the retry
    /// budget ran out (temporary or sweep-permanent blocklisting).
    Throttled,
    /// The peer accepted and then stalled — a silent tarpit, or a
    /// byte-dribbler that burned the whole stage budget.
    Tarpitted,
}

impl HostOutcome {
    /// Short stable label for reports.
    pub fn label(self) -> &'static str {
        match self {
            HostOutcome::Ok => "ok",
            HostOutcome::Unreachable => "unreachable",
            HostOutcome::TimedOut => "timed_out",
            HostOutcome::Throttled => "throttled",
            HostOutcome::Tarpitted => "tarpitted",
        }
    }
}

/// Everything the OPC UA probe ladder extracts from one host — the
/// paper's per-host measurement, as one [`ProtocolPayload`] variant.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct OpcUaPayload {
    /// UACP HEL/ACK succeeded — the host actually speaks OPC UA.
    pub hello_ok: bool,
    /// ApplicationUri from discovery (manufacturer clustering, §4).
    pub application_uri: Option<String>,
    /// Application display name.
    pub application_name: Option<String>,
    /// Application type (discovery servers are the paper's first host
    /// category).
    pub application_type: Option<ApplicationType>,
    /// Advertised endpoints.
    pub endpoints: Vec<EndpointSnapshot>,
    /// Discovery URLs of *other* servers announced via FindServers.
    pub referred_urls: Vec<String>,
    /// Outcome of the session stage.
    pub session: SessionOutcome,
    /// The server's reported `SoftwareVersion` (BuildInfo), read where
    /// an anonymous session succeeded — the paper's §6 upgrade signal:
    /// version deltas between weekly campaigns reveal (non-)patching.
    pub software_version: Option<String>,
    /// Traversal summary when an anonymous session succeeded.
    pub traversal: Option<TraversalSummary>,
    /// Implementation recovered from the vendor-fingerprint stage
    /// (error-taxonomy quirks on a malformed Hello), when that opt-in
    /// stage ran and the quirk matched a known implementation.
    pub vendor_fingerprint: Option<&'static str>,
}

/// What the `uat-tls` suite (the TLS-wrapped opc.tcp variant from
/// "Missed Opportunities", Dahlmanns et al. 2022) extracts: the TLS
/// prologue transcript plus the standard OPC UA measurement carried
/// over the wrapped stream.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct UatTlsPayload {
    /// The TLS prologue completed — the host speaks uat-tls.
    pub tls_ok: bool,
    /// The certificate presented in the TLS prologue, interned
    /// campaign-wide like endpoint certificates.
    pub server_cert: Option<Arc<ParsedCert>>,
    /// The prologue certificate was outside its validity window at
    /// probe time (the "TLS-with-expired-cert" deficit).
    pub cert_expired: bool,
    /// The OPC UA measurement taken over the TLS-wrapped stream.
    pub inner: OpcUaPayload,
}

/// The typed per-protocol measurement carried on every [`ScanRecord`].
///
/// Each registered `ProtocolSuite` installs its own variant as the
/// record template before any stage runs; adding a suite means adding a
/// variant here (payload matches stay exhaustive — `ua-lint` flags
/// `_ =>` arms that would silently swallow a future suite).
#[derive(Debug, Clone, PartialEq)]
pub enum ProtocolPayload {
    /// The plain opc.tcp measurement (the 2020 paper's study).
    OpcUa(OpcUaPayload),
    /// The TLS-wrapped opc.tcp measurement ("Missed Opportunities").
    UatTls(UatTlsPayload),
}

impl Default for ProtocolPayload {
    fn default() -> Self {
        ProtocolPayload::OpcUa(OpcUaPayload::default())
    }
}

impl ProtocolPayload {
    /// Stable suite label for reports.
    pub fn protocol(&self) -> &'static str {
        match self {
            ProtocolPayload::OpcUa(_) => "opcua",
            ProtocolPayload::UatTls(_) => "uat-tls",
        }
    }
}

/// Everything the scanner learned about one responsive host.
#[derive(Debug, Clone, PartialEq)]
pub struct ScanRecord {
    /// Target address.
    pub address: Ipv4,
    /// TCP port the host was probed on (referral targets frequently
    /// live on non-default ports).
    pub port: u16,
    /// How the scanner found this target.
    pub via: DiscoveredVia,
    /// Autonomous system announcing the address (0 if unannounced).
    pub asn: u32,
    /// Virtual unix time the probe started.
    pub discovered_unix: i64,
    /// The protocol suite's typed measurement.
    pub payload: ProtocolPayload,
    /// Total requests issued against this host.
    pub requests: u64,
    /// Bytes sent to this host.
    pub tx_bytes: u64,
    /// Bytes received from this host.
    pub rx_bytes: u64,
    /// What the connect/retry phase concluded about reachability.
    pub outcome: HostOutcome,
    /// Connect attempts spent (1 = the first SYN got through; 0 = no
    /// connect was ever issued, e.g. a dead referral target).
    pub connect_attempts: u32,
    /// Virtual microseconds spent waiting in retry backoff.
    pub backoff_micros: u64,
}

impl ScanRecord {
    /// A fresh OPC UA record for a sweep-discovered `address` on the
    /// default port, before any probe ran. Targeted probes (referrals)
    /// use [`Self::for_target`].
    pub fn new(address: Ipv4, asn: u32, discovered_unix: i64) -> Self {
        Self::for_target(
            address,
            crate::url::DEFAULT_OPCUA_PORT,
            DiscoveredVia::Sweep,
            asn,
            discovered_unix,
        )
    }

    /// A fresh record for an arbitrary `(address, port)` target with
    /// explicit discovery provenance. The payload defaults to the OPC
    /// UA variant; the engine, driving another suite, installs that
    /// suite's template ([`ProtocolPayload`]) before the first stage runs.
    pub fn for_target(
        address: Ipv4,
        port: u16,
        via: DiscoveredVia,
        asn: u32,
        discovered_unix: i64,
    ) -> Self {
        ScanRecord {
            address,
            port,
            via,
            asn,
            discovered_unix,
            payload: ProtocolPayload::default(),
            requests: 0,
            tx_bytes: 0,
            rx_bytes: 0,
            outcome: HostOutcome::default(),
            connect_attempts: 0,
            backoff_micros: 0,
        }
    }

    /// The OPC UA measurement, total over every suite: the `uat-tls`
    /// variant delegates to the measurement taken over its wrapped
    /// stream, so OPC UA probe stages and assessment rules operate on
    /// any record without matching the payload.
    pub fn opcua(&self) -> &OpcUaPayload {
        match &self.payload {
            ProtocolPayload::OpcUa(p) => p,
            ProtocolPayload::UatTls(t) => &t.inner,
        }
    }

    /// Mutable access to the OPC UA measurement (total, like
    /// [`Self::opcua`]) — what the shared probe stages write through.
    pub fn opcua_mut(&mut self) -> &mut OpcUaPayload {
        match &mut self.payload {
            ProtocolPayload::OpcUa(p) => p,
            ProtocolPayload::UatTls(t) => &mut t.inner,
        }
    }

    /// The `uat-tls` transcript, when this record was probed by that
    /// suite.
    pub fn uat_tls(&self) -> Option<&UatTlsPayload> {
        match &self.payload {
            ProtocolPayload::OpcUa(_) => None,
            ProtocolPayload::UatTls(t) => Some(t),
        }
    }

    /// Mutable `uat-tls` transcript access (None for other suites).
    pub fn uat_tls_mut(&mut self) -> Option<&mut UatTlsPayload> {
        match &mut self.payload {
            ProtocolPayload::OpcUa(_) => None,
            ProtocolPayload::UatTls(t) => Some(t),
        }
    }

    /// True when the host spoke the probed suite's protocol — the
    /// suite-generic version of the old `hello_ok` gate: OPC UA records
    /// require the UACP handshake, `uat-tls` records the TLS prologue.
    pub fn speaks(&self) -> bool {
        match &self.payload {
            ProtocolPayload::OpcUa(p) => p.hello_ok,
            ProtocolPayload::UatTls(t) => t.tls_ok,
        }
    }

    /// Stable label of the suite that probed this record.
    pub fn protocol(&self) -> &'static str {
        self.payload.protocol()
    }

    /// UACP HEL/ACK succeeded (over the TLS wrap for `uat-tls`).
    pub fn hello_ok(&self) -> bool {
        self.opcua().hello_ok
    }

    /// ApplicationUri from discovery.
    pub fn application_uri(&self) -> Option<&str> {
        self.opcua().application_uri.as_deref()
    }

    /// Application display name from discovery.
    pub fn application_name(&self) -> Option<&str> {
        self.opcua().application_name.as_deref()
    }

    /// Application type from discovery.
    pub fn application_type(&self) -> Option<ApplicationType> {
        self.opcua().application_type
    }

    /// Advertised endpoints.
    pub fn endpoints(&self) -> &[EndpointSnapshot] {
        &self.opcua().endpoints
    }

    /// Discovery URLs of *other* servers announced via FindServers.
    pub fn referred_urls(&self) -> &[String] {
        &self.opcua().referred_urls
    }

    /// Outcome of the session stage.
    pub fn session(&self) -> SessionOutcome {
        self.opcua().session
    }

    /// Reported `SoftwareVersion`, where an anonymous session read it.
    pub fn software_version(&self) -> Option<&str> {
        self.opcua().software_version.as_deref()
    }

    /// Traversal summary when an anonymous session succeeded.
    pub fn traversal(&self) -> Option<TraversalSummary> {
        self.opcua().traversal
    }

    /// Implementation recovered by the vendor-fingerprint stage.
    pub fn vendor_fingerprint(&self) -> Option<&'static str> {
        self.opcua().vendor_fingerprint
    }

    /// Folds a side-connection's traffic into the record's accounting.
    /// Stages that open extra connections beyond the main client (the
    /// vendor-fingerprint probe) call this; the engine separately folds
    /// the main client's stats when the stack finishes.
    pub fn account(&mut self, stream: &netsim::TcpStreamSim) {
        let stats = stream.stats();
        self.requests += 1;
        self.tx_bytes += stats.tx_bytes;
        self.rx_bytes += stats.rx_bytes;
    }

    /// The strongest (mode, policy) pairing advertised, by the paper's
    /// strength ranking (Figure 3 "most secure configuration").
    pub fn best_endpoint(&self) -> Option<&EndpointSnapshot> {
        self.endpoints().iter().max_by_key(|e| {
            (
                e.security_policy.map_or(0, |p| p.strength()),
                e.security_mode.strength(),
            )
        })
    }

    /// The weakest (mode, policy) pairing advertised (Figure 3 "least
    /// secure configuration").
    pub fn worst_endpoint(&self) -> Option<&EndpointSnapshot> {
        self.endpoints().iter().min_by_key(|e| {
            (
                e.security_policy.map_or(0, |p| p.strength()),
                e.security_mode.strength(),
            )
        })
    }

    /// True if any endpoint offers the given security mode.
    pub fn offers_mode(&self, mode: MessageSecurityMode) -> bool {
        self.endpoints().iter().any(|e| e.security_mode == mode)
    }

    /// True if any endpoint offers the given policy.
    pub fn offers_policy(&self, policy: SecurityPolicy) -> bool {
        self.endpoints()
            .iter()
            .any(|e| e.security_policy == Some(policy))
    }

    /// True if any endpoint advertises anonymous authentication.
    pub fn advertises_anonymous(&self) -> bool {
        self.endpoints()
            .iter()
            .any(EndpointSnapshot::allows_anonymous)
    }

    /// Distinct certificates delivered by this host, as interned
    /// handles (parsed fields and thumbprint precomputed). Includes the
    /// `uat-tls` prologue certificate, when one was presented.
    pub fn certificates(&self) -> Vec<&Arc<ParsedCert>> {
        let mut seen: Vec<&Arc<ParsedCert>> = Vec::new();
        let prologue = match &self.payload {
            ProtocolPayload::OpcUa(_) => None,
            ProtocolPayload::UatTls(t) => t.server_cert.as_ref(),
        };
        for cert in prologue.into_iter().chain(
            self.endpoints()
                .iter()
                .filter_map(|ep| ep.certificate.as_ref()),
        ) {
            // Pointer equality is the common case (one store per
            // campaign); DER equality covers mixed-store records.
            if !seen
                .iter()
                .any(|s| Arc::ptr_eq(s, cert) || s.der() == cert.der())
            {
                seen.push(cert);
            }
        }
        seen
    }

    /// True if this host is a discovery server (LDS).
    pub fn is_discovery_server(&self) -> bool {
        self.application_type() == Some(ApplicationType::DiscoveryServer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ua_types::{ApplicationDescription, UserTokenPolicy, TRANSPORT_PROFILE_BINARY};

    fn endpoint(mode: MessageSecurityMode, policy: SecurityPolicy) -> EndpointDescription {
        EndpointDescription {
            endpoint_url: Some("opc.tcp://10.0.0.1:4840/".into()),
            server: ApplicationDescription::server("urn:test", "t"),
            server_certificate: Some(vec![1, 2, 3]),
            security_mode: mode,
            security_policy_uri: Some(policy.uri().into()),
            user_identity_tokens: vec![
                UserTokenPolicy::new(UserTokenType::Anonymous),
                UserTokenPolicy::new(UserTokenType::UserName),
            ],
            transport_profile_uri: Some(TRANSPORT_PROFILE_BINARY.into()),
            security_level: 0,
        }
    }

    fn record_with(endpoints: Vec<EndpointSnapshot>) -> ScanRecord {
        let mut r = ScanRecord::new(Ipv4::new(10, 0, 0, 1), 0, 0);
        r.opcua_mut().endpoints = endpoints;
        r
    }

    #[test]
    fn snapshot_captures_description() {
        let ep = endpoint(MessageSecurityMode::Sign, SecurityPolicy::Basic256);
        let certs = CertStore::new();
        let snap = EndpointSnapshot::from_description(&ep, &certs);
        assert_eq!(snap.security_mode, MessageSecurityMode::Sign);
        assert_eq!(snap.security_policy, Some(SecurityPolicy::Basic256));
        assert!(snap.allows_anonymous());
        assert_eq!(snap.certificate_der(), Some(&[1u8, 2, 3][..]));
        // Garbage DER interns to a handle without a parsed certificate,
        // not a panic.
        let handle = snap.certificate.as_ref().unwrap();
        assert!(handle.certificate().is_none());
        assert!(handle.parse_error().is_some());
        assert_eq!(certs.stats().distinct, 1);
    }

    #[test]
    fn snapshots_share_interned_certificates() {
        let certs = CertStore::new();
        let a = EndpointSnapshot::from_description(
            &endpoint(MessageSecurityMode::Sign, SecurityPolicy::Basic256),
            &certs,
        );
        let b = EndpointSnapshot::from_description(
            &endpoint(MessageSecurityMode::None, SecurityPolicy::None),
            &certs,
        );
        assert!(Arc::ptr_eq(
            a.certificate.as_ref().unwrap(),
            b.certificate.as_ref().unwrap()
        ));
        let stats = certs.stats();
        assert_eq!(stats.sightings, 2);
        assert_eq!(stats.distinct, 1);
    }

    #[test]
    fn best_and_worst_endpoint_by_strength() {
        let certs = CertStore::new();
        let r = record_with(vec![
            EndpointSnapshot::from_description(
                &endpoint(MessageSecurityMode::None, SecurityPolicy::None),
                &certs,
            ),
            EndpointSnapshot::from_description(
                &endpoint(
                    MessageSecurityMode::SignAndEncrypt,
                    SecurityPolicy::Basic256Sha256,
                ),
                &certs,
            ),
            EndpointSnapshot::from_description(
                &endpoint(MessageSecurityMode::Sign, SecurityPolicy::Basic128Rsa15),
                &certs,
            ),
        ]);
        assert_eq!(
            r.best_endpoint().unwrap().security_policy,
            Some(SecurityPolicy::Basic256Sha256)
        );
        assert_eq!(
            r.worst_endpoint().unwrap().security_policy,
            Some(SecurityPolicy::None)
        );
        assert!(r.offers_mode(MessageSecurityMode::None));
        assert!(r.offers_policy(SecurityPolicy::Basic128Rsa15));
        assert!(!r.offers_policy(SecurityPolicy::Aes256Sha256RsaPss));
        assert!(r.advertises_anonymous());
    }

    #[test]
    fn certificates_deduplicated() {
        let certs = CertStore::new();
        let mut a = EndpointSnapshot::from_description(
            &endpoint(MessageSecurityMode::None, SecurityPolicy::None),
            &certs,
        );
        a.certificate = Some(certs.intern(&[9, 9]));
        let b = a.clone();
        let mut c = a.clone();
        // A second store instance: dedup must still work by DER bytes.
        c.certificate = Some(CertStore::new().intern(&[9, 9]));
        let mut d = a.clone();
        d.certificate = Some(certs.intern(&[7]));
        let r = record_with(vec![a, b, c, d]);
        assert_eq!(r.certificates().len(), 2);
    }

    #[test]
    fn provenance_defaults_and_targets() {
        let swept = ScanRecord::new(Ipv4::new(10, 0, 0, 1), 0, 0);
        assert_eq!(swept.via, DiscoveredVia::Sweep);
        assert_eq!(swept.port, 4840);
        assert!(!swept.via.is_referral());
        assert_eq!(swept.via.depth(), 0);

        let via = DiscoveredVia::Referral {
            from: Ipv4::new(10, 0, 0, 1),
            depth: 2,
        };
        let referred = ScanRecord::for_target(Ipv4::new(10, 0, 0, 9), 4842, via, 0, 0);
        assert_eq!(referred.port, 4842);
        assert!(referred.via.is_referral());
        assert_eq!(referred.via.depth(), 2);
    }

    #[test]
    fn payload_accessors_are_total_over_suites() {
        let mut opcua = ScanRecord::new(Ipv4::new(10, 0, 0, 1), 0, 0);
        assert_eq!(opcua.protocol(), "opcua");
        assert!(!opcua.speaks());
        opcua.opcua_mut().hello_ok = true;
        assert!(opcua.speaks());
        assert!(opcua.hello_ok());
        assert!(opcua.uat_tls().is_none());
        assert!(opcua.uat_tls_mut().is_none());

        // The uat-tls variant delegates the OPC UA accessors to the
        // wrapped measurement — `speaks` keys on the TLS prologue.
        let mut tls =
            ScanRecord::for_target(Ipv4::new(10, 0, 0, 2), 4843, DiscoveredVia::Sweep, 0, 0);
        tls.payload = ProtocolPayload::UatTls(UatTlsPayload::default());
        assert_eq!(tls.protocol(), "uat-tls");
        tls.opcua_mut().hello_ok = true;
        assert!(tls.hello_ok());
        assert!(!tls.speaks());
        tls.uat_tls_mut().unwrap().tls_ok = true;
        assert!(tls.speaks());
        assert!(tls.uat_tls().unwrap().inner.hello_ok);
        assert!(!tls.uat_tls().unwrap().cert_expired);
    }

    #[test]
    fn uat_tls_prologue_cert_joins_certificates() {
        let certs = CertStore::new();
        let mut r =
            ScanRecord::for_target(Ipv4::new(10, 0, 0, 3), 4843, DiscoveredVia::Sweep, 0, 0);
        r.payload = ProtocolPayload::UatTls(UatTlsPayload {
            tls_ok: true,
            server_cert: Some(certs.intern(&[5, 5])),
            cert_expired: false,
            inner: OpcUaPayload::default(),
        });
        // The prologue cert alone.
        assert_eq!(r.certificates().len(), 1);
        // An endpoint serving the same DER deduplicates against it.
        let mut ep = EndpointSnapshot::from_description(
            &endpoint(MessageSecurityMode::None, SecurityPolicy::None),
            &certs,
        );
        ep.certificate = Some(certs.intern(&[5, 5]));
        r.opcua_mut().endpoints = vec![ep];
        assert_eq!(r.certificates().len(), 1);
    }

    #[test]
    fn traversal_summary_counts_classes() {
        use ua_client::TraversedNode;
        use ua_types::{NodeId, Variant};
        let t = Traversal {
            nodes: vec![
                TraversedNode {
                    node_id: NodeId::string(1, "v1"),
                    browse_name: "v1".into(),
                    namespace_index: 1,
                    node_class: NodeClass::Variable,
                    readable: true,
                    writable: true,
                    executable: false,
                    value: Some(Variant::Double(1.0)),
                },
                TraversedNode {
                    node_id: NodeId::string(1, "v2"),
                    browse_name: "v2".into(),
                    namespace_index: 1,
                    node_class: NodeClass::Variable,
                    readable: true,
                    writable: false,
                    executable: false,
                    value: None,
                },
                TraversedNode {
                    node_id: NodeId::string(1, "m"),
                    browse_name: "m".into(),
                    namespace_index: 1,
                    node_class: NodeClass::Method,
                    readable: false,
                    writable: false,
                    executable: true,
                    value: None,
                },
            ],
            truncated: false,
            requests: 7,
        };
        let s = TraversalSummary::from_traversal(&t);
        assert_eq!(s.nodes, 3);
        assert_eq!(s.variables, 2);
        assert_eq!(s.readable, 2);
        assert_eq!(s.writable, 1);
        assert_eq!(s.methods, 1);
        assert_eq!(s.executable, 1);
        assert_eq!(s.requests, 7);
    }
}
