//! Protocol suites: the pluggable protocol layer of the scanner.
//!
//! The measurement methodology (sweep → handshake → feature traversal →
//! assessment) is not OPC-UA-specific — "Missed Opportunities"
//! (Dahlmanns et al., 2022) re-runs the same study shape over
//! TLS-wrapped IIoT protocols. A [`ProtocolSuite`] packages everything
//! protocol-specific behind one trait: the default port, the probe-stage
//! ladder (the existing [`Probe`] trait is the per-stage unit within a
//! suite), the connect-error → [`HostOutcome`] taxonomy, the typed
//! [`ProtocolPayload`] template carried on [`ScanRecord`], and — for
//! suites that have it — referral following. [`SuiteRegistry`] maps
//! ports to suites; a campaign with a non-empty registry sweeps the
//! union of registered ports and drives each port's suite through the
//! same engine, retry policy, and longitudinal machinery.
//!
//! Two suites ship:
//!
//! * [`OpcUaSuite`] — plain opc.tcp, the 2020 paper's study;
//! * [`UatTlsSuite`] — TLS-wrapped opc.tcp after "Missed
//!   Opportunities", whose deficits (TLS-but-anonymous,
//!   TLS-with-expired-cert) the assessment reports in their own
//!   columns.
//!
//! Both can append a vendor-fingerprint stage
//! ([`VendorFingerprintProbe`]): Erba et al. (2021) showed
//! implementations are distinguishable by their error taxonomy on
//! malformed input, so the stage sends a bad-version `HEL` on a fresh
//! connection and maps the `ERR` status onto the shared quirk table in
//! [`ua_proto::fingerprint`].

use crate::probe::{
    default_stack, EndpointsProbe, Probe, ProbeContext, ProbeOutcome, SessionProbe,
};
use crate::record::{HostOutcome, ProtocolPayload, ScanRecord, UatTlsPayload};
use netsim::ConnectError;
use std::sync::Arc;
use ua_client::UaClient;
use ua_proto::fingerprint::{vendor_for_quirk, PROBE_PROTOCOL_VERSION};
use ua_proto::transport::{FrameReader, Hello, TransportMessage};
use ua_proto::uatls;

/// The registered port of the `uat-tls` suite (by analogy with 4843,
/// the IANA `opcua-tls` port).
pub const DEFAULT_UATLS_PORT: u16 = 4843;

/// Everything protocol-specific about probing one kind of service.
///
/// Engines hold suites as `Arc<dyn ProtocolSuite>` and drive them
/// generically: per target they install [`ProtocolSuite::payload`] as
/// the record template, run the stages from [`ProtocolSuite::stack`] in
/// order until one stops, and — when
/// [`ProtocolSuite::follows_referrals`] — feed
/// [`ProtocolSuite::referrals`] into the breadth-first referral queue.
pub trait ProtocolSuite: Send + Sync {
    /// Stable suite name (reports, conformance harness).
    fn name(&self) -> &'static str;

    /// The port this suite conventionally listens on — what
    /// [`SuiteRegistry::with`] registers it under.
    fn default_port(&self) -> u16;

    /// A fresh probe-stage ladder for one event loop. Stages may keep
    /// per-target state; the engine never shares one stack across
    /// threads.
    fn stack(&self) -> Vec<Box<dyn Probe>>;

    /// The payload template installed on every record this suite
    /// probes, before the first stage runs.
    fn payload(&self) -> ProtocolPayload;

    /// Maps a connect-phase error onto the reachability taxonomy. The
    /// default is the shared TCP-level interpretation
    /// ([`classify_connect_error`]); suites whose transport colors the
    /// verdict differently override it.
    fn classify_connect_error(&self, err: ConnectError) -> HostOutcome {
        classify_connect_error(err)
    }

    /// Whether this suite can announce further targets (OPC UA's
    /// FindServers referrals). Suites returning `false` never enter the
    /// referral phase.
    fn follows_referrals(&self) -> bool {
        false
    }

    /// The referral URLs a probed record announced (empty unless
    /// [`ProtocolSuite::follows_referrals`]).
    fn referrals<'r>(&self, _record: &'r ScanRecord) -> &'r [String] {
        &[]
    }
}

/// The shared TCP-level connect-error taxonomy (what every suite means
/// by refused/timeout/throttled/tarpitted unless it overrides).
pub fn classify_connect_error(err: ConnectError) -> HostOutcome {
    match err {
        ConnectError::Refused => HostOutcome::Unreachable,
        ConnectError::NoRoute => HostOutcome::TimedOut,
        ConnectError::Throttled => HostOutcome::Throttled,
        ConnectError::Stalled => HostOutcome::Tarpitted,
    }
}

/// Port → suite map driving a multi-protocol campaign. Kept sorted by
/// port so [`crate::probe::ScanConfig::effective_suites`] — and with it
/// every engine — walks protocols in one deterministic order, and a
/// mixed-registry sweep equals the concatenation of single-suite sweeps.
#[derive(Clone, Default)]
pub struct SuiteRegistry {
    entries: Vec<(u16, Arc<dyn ProtocolSuite>)>,
}

impl SuiteRegistry {
    /// An empty registry (the classic single-protocol configuration).
    pub fn new() -> Self {
        SuiteRegistry::default()
    }

    /// A registry of the given suites, each on its default port.
    pub fn with(suites: impl IntoIterator<Item = Arc<dyn ProtocolSuite>>) -> Self {
        let mut reg = SuiteRegistry::new();
        for suite in suites {
            let port = suite.default_port();
            reg.register(port, suite);
        }
        reg
    }

    /// Registers `suite` on `port`, replacing any suite already there.
    pub fn register(&mut self, port: u16, suite: Arc<dyn ProtocolSuite>) {
        match self.entries.binary_search_by_key(&port, |(p, _)| *p) {
            Ok(i) => self.entries[i].1 = suite,
            Err(i) => self.entries.insert(i, (port, suite)),
        }
    }

    /// True when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of registered ports.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// The suite registered on `port`, if any.
    pub fn suite_for(&self, port: u16) -> Option<&Arc<dyn ProtocolSuite>> {
        self.entries
            .binary_search_by_key(&port, |(p, _)| *p)
            .ok()
            .map(|i| &self.entries[i].1)
    }

    /// Registered `(port, suite)` pairs in ascending port order.
    pub fn iter(&self) -> impl Iterator<Item = (u16, &Arc<dyn ProtocolSuite>)> {
        self.entries.iter().map(|(p, s)| (*p, s))
    }

    /// Registered ports in ascending order.
    pub fn ports(&self) -> Vec<u16> {
        self.entries.iter().map(|(p, _)| *p).collect()
    }
}

impl std::fmt::Debug for SuiteRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_map()
            .entries(self.entries.iter().map(|(p, s)| (p, s.name())))
            .finish()
    }
}

/// Plain opc.tcp — the 2020 paper's study, unchanged: UACP hello →
/// endpoints → FindServers → anonymous session, with FindServers
/// referrals feeding the referral engine.
#[derive(Debug, Clone, Copy, Default)]
pub struct OpcUaSuite {
    fingerprint: bool,
}

impl OpcUaSuite {
    /// The classic suite — byte-identical to the pre-suite pipeline.
    pub fn new() -> Self {
        OpcUaSuite::default()
    }

    /// The classic suite plus the vendor-fingerprint stage appended.
    pub fn with_fingerprint() -> Self {
        OpcUaSuite { fingerprint: true }
    }
}

impl ProtocolSuite for OpcUaSuite {
    fn name(&self) -> &'static str {
        "opcua"
    }

    fn default_port(&self) -> u16 {
        crate::url::DEFAULT_OPCUA_PORT
    }

    fn stack(&self) -> Vec<Box<dyn Probe>> {
        let mut stack = default_stack();
        if self.fingerprint {
            stack.push(Box::new(VendorFingerprintProbe { tls: false }));
        }
        stack
    }

    fn payload(&self) -> ProtocolPayload {
        ProtocolPayload::default()
    }

    fn follows_referrals(&self) -> bool {
        true
    }

    fn referrals<'r>(&self, record: &'r ScanRecord) -> &'r [String] {
        record.referred_urls()
    }
}

/// TLS-wrapped opc.tcp ("Missed Opportunities", Dahlmanns et al. 2022):
/// a TLS prologue in which the server presents (or fails to present) a
/// certificate, then ordinary OPC UA over the wrapped stream. No
/// referral following — the study treats wrapped deployments as leaves.
#[derive(Debug, Clone, Copy, Default)]
pub struct UatTlsSuite {
    fingerprint: bool,
}

impl UatTlsSuite {
    /// The wrapped suite: TLS prologue → endpoints → session.
    pub fn new() -> Self {
        UatTlsSuite::default()
    }

    /// The wrapped suite plus the vendor-fingerprint stage appended.
    pub fn with_fingerprint() -> Self {
        UatTlsSuite { fingerprint: true }
    }
}

impl ProtocolSuite for UatTlsSuite {
    fn name(&self) -> &'static str {
        "uat-tls"
    }

    fn default_port(&self) -> u16 {
        DEFAULT_UATLS_PORT
    }

    fn stack(&self) -> Vec<Box<dyn Probe>> {
        let mut stack: Vec<Box<dyn Probe>> = vec![
            Box::new(TlsHandshakeProbe),
            Box::new(EndpointsProbe),
            Box::new(SessionProbe),
        ];
        if self.fingerprint {
            stack.push(Box::new(VendorFingerprintProbe { tls: true }));
        }
        stack
    }

    fn payload(&self) -> ProtocolPayload {
        ProtocolPayload::UatTls(UatTlsPayload::default())
    }
}

/// Stage 1 of [`UatTlsSuite`]: TCP connect (under the shared retry
/// policy), the uat-tls prologue — capturing the presented certificate
/// and its validity at probe time — then the UACP HEL/ACK handshake
/// over the same, now-wrapped, stream.
pub struct TlsHandshakeProbe;

impl Probe for TlsHandshakeProbe {
    fn name(&self) -> &'static str {
        "uat_tls_handshake"
    }

    fn run(&mut self, ctx: &mut ProbeContext<'_>, record: &mut ScanRecord) -> ProbeOutcome {
        let Some(mut stream) = ctx.connect_with_retry(record) else {
            return ProbeOutcome::Stop;
        };
        // Same tarpit defense as the UACP stage: a delivered stream can
        // still dribble the stage budget away.
        let stage_start = ctx.internet.clock().now_micros();
        let tarpit_check = |ctx: &ProbeContext<'_>, record: &mut ScanRecord| {
            let elapsed = ctx
                .internet
                .clock()
                .now_micros()
                .saturating_sub(stage_start);
            if elapsed >= ctx.config.retry.stage_budget_micros {
                record.outcome = HostOutcome::Tarpitted;
            }
        };
        if stream.send(&uatls::CLIENT_HELLO).is_err() {
            return ProbeOutcome::Stop;
        }
        let reply = match stream.recv() {
            Ok(Some(reply)) => reply,
            Ok(None) | Err(_) => {
                tarpit_check(ctx, record);
                return ProbeOutcome::Stop;
            }
        };
        let Ok(server_hello) = uatls::decode_server_hello(&reply) else {
            tarpit_check(ctx, record);
            return ProbeOutcome::Stop;
        };
        let probed_at = record.discovered_unix;
        let Some(tls) = record.uat_tls_mut() else {
            // Engines install the suite's payload template before the
            // first stage; a mismatched template means a mis-registered
            // stack — stop rather than mis-file the transcript.
            return ProbeOutcome::Stop;
        };
        tls.tls_ok = true;
        if let Some(der) = &server_hello.cert_der {
            let parsed = ctx.certs.intern(der);
            tls.cert_expired = parsed
                .certificate()
                .is_some_and(|c| !c.is_valid_at(probed_at));
            tls.server_cert = Some(parsed);
        }
        // The prologue is done; the same stream now carries plain UACP.
        let mut client = UaClient::new(
            stream,
            ctx.internet.clock().clone(),
            ctx.config.client.clone(),
            ctx.seed,
        );
        match client.handshake(&ctx.endpoint_url) {
            Ok(()) => {
                record.opcua_mut().hello_ok = true;
                ctx.client = Some(client);
                ProbeOutcome::Continue
            }
            Err(_) => {
                tarpit_check(ctx, record);
                ProbeOutcome::Stop
            }
        }
    }
}

/// The opt-in vendor-fingerprint stage: on a *fresh* connection (the
/// main conversation stays polite and untouched) it sends a `HEL` with
/// [`PROBE_PROTOCOL_VERSION`] and reads the implementation's error
/// taxonomy off the `ERR` answer, mapping it through the shared quirk
/// table. Implementations that ignore the version field (the lenient
/// default, and every stack before the quirk table existed) answer
/// `ACK` and fingerprint as unknown. Always continues: fingerprinting
/// is a bonus signal, never a verdict.
pub struct VendorFingerprintProbe {
    /// Open the uat-tls prologue before speaking UACP (set for stacks
    /// probing wrapped servers).
    pub tls: bool,
}

impl Probe for VendorFingerprintProbe {
    fn name(&self) -> &'static str {
        "vendor_fingerprint"
    }

    fn run(&mut self, ctx: &mut ProbeContext<'_>, record: &mut ScanRecord) -> ProbeOutcome {
        // Only fingerprint hosts that completed the real handshake: the
        // stage classifies *implementations*, not reachability.
        if !record.hello_ok() {
            return ProbeOutcome::Continue;
        }
        let Ok(mut stream) = ctx
            .internet
            .connect(ctx.config.scanner_address, ctx.target, ctx.port)
        else {
            return ProbeOutcome::Continue;
        };
        if self.tls {
            let prologue_ok = stream.send(&uatls::CLIENT_HELLO).is_ok()
                && matches!(
                    stream.recv(),
                    Ok(Some(reply)) if uatls::decode_server_hello(&reply).is_ok()
                );
            if !prologue_ok {
                record.account(&stream);
                return ProbeOutcome::Continue;
            }
        }
        let hello = TransportMessage::Hello(Hello {
            protocol_version: PROBE_PROTOCOL_VERSION,
            endpoint_url: Some(ctx.endpoint_url.clone()),
            ..Hello::default()
        });
        if stream.send(&hello.encode()).is_ok() {
            if let Ok(Some(reply)) = stream.recv() {
                let mut frames = FrameReader::new();
                frames.push(&reply);
                if let Ok(Some(TransportMessage::Error(err))) = frames.next_message() {
                    record.opcua_mut().vendor_fingerprint = vendor_for_quirk(err.error);
                }
            }
        }
        record.account(&stream);
        ProbeOutcome::Continue
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_sorts_and_replaces() {
        let mut reg = SuiteRegistry::new();
        assert!(reg.is_empty());
        reg.register(DEFAULT_UATLS_PORT, Arc::new(UatTlsSuite::new()));
        reg.register(4840, Arc::new(OpcUaSuite::new()));
        assert_eq!(reg.len(), 2);
        assert_eq!(reg.ports(), vec![4840, DEFAULT_UATLS_PORT]);
        assert_eq!(reg.suite_for(4840).unwrap().name(), "opcua");
        assert_eq!(reg.suite_for(DEFAULT_UATLS_PORT).unwrap().name(), "uat-tls");
        assert!(reg.suite_for(4841).is_none());
        // Replacement keeps one entry per port.
        reg.register(4840, Arc::new(OpcUaSuite::with_fingerprint()));
        assert_eq!(reg.len(), 2);
        assert_eq!(
            reg.suite_for(4840).unwrap().stack().last().unwrap().name(),
            "vendor_fingerprint"
        );
    }

    #[test]
    fn with_uses_default_ports() {
        let reg = SuiteRegistry::with([
            Arc::new(OpcUaSuite::new()) as Arc<dyn ProtocolSuite>,
            Arc::new(UatTlsSuite::new()) as Arc<dyn ProtocolSuite>,
        ]);
        assert_eq!(reg.ports(), vec![4840, DEFAULT_UATLS_PORT]);
    }

    #[test]
    fn connect_error_taxonomy() {
        assert_eq!(
            classify_connect_error(ConnectError::Refused),
            HostOutcome::Unreachable
        );
        assert_eq!(
            classify_connect_error(ConnectError::NoRoute),
            HostOutcome::TimedOut
        );
        assert_eq!(
            classify_connect_error(ConnectError::Throttled),
            HostOutcome::Throttled
        );
        assert_eq!(
            classify_connect_error(ConnectError::Stalled),
            HostOutcome::Tarpitted
        );
        // Both shipped suites use the shared taxonomy.
        let opcua = OpcUaSuite::new();
        let tls = UatTlsSuite::new();
        assert_eq!(
            opcua.classify_connect_error(ConnectError::Stalled),
            HostOutcome::Tarpitted
        );
        assert_eq!(
            tls.classify_connect_error(ConnectError::Refused),
            HostOutcome::Unreachable
        );
    }

    #[test]
    fn suite_shapes() {
        let opcua = OpcUaSuite::new();
        assert_eq!(opcua.name(), "opcua");
        assert_eq!(opcua.default_port(), 4840);
        assert!(opcua.follows_referrals());
        assert_eq!(
            opcua.stack().iter().map(|p| p.name()).collect::<Vec<_>>(),
            vec!["uacp", "endpoints", "find_servers", "session"]
        );
        assert_eq!(opcua.payload().protocol(), "opcua");

        let tls = UatTlsSuite::with_fingerprint();
        assert_eq!(tls.name(), "uat-tls");
        assert_eq!(tls.default_port(), DEFAULT_UATLS_PORT);
        assert!(!tls.follows_referrals());
        assert_eq!(
            tls.stack().iter().map(|p| p.name()).collect::<Vec<_>>(),
            vec![
                "uat_tls_handshake",
                "endpoints",
                "session",
                "vendor_fingerprint"
            ]
        );
        assert_eq!(tls.payload().protocol(), "uat-tls");
    }

    #[test]
    fn referrals_default_empty() {
        let mut record = ScanRecord::new(netsim::Ipv4::new(10, 0, 0, 1), 0, 0);
        record.opcua_mut().referred_urls = vec!["opc.tcp://10.0.0.2:4840/".into()];
        let opcua = OpcUaSuite::new();
        assert_eq!(opcua.referrals(&record).len(), 1);
        let tls = UatTlsSuite::new();
        assert!(tls.referrals(&record).is_empty());
    }
}
