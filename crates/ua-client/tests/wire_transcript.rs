//! Pins the exact bytes both ends put on the wire, segment by segment.
//!
//! The example goldens only ever see `None` channels and single-chunk
//! messages, so they cannot notice a change to key derivation, signing,
//! encryption, sequence numbering or chunk boundaries. This test drives
//! [`UaClient`] against a [`UaServerService`] connection through a
//! recording [`ByteStream`] that logs every `send` and every `recv` that
//! yields bytes, each with its length, and hashes the log. Three
//! conversations run: policy `None`, Basic256Sha256 `Sign` and
//! Basic256Sha256 `SignAndEncrypt`. Each one discovers over `None`,
//! re-opens the channel, pages a Browse through BrowseNext, and writes
//! and reads back a 30 000-byte string, so requests and responses both
//! span several chunks.
//!
//! A change that alters the wire on purpose recomputes
//! [`TRANSCRIPT_SHA256`] at its parent commit with this file copied in
//! (the failure message prints the digest it saw) and says so.

use netsim::VirtualClock;
use netsim::{ByteStream, ConnectionStats, Ipv4, Service, StreamError, TcpStreamSim};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cell::RefCell;
use std::rc::Rc;
use ua_addrspace::{NodeAccess, SpaceBuilder};
use ua_client::{ClientConfig, UaClient};
use ua_crypto::{Certificate, CertificateBuilder, DistinguishedName, HashAlgorithm, RsaPrivateKey};
use ua_proto::services::IdentityToken;
use ua_server::{EndpointConfig, ServerConfig, ServerCore, UaServerService};
use ua_types::*;

/// SHA-256 over the three conversations' transcripts.
const TRANSCRIPT_SHA256: &str = "fd3bb6da5da23b7ff2b623fd99ebd97f23f5c448a151947377e9b87afe723678";

const URL: &str = "opc.tcp://10.0.0.1:4840/";
const BLOB_LEN: usize = 30_000;

/// Forwards to a loopback [`TcpStreamSim`] and appends each segment to
/// a shared log as `tag | u32 length (LE) | bytes`.
struct Recorder {
    inner: TcpStreamSim,
    log: Rc<RefCell<Vec<u8>>>,
}

impl Recorder {
    fn record(&self, tag: u8, bytes: &[u8]) {
        let mut log = self.log.borrow_mut();
        log.push(tag);
        log.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
        log.extend_from_slice(bytes);
    }
}

impl ByteStream for Recorder {
    fn send(&mut self, data: &[u8]) -> Result<(), StreamError> {
        self.record(b'C', data);
        self.inner.send(data)
    }

    fn recv(&mut self) -> Result<Option<Vec<u8>>, StreamError> {
        let got = self.inner.recv()?;
        if let Some(bytes) = &got {
            self.record(b'S', bytes);
        }
        Ok(got)
    }

    fn stats(&self) -> ConnectionStats {
        self.inner.stats()
    }
}

fn cert_key(seed: u64, uri: &str) -> (Certificate, RsaPrivateKey) {
    let mut rng = StdRng::seed_from_u64(seed);
    let key = RsaPrivateKey::generate(&mut rng, 256, 2048);
    let cert = CertificateBuilder::new(DistinguishedName::new("peer", "Org"))
        .application_uri(uri)
        .self_signed(HashAlgorithm::Sha256, &key);
    (cert, key)
}

/// A server offering None, Sign and SignAndEncrypt with anonymous
/// access, two references per Browse page and a writable string.
fn server_stream(clock: &VirtualClock) -> TcpStreamSim {
    let (cert, key) = cert_key(7, "urn:acme:wire");
    let mut cfg = ServerConfig::recommended("urn:acme:wire", URL, cert, key);
    cfg.endpoints.push(EndpointConfig::none());
    cfg.token_types.push(UserTokenType::Anonymous);
    cfg.max_references_per_browse = 2;
    let mut b = SpaceBuilder::new(&["urn:acme:wire"], "2.0");
    let plant = b.folder(None, "Plant");
    for (i, name) in ["Inflow", "Outflow", "Level", "Pressure"]
        .iter()
        .enumerate()
    {
        b.variable(
            &plant,
            name,
            Variant::Double(i as f64),
            NodeAccess::read_only(),
        );
    }
    b.variable(
        &plant,
        "Blob",
        Variant::String(Some(String::new())),
        NodeAccess::read_write_all(),
    );
    b.method(&plant, "Reset", true);
    let core = ServerCore::new(cfg, b.finish(), 11);
    let conn = UaServerService::new(core, 5).open_connection(Ipv4::new(192, 0, 2, 1));
    TcpStreamSim::loopback(clock.clone(), conn)
}

/// One full conversation on `policy`/`mode`, appended to `log`.
fn converse(policy: SecurityPolicy, mode: MessageSecurityMode, log: &Rc<RefCell<Vec<u8>>>) {
    let clock = VirtualClock::starting_at(1_581_206_400);
    let stream = Recorder {
        inner: server_stream(&clock),
        log: Rc::clone(log),
    };
    let (cert, key) = cert_key(99, "urn:research:scanner");
    let config = ClientConfig {
        certificate: Some(cert),
        private_key: Some(key),
        ..ClientConfig::default()
    };
    let mut client = UaClient::new(stream, clock, config, 42);

    client.handshake(URL).unwrap();
    client
        .open_channel(SecurityPolicy::None, MessageSecurityMode::None, None)
        .unwrap();
    let endpoints = client.get_endpoints(URL).unwrap();
    let endpoint = endpoints
        .iter()
        .find(|e| e.security_mode == mode && e.security_policy() == Some(policy))
        .unwrap();
    let server_cert = endpoint
        .server_certificate
        .as_deref()
        .map(|der| Certificate::from_der(der).unwrap());
    let server_cert = server_cert.filter(|_| policy != SecurityPolicy::None);
    client
        .open_channel(policy, mode, server_cert.as_ref())
        .unwrap();
    client.create_session(URL).unwrap();
    client
        .activate_session(IdentityToken::Anonymous {
            policy_id: Some("anon".into()),
        })
        .unwrap();

    let mut page = client.browse(NodeId::string(1, "Plant"), 0).unwrap();
    let mut names = Vec::new();
    let mut pages = 1;
    loop {
        names.extend(page.references.iter().map(|r| r.browse_name.name.clone()));
        let Some(cp) = page.continuation_point.take() else {
            break;
        };
        page = client.browse_next(cp).unwrap();
        pages += 1;
    }
    assert!(pages >= 3, "browse paged {pages} times");
    assert_eq!(names.len(), 6, "{names:?}");

    let blob: String = (0..BLOB_LEN)
        .map(|i| char::from(b'a' + (i % 26) as u8))
        .collect();
    let status = client
        .write(
            NodeId::string(1, "Blob"),
            Variant::String(Some(blob.clone())),
        )
        .unwrap();
    assert_eq!(status, StatusCode::GOOD);
    let values = client
        .read(vec![(NodeId::string(1, "Blob"), AttributeId::Value)])
        .unwrap();
    assert_eq!(values[0].value, Some(Variant::String(Some(blob))));
    client.close_session().unwrap();
}

#[test]
fn wire_transcript_is_pinned() {
    let log = Rc::new(RefCell::new(Vec::new()));
    for (policy, mode) in [
        (SecurityPolicy::None, MessageSecurityMode::None),
        (SecurityPolicy::Basic256Sha256, MessageSecurityMode::Sign),
        (
            SecurityPolicy::Basic256Sha256,
            MessageSecurityMode::SignAndEncrypt,
        ),
    ] {
        converse(policy, mode, &log);
    }
    let log = log.borrow();
    let digest = ua_crypto::hash::to_hex(&ua_crypto::sha256(&log));
    assert_eq!(
        digest,
        TRANSCRIPT_SHA256,
        "wire transcript changed ({} bytes logged)",
        log.len()
    );
}
