//! # ua-client
//!
//! An OPC UA client over the simulated network: UACP handshake, secure
//! channels (all six policies), sessions with every identity-token type,
//! discovery, attribute services, and a budgeted recursive address-space
//! traversal — everything the paper's zgrab2 module does (§4).
//!
//! The client runs the `OPN` exchange itself; the established channel is
//! a [`ua_proto::SecureChannel`], the same type `ua-server` keeps for
//! its end, so both ends derive keys, number, chunk and reassemble by
//! one set of rules.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod error;
pub mod traverse;

pub use client::{ClientConfig, UaClient};
pub use error::ClientError;
pub use traverse::{traverse, Traversal, TraversalBudget, TraversedNode};

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::{Internet, Ipv4, VirtualClock};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::Arc;
    use ua_addrspace::{NodeAccess, SpaceBuilder};
    use ua_crypto::{
        Certificate, CertificateBuilder, DistinguishedName, HashAlgorithm, RsaPrivateKey,
    };
    use ua_proto::services::IdentityToken;
    use ua_server::{EndpointConfig, ServerConfig, ServerCore, UaServerService};
    use ua_types::*;

    const SERVER_IP: Ipv4 = Ipv4(0x0A000001);
    const URL: &str = "opc.tcp://10.0.0.1:4840/";

    fn cert_key(seed: u64, uri: &str) -> (Certificate, RsaPrivateKey) {
        let mut rng = StdRng::seed_from_u64(seed);
        let key = RsaPrivateKey::generate(&mut rng, 256, 2048);
        let cert = CertificateBuilder::new(DistinguishedName::new("peer", "Org"))
            .application_uri(uri)
            .self_signed(HashAlgorithm::Sha256, &key);
        (cert, key)
    }

    fn spawn_server(config: ServerConfig) -> (Internet, VirtualClock) {
        let clock = VirtualClock::starting_at(1_581_206_400);
        let net = Internet::new(clock.clone());
        let mut b = SpaceBuilder::new(&["urn:acme:waterworks"], "2.0");
        let plant = b.folder(None, "Plant");
        b.variable(
            &plant,
            "m3InflowPerHour",
            Variant::Double(12.5),
            NodeAccess::read_only(),
        );
        b.variable(
            &plant,
            "rSetFillLevel",
            Variant::Float(80.0),
            NodeAccess::read_write_all(),
        );
        b.method(&plant, "AddEndpoint", true);
        let space = b.finish();
        let core = ServerCore::new(config, space, 11);
        net.add_host(SERVER_IP, 10_000);
        net.bind(SERVER_IP, 4840, Arc::new(UaServerService::new(core, 5)));
        (net, clock)
    }

    fn scanner_client(net: &Internet, clock: &VirtualClock) -> UaClient<netsim::TcpStreamSim> {
        let (cert, key) = cert_key(99, "urn:research:scanner");
        let stream = net
            .connect(Ipv4::new(192, 0, 2, 1), SERVER_IP, 4840)
            .unwrap();
        let config = ClientConfig {
            certificate: Some(cert),
            private_key: Some(key),
            politeness_delay_millis: 500,
            ..ClientConfig::default()
        };
        UaClient::new(stream, clock.clone(), config, 42)
    }

    #[test]
    fn discovery_over_insecure_channel() {
        let cfg = ServerConfig::wide_open("urn:acme:dev", URL);
        let (net, clock) = spawn_server(cfg);
        let mut client = scanner_client(&net, &clock);
        client.handshake(URL).unwrap();
        client
            .open_channel(SecurityPolicy::None, MessageSecurityMode::None, None)
            .unwrap();
        let endpoints = client.get_endpoints(URL).unwrap();
        assert_eq!(endpoints.len(), 1);
        assert!(endpoints[0].allows_anonymous());
    }

    #[test]
    fn full_anonymous_walk() {
        let cfg = ServerConfig::wide_open("urn:acme:dev", URL);
        let (net, clock) = spawn_server(cfg);
        let mut client = scanner_client(&net, &clock);
        client.handshake(URL).unwrap();
        client
            .open_channel(SecurityPolicy::None, MessageSecurityMode::None, None)
            .unwrap();
        client.create_session(URL).unwrap();
        client
            .activate_session(IdentityToken::Anonymous {
                policy_id: Some("anon".into()),
            })
            .unwrap();

        let result = traverse(&mut client, &TraversalBudget::default()).unwrap();
        assert!(!result.truncated);
        let names: Vec<&str> = result
            .nodes
            .iter()
            .map(|n| n.browse_name.as_str())
            .collect();
        assert!(names.contains(&"Plant"));
        assert!(names.contains(&"m3InflowPerHour"));
        assert!(names.contains(&"rSetFillLevel"));
        assert!(names.contains(&"AddEndpoint"));
        assert!(names.contains(&"NamespaceArray"));

        let inflow = result
            .nodes
            .iter()
            .find(|n| n.browse_name == "m3InflowPerHour")
            .unwrap();
        assert!(inflow.readable);
        assert!(!inflow.writable);
        assert_eq!(inflow.value, Some(Variant::Double(12.5)));

        let fill = result
            .nodes
            .iter()
            .find(|n| n.browse_name == "rSetFillLevel")
            .unwrap();
        assert!(fill.writable);

        let method = result
            .nodes
            .iter()
            .find(|n| n.browse_name == "AddEndpoint")
            .unwrap();
        assert!(method.executable);

        let (r, w, x) = result.access_fractions();
        assert!(r > 0.9, "most variables readable, got {r}");
        assert!(w > 0.0 && w < 0.5, "some writable, got {w}");
        assert!(x > 0.0, "method executable, got {x}");

        assert!(result.requests > 5);
    }

    #[test]
    fn secure_channel_end_to_end() {
        let (server_cert, server_key) = cert_key(7, "urn:acme:secure");
        let mut cfg =
            ServerConfig::recommended("urn:acme:secure", URL, server_cert.clone(), server_key);
        cfg.token_types.push(UserTokenType::Anonymous);
        cfg.endpoints.push(EndpointConfig::none());
        let (net, clock) = spawn_server(cfg);
        let mut client = scanner_client(&net, &clock);
        client.handshake(URL).unwrap();
        // Discover over None, then reopen securely — like the paper's
        // scanner.
        client
            .open_channel(SecurityPolicy::None, MessageSecurityMode::None, None)
            .unwrap();
        let endpoints = client.get_endpoints(URL).unwrap();
        let secure_ep = endpoints
            .iter()
            .find(|e| e.security_mode == MessageSecurityMode::SignAndEncrypt)
            .unwrap();
        let cert = Certificate::from_der(secure_ep.server_certificate.as_ref().unwrap()).unwrap();
        assert_eq!(cert.thumbprint(), server_cert.thumbprint());

        client
            .open_channel(
                SecurityPolicy::Basic256Sha256,
                MessageSecurityMode::SignAndEncrypt,
                Some(&cert),
            )
            .unwrap();
        client.create_session(URL).unwrap();
        client
            .activate_session(IdentityToken::Anonymous {
                policy_id: Some("anon".into()),
            })
            .unwrap();
        let values = client
            .read(vec![(
                NodeId::string(1, "m3InflowPerHour"),
                AttributeId::Value,
            )])
            .unwrap();
        assert_eq!(values[0].value, Some(Variant::Double(12.5)));
    }

    #[test]
    fn username_authentication() {
        let (server_cert, server_key) = cert_key(8, "urn:acme:auth");
        let mut cfg = ServerConfig::recommended("urn:acme:auth", URL, server_cert, server_key);
        cfg.endpoints.push(EndpointConfig::none());
        let (net, clock) = spawn_server(cfg);
        let mut client = scanner_client(&net, &clock);
        client.handshake(URL).unwrap();
        client
            .open_channel(SecurityPolicy::None, MessageSecurityMode::None, None)
            .unwrap();
        client.create_session(URL).unwrap();

        // Wrong password rejected.
        let err = client
            .activate_session(IdentityToken::UserName {
                policy_id: Some("user".into()),
                user_name: Some("operator".into()),
                password: Some(b"guess".to_vec()),
                encryption_algorithm: None,
            })
            .unwrap_err();
        assert!(err.is_auth_rejection(), "{err:?}");

        // Correct credentials accepted.
        client
            .activate_session(IdentityToken::UserName {
                policy_id: Some("user".into()),
                user_name: Some("operator".into()),
                password: Some(b"correct horse battery staple".to_vec()),
                encryption_algorithm: None,
            })
            .unwrap();
    }

    #[test]
    fn foreign_cert_rejected_at_channel() {
        let (server_cert, server_key) = cert_key(9, "urn:acme:strict");
        let mut cfg =
            ServerConfig::recommended("urn:acme:strict", URL, server_cert.clone(), server_key);
        cfg.reject_foreign_certs = true;
        let (net, clock) = spawn_server(cfg);
        let mut client = scanner_client(&net, &clock);
        client.handshake(URL).unwrap();
        let err = client
            .open_channel(
                SecurityPolicy::Basic256Sha256,
                MessageSecurityMode::SignAndEncrypt,
                Some(&server_cert),
            )
            .unwrap_err();
        assert!(err.is_channel_rejection(), "{err:?}");
    }

    #[test]
    fn write_and_call_respect_access() {
        let cfg = ServerConfig::wide_open("urn:acme:dev", URL);
        let (net, clock) = spawn_server(cfg);
        let mut client = scanner_client(&net, &clock);
        client.handshake(URL).unwrap();
        client
            .open_channel(SecurityPolicy::None, MessageSecurityMode::None, None)
            .unwrap();
        client.create_session(URL).unwrap();
        client
            .activate_session(IdentityToken::Anonymous {
                policy_id: Some("anon".into()),
            })
            .unwrap();
        // rSetFillLevel is writable by anyone (the paper's nightmare).
        let st = client
            .write(NodeId::string(1, "rSetFillLevel"), Variant::Float(99.9))
            .unwrap();
        assert_eq!(st, StatusCode::GOOD);
        // m3InflowPerHour is read-only.
        let st = client
            .write(NodeId::string(1, "m3InflowPerHour"), Variant::Double(0.0))
            .unwrap();
        assert_eq!(st, StatusCode::BAD_NOT_WRITABLE);
        // AddEndpoint is anonymously executable.
        let result = client
            .call(NodeId::string(1, "Plant"), NodeId::string(1, "AddEndpoint"))
            .unwrap();
        assert_eq!(result.status_code, StatusCode::GOOD);
    }

    /// A server that opens a `None` channel as id 7 and then answers
    /// every `MSG` on channel 8.
    struct StrayChannel;

    impl netsim::Connection for StrayChannel {
        fn on_data(&mut self, data: &[u8]) -> netsim::ConnectionOutput {
            use ua_proto::chunk::SecureChannel;
            use ua_proto::secure::{seal_asymmetric, SequenceHeader};
            use ua_proto::services::*;
            use ua_proto::transport::{Acknowledge, TransportMessage};
            let reply = match &data[..3] {
                b"HEL" => TransportMessage::Acknowledge(Acknowledge::default()).encode(),
                b"OPN" => {
                    let body = ServiceBody::OpenSecureChannelResponse(OpenSecureChannelResponse {
                        response_header: ResponseHeader::good(1, UaDateTime::NULL),
                        server_protocol_version: 0,
                        security_token: ChannelSecurityToken {
                            channel_id: 7,
                            token_id: 1,
                            created_at: UaDateTime::NULL,
                            revised_lifetime: 3_600_000,
                        },
                        server_nonce: None,
                    });
                    let seq = SequenceHeader {
                        sequence_number: 1,
                        request_id: 1,
                    };
                    let mut rng = StdRng::seed_from_u64(0);
                    let policy = SecurityPolicy::None;
                    let body = body.encode_to_vec();
                    seal_asymmetric(&mut rng, policy, None, None, None, 7, seq, &body).unwrap()
                }
                _ => {
                    let body = ServiceBody::GetEndpointsResponse(GetEndpointsResponse {
                        response_header: ResponseHeader::good(2, UaDateTime::NULL),
                        endpoints: vec![],
                    });
                    let mode = MessageSecurityMode::None;
                    SecureChannel::new(8, 1, SecurityPolicy::None, mode, None, None)
                        .seal(2, &body.encode_to_vec())
                        .unwrap()
                        .concat()
                }
            };
            netsim::ConnectionOutput::reply(reply)
        }
    }

    #[test]
    fn reply_on_another_channel_rejected() {
        let clock = VirtualClock::starting_at(0);
        let stream = netsim::TcpStreamSim::loopback(clock.clone(), Box::new(StrayChannel));
        let mut client = UaClient::new(stream, clock, ClientConfig::default(), 1);
        client.handshake(URL).unwrap();
        client
            .open_channel(SecurityPolicy::None, MessageSecurityMode::None, None)
            .unwrap();
        assert_eq!(
            client.get_endpoints(URL).unwrap_err(),
            ClientError::UnexpectedResponse
        );
    }

    #[test]
    fn politeness_delay_advances_clock() {
        let cfg = ServerConfig::wide_open("urn:acme:dev", URL);
        let (net, clock) = spawn_server(cfg);
        let start = clock.now_micros();
        let mut client = scanner_client(&net, &clock);
        client.handshake(URL).unwrap();
        client
            .open_channel(SecurityPolicy::None, MessageSecurityMode::None, None)
            .unwrap();
        let _ = client.get_endpoints(URL).unwrap();
        // Three requests → at least 2 politeness pauses of 500 ms.
        assert!(clock.now_micros() - start >= 1_000_000);
    }
}
