//! # ua-server
//!
//! A full OPC UA server over the simulated network: endpoints, secure
//! channels, sessions, authentication, per-user access control — plus the
//! misconfiguration knobs the study observes in the wild (certificate
//! mismatch and reuse, foreign-certificate rejection, broken session
//! configs, discovery-only servers).
//!
//! * [`config::ServerConfig`] — everything an operator can get wrong;
//! * [`core::ServerCore`] — shared state and service dispatch;
//! * [`connection`] — the per-connection byte-level state machine
//!   plugged into [`netsim::Service`]; its established channel is a
//!   [`ua_proto::SecureChannel`], the type `ua-client` keeps for its end;
//! * [`tls`] — the `uat-tls` wrapper planting the TLS-fronted
//!   deployments of "Missed Opportunities" (expired or absent wrapper
//!   certificates over an unchanged inner server).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod connection;
pub mod core;
pub mod tls;

pub use config::{EndpointConfig, ServerConfig, UserAccount};
pub use connection::{ServerConnection, UaServerService};
pub use core::{ChannelContext, ServerCore};
pub use tls::{TlsWrapConn, TlsWrapService};

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::{Ipv4, Service, TcpStreamSim, VirtualClock};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use ua_addrspace::{NodeAccess, SpaceBuilder};
    use ua_crypto::{CertificateBuilder, DistinguishedName, HashAlgorithm, RsaPrivateKey};
    use ua_proto::chunk::SecureChannel;
    use ua_proto::secure::{open_asymmetric, SequenceHeader};
    use ua_proto::services::*;
    use ua_proto::transport::{Hello, TransportMessage};
    use ua_types::*;

    fn cert_key(seed: u64, uri: &str) -> (ua_crypto::Certificate, RsaPrivateKey) {
        let mut rng = StdRng::seed_from_u64(seed);
        let key = RsaPrivateKey::generate(&mut rng, 256, 2048);
        let cert = CertificateBuilder::new(DistinguishedName::new("srv", "Acme"))
            .application_uri(uri)
            .self_signed(HashAlgorithm::Sha256, &key);
        (cert, key)
    }

    fn open_server(config: ServerConfig) -> TcpStreamSim {
        let mut b = SpaceBuilder::new(&["urn:acme:plant"], "2.0");
        let f = b.folder(None, "Plant");
        b.variable(
            &f,
            "m3InflowPerHour",
            Variant::Double(13.5),
            NodeAccess::read_only(),
        );
        let space = b.finish();
        let core = ServerCore::new(config, space, 7);
        let service = UaServerService::new(core, 1);
        let conn = service.open_connection(Ipv4::new(1, 2, 3, 4));
        TcpStreamSim::loopback(VirtualClock::starting_at(0), conn)
    }

    fn wide_open_stream() -> TcpStreamSim {
        open_server(ServerConfig::wide_open(
            "urn:acme:dev1",
            "opc.tcp://h:4840/",
        ))
    }

    fn hello(stream: &mut TcpStreamSim) {
        stream
            .send(&TransportMessage::Hello(Hello::default()).encode())
            .unwrap();
        match TransportMessage::decode(&stream.recv().unwrap().unwrap()).unwrap() {
            TransportMessage::Acknowledge(_) => {}
            other => panic!("expected ACK, got {other:?}"),
        }
    }

    /// Opens an insecure channel, returning the client's end of it.
    fn open_none_channel(stream: &mut TcpStreamSim) -> SecureChannel {
        let req = ServiceBody::OpenSecureChannelRequest(OpenSecureChannelRequest {
            request_header: RequestHeader::new(NodeId::NULL, 1, UaDateTime::NULL),
            client_protocol_version: 0,
            request_type: SecurityTokenRequestType::Issue,
            security_mode: MessageSecurityMode::None,
            client_nonce: None,
            requested_lifetime: 3_600_000,
        });
        let mut rng = StdRng::seed_from_u64(2);
        let raw = ua_proto::secure::seal_asymmetric(
            &mut rng,
            SecurityPolicy::None,
            None,
            None,
            None,
            0,
            SequenceHeader {
                sequence_number: 1,
                request_id: 1,
            },
            &req.encode_to_vec(),
        )
        .unwrap();
        stream.send(&raw).unwrap();
        let reply = stream.recv().unwrap().unwrap();
        let opened = open_asymmetric(None, &reply).unwrap();
        match ServiceBody::decode_all(&opened.opened.body).unwrap() {
            ServiceBody::OpenSecureChannelResponse(r) => SecureChannel::new(
                r.security_token.channel_id,
                r.security_token.token_id,
                SecurityPolicy::None,
                MessageSecurityMode::None,
                None,
                None,
            ),
            other => panic!("expected OPN response, got {other:?}"),
        }
    }

    fn send_service(
        stream: &mut TcpStreamSim,
        channel: &mut SecureChannel,
        request_id: u32,
        body: ServiceBody,
    ) -> ServiceBody {
        for chunk in channel.seal(request_id, &body.encode_to_vec()).unwrap() {
            stream.send(&chunk).unwrap();
        }
        let reply = stream.recv().unwrap().unwrap();
        let message = channel.open(&reply).unwrap().expect("one-chunk reply");
        ServiceBody::decode_all(&message.body).unwrap()
    }

    #[test]
    fn hello_ack() {
        let mut s = wide_open_stream();
        hello(&mut s);
    }

    #[test]
    fn garbage_yields_transport_error_and_close() {
        let mut s = wide_open_stream();
        s.send(b"GET / HTTP/1.1\r\n\r\nxxxxxxxxxxxxxxxx").unwrap();
        let reply = s.recv().unwrap().unwrap();
        match TransportMessage::decode(&reply).unwrap() {
            TransportMessage::Error(e) => {
                assert_eq!(e.error, StatusCode::BAD_TCP_MESSAGE_TYPE_INVALID)
            }
            other => panic!("expected ERR, got {other:?}"),
        }
        assert!(s.is_closed());
    }

    #[test]
    fn get_endpoints_over_none_channel() {
        let mut s = wide_open_stream();
        hello(&mut s);
        let mut ch = open_none_channel(&mut s);
        let resp = send_service(
            &mut s,
            &mut ch,
            2,
            ServiceBody::GetEndpointsRequest(GetEndpointsRequest {
                request_header: RequestHeader::new(NodeId::NULL, 2, UaDateTime::NULL),
                endpoint_url: Some("opc.tcp://h:4840/".into()),
                locale_ids: vec![],
                profile_uris: vec![],
            }),
        );
        match resp {
            ServiceBody::GetEndpointsResponse(r) => {
                assert_eq!(r.endpoints.len(), 1);
                let ep = &r.endpoints[0];
                assert_eq!(ep.security_mode, MessageSecurityMode::None);
                assert_eq!(ep.security_policy(), Some(SecurityPolicy::None));
                assert!(ep.allows_anonymous());
                assert_eq!(ep.server.application_uri.as_deref(), Some("urn:acme:dev1"));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn anonymous_session_browse_read() {
        let mut s = wide_open_stream();
        hello(&mut s);
        let mut ch = open_none_channel(&mut s);

        // CreateSession.
        let resp = send_service(
            &mut s,
            &mut ch,
            2,
            ServiceBody::CreateSessionRequest(CreateSessionRequest {
                request_header: RequestHeader::new(NodeId::NULL, 2, UaDateTime::NULL),
                client_description: ApplicationDescription::server("urn:scanner", "scan"),
                server_uri: None,
                endpoint_url: Some("opc.tcp://h:4840/".into()),
                session_name: Some("s".into()),
                client_nonce: Some(vec![1; 32]),
                client_certificate: None,
                requested_session_timeout: 60_000.0,
                max_response_message_size: 1 << 20,
            }),
        );
        let token = match resp {
            ServiceBody::CreateSessionResponse(r) => r.authentication_token,
            other => panic!("unexpected {other:?}"),
        };

        // ActivateSession (anonymous).
        let resp = send_service(
            &mut s,
            &mut ch,
            3,
            ServiceBody::ActivateSessionRequest(ActivateSessionRequest {
                request_header: RequestHeader::new(token.clone(), 3, UaDateTime::NULL),
                client_signature: SignatureData::default(),
                locale_ids: vec![],
                user_identity_token: IdentityToken::Anonymous {
                    policy_id: Some("anon".into()),
                }
                .to_extension_object(),
                user_token_signature: SignatureData::default(),
            }),
        );
        assert!(matches!(resp, ServiceBody::ActivateSessionResponse(_)));

        // Browse Objects and a node the space does not have.
        let resp = send_service(
            &mut s,
            &mut ch,
            4,
            ServiceBody::BrowseRequest(BrowseRequest {
                request_header: RequestHeader::new(token.clone(), 4, UaDateTime::NULL),
                view: ViewDescription::default(),
                requested_max_references_per_node: 100,
                nodes_to_browse: vec![
                    BrowseDescription::all_forward(NodeId::numeric(
                        0,
                        ua_addrspace::ids::OBJECTS_FOLDER,
                    )),
                    BrowseDescription::all_forward(NodeId::string(5, "nope")),
                ],
            }),
        );
        let results = match resp {
            ServiceBody::BrowseResponse(r) => r.results,
            other => panic!("unexpected {other:?}"),
        };
        // Server object + Plant folder.
        assert_eq!(results[0].status_code, StatusCode::GOOD);
        assert_eq!(results[0].references.len(), 2);
        let unknown = &results[1];
        assert_eq!(unknown.status_code, StatusCode::BAD_NODE_ID_UNKNOWN);
        assert!(unknown.references.is_empty());
        assert_eq!(unknown.continuation_point, None);

        // Read the inflow variable.
        let resp = send_service(
            &mut s,
            &mut ch,
            5,
            ServiceBody::ReadRequest(ReadRequest {
                request_header: RequestHeader::new(token, 5, UaDateTime::NULL),
                max_age: 0.0,
                timestamps_to_return: 3,
                nodes_to_read: vec![ReadValueId::new(
                    NodeId::string(1, "m3InflowPerHour"),
                    AttributeId::Value.id(),
                )],
            }),
        );
        match resp {
            ServiceBody::ReadResponse(r) => {
                assert_eq!(r.results[0].value, Some(Variant::Double(13.5)))
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn anonymous_rejected_when_disabled() {
        let (cert, key) = cert_key(5, "urn:acme:secure");
        let mut cfg = ServerConfig::recommended("urn:acme:secure", "opc.tcp://h:4840/", cert, key);
        // Allow a None endpoint so the test can talk without crypto, but
        // keep anonymous auth disabled.
        cfg.endpoints.push(EndpointConfig::none());
        let mut s = open_server(cfg);
        hello(&mut s);
        let mut ch = open_none_channel(&mut s);
        let resp = send_service(
            &mut s,
            &mut ch,
            2,
            ServiceBody::CreateSessionRequest(CreateSessionRequest {
                request_header: RequestHeader::new(NodeId::NULL, 2, UaDateTime::NULL),
                client_description: ApplicationDescription::server("urn:scanner", "scan"),
                server_uri: None,
                endpoint_url: Some("opc.tcp://h:4840/".into()),
                session_name: None,
                client_nonce: Some(vec![1; 32]),
                client_certificate: None,
                requested_session_timeout: 60_000.0,
                max_response_message_size: 1 << 20,
            }),
        );
        let token = match resp {
            ServiceBody::CreateSessionResponse(r) => r.authentication_token,
            other => panic!("unexpected {other:?}"),
        };
        let resp = send_service(
            &mut s,
            &mut ch,
            3,
            ServiceBody::ActivateSessionRequest(ActivateSessionRequest {
                request_header: RequestHeader::new(token, 3, UaDateTime::NULL),
                client_signature: SignatureData::default(),
                locale_ids: vec![],
                user_identity_token: IdentityToken::Anonymous {
                    policy_id: Some("anon".into()),
                }
                .to_extension_object(),
                user_token_signature: SignatureData::default(),
            }),
        );
        match resp {
            ServiceBody::ServiceFault(f) => assert_eq!(
                f.response_header.service_result,
                StatusCode::BAD_IDENTITY_TOKEN_REJECTED
            ),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn browse_requires_activated_session() {
        let mut s = wide_open_stream();
        hello(&mut s);
        let mut ch = open_none_channel(&mut s);
        let resp = send_service(
            &mut s,
            &mut ch,
            2,
            ServiceBody::BrowseRequest(BrowseRequest {
                request_header: RequestHeader::new(NodeId::NULL, 2, UaDateTime::NULL),
                view: ViewDescription::default(),
                requested_max_references_per_node: 10,
                nodes_to_browse: vec![BrowseDescription::all_forward(NodeId::numeric(0, 85))],
            }),
        );
        match resp {
            ServiceBody::ServiceFault(f) => assert_eq!(
                f.response_header.service_result,
                StatusCode::BAD_SESSION_ID_INVALID
            ),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn secure_policy_rejected_when_not_offered() {
        // wide-open server offers only None; an OPN with Basic256Sha256
        // must be rejected at the channel level.
        let (client_cert, client_key) = cert_key(9, "urn:scanner");
        let (server_cert_for_encrypt, _server_key) = cert_key(10, "urn:other");

        let mut s = wide_open_stream();
        hello(&mut s);
        let req = ServiceBody::OpenSecureChannelRequest(OpenSecureChannelRequest {
            request_header: RequestHeader::new(NodeId::NULL, 1, UaDateTime::NULL),
            client_protocol_version: 0,
            request_type: SecurityTokenRequestType::Issue,
            security_mode: MessageSecurityMode::SignAndEncrypt,
            client_nonce: Some(vec![1; 32]),
            requested_lifetime: 3_600_000,
        });
        let mut rng = StdRng::seed_from_u64(11);
        let raw = ua_proto::secure::seal_asymmetric(
            &mut rng,
            SecurityPolicy::Basic256Sha256,
            Some(&client_key),
            Some(&client_cert.to_der()),
            Some(&server_cert_for_encrypt),
            0,
            SequenceHeader {
                sequence_number: 1,
                request_id: 1,
            },
            &req.encode_to_vec(),
        )
        .unwrap();
        s.send(&raw).unwrap();
        let reply = s.recv().unwrap().unwrap();
        match TransportMessage::decode(&reply).unwrap() {
            TransportMessage::Error(e) => {
                // Either the policy is refused outright or unsealing
                // failed because the server lacks a key: both are
                // channel-level rejections.
                assert!(e.error.is_bad());
            }
            other => panic!("expected ERR, got {other:?}"),
        }
        assert!(s.is_closed());
    }
}
