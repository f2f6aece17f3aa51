//! TLS-wrapped opc.tcp: the `uat-tls` listener.
//!
//! "Missed Opportunities" (Dahlmanns et al., 2022) found IIoT operators
//! increasingly front their legacy protocol with TLS — and then undo the
//! gain by serving expired certificates or leaving the inner protocol
//! anonymous. [`TlsWrapService`] reproduces exactly that deployment
//! shape: it answers the two-frame `uat-tls` prologue (see
//! [`ua_proto::uatls`]), presenting whatever certificate the wrapped
//! server is configured with (including an expired one, or none at all),
//! and then hands the connection over byte-for-byte to the inner OPC UA
//! state machine. The wrapper adds no security of its own — which is
//! precisely the point the measurement makes.

use crate::connection::UaServerService;
use netsim::{Connection, ConnectionOutput, Ipv4, Service};
use std::sync::Arc;
use ua_proto::uatls;

/// A `uat-tls` listener in front of any inner [`Service`].
///
/// The prologue certificate defaults to the wrapped server's
/// application-instance certificate — the single-cert deployment the
/// paper observed — but can be overridden (or removed) to plant the
/// wrapper-specific deficits.
pub struct TlsWrapService {
    inner: Arc<dyn Service>,
    cert_der: Option<Vec<u8>>,
}

impl TlsWrapService {
    /// Wraps an OPC UA server, serving its configured certificate in
    /// the prologue (none configured → none presented).
    pub fn new(inner: UaServerService) -> Self {
        let cert_der = inner.core().config.certificate.as_ref().map(|c| c.to_der());
        TlsWrapService {
            inner: Arc::new(inner),
            cert_der,
        }
    }

    /// Wraps an arbitrary service with an explicit prologue certificate
    /// (`None` plants the certificate-less deficit).
    pub fn with_certificate(inner: Arc<dyn Service>, cert_der: Option<Vec<u8>>) -> Self {
        TlsWrapService { inner, cert_der }
    }
}

impl Service for TlsWrapService {
    fn open_connection(&self, peer: Ipv4) -> Box<dyn Connection> {
        Box::new(TlsWrapConn {
            state: WrapState::AwaitClientHello(Vec::new()),
            inner: self.inner.open_connection(peer),
            cert_der: self.cert_der.clone(),
        })
    }
}

enum WrapState {
    /// Accumulating the fixed 8-byte client prologue.
    AwaitClientHello(Vec<u8>),
    /// Prologue done; every byte goes to the inner connection.
    Passthrough,
}

/// One accepted `uat-tls` connection: prologue state machine, then
/// transparent passthrough.
pub struct TlsWrapConn {
    state: WrapState,
    inner: Box<dyn Connection>,
    cert_der: Option<Vec<u8>>,
}

impl Connection for TlsWrapConn {
    fn on_data(&mut self, data: &[u8]) -> ConnectionOutput {
        match &mut self.state {
            WrapState::AwaitClientHello(buf) => {
                buf.extend_from_slice(data);
                if buf.len() < uatls::CLIENT_HELLO.len() {
                    return ConnectionOutput::empty();
                }
                if buf[..uatls::CLIENT_HELLO.len()] != uatls::CLIENT_HELLO {
                    // Not the prologue — a plain-UACP client hit the
                    // TLS port. Hang up silently, like a TLS stack
                    // aborting a failed handshake.
                    return ConnectionOutput::close_with(Vec::new());
                }
                let rest = buf[uatls::CLIENT_HELLO.len()..].to_vec();
                self.state = WrapState::Passthrough;
                let mut reply = uatls::encode_server_hello(self.cert_der.as_deref());
                if rest.is_empty() {
                    ConnectionOutput::reply(reply)
                } else {
                    // Client pipelined UACP behind the prologue: feed it
                    // through and splice both replies.
                    let out = self.inner.on_data(&rest);
                    reply.extend_from_slice(&out.reply);
                    ConnectionOutput {
                        reply,
                        close: out.close,
                    }
                }
            }
            WrapState::Passthrough => self.inner.on_data(data),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ServerConfig;
    use crate::core::ServerCore;
    use netsim::{TcpStreamSim, VirtualClock};
    use ua_addrspace::SpaceBuilder;
    use ua_proto::transport::{Hello, TransportMessage};

    fn wrapped_stream(cert_der: Option<Vec<u8>>) -> TcpStreamSim {
        let config = ServerConfig::wide_open("urn:acme:tls1", "opc.tcp://h:4843/");
        let core = ServerCore::new(
            config,
            SpaceBuilder::new(&["urn:acme:tls"], "1.0").finish(),
            3,
        );
        let service =
            TlsWrapService::with_certificate(Arc::new(UaServerService::new(core, 5)), cert_der);
        let conn = service.open_connection(Ipv4::new(9, 9, 9, 9));
        TcpStreamSim::loopback(VirtualClock::starting_at(0), conn)
    }

    #[test]
    fn prologue_presents_certificate_then_speaks_uacp() {
        let der = vec![0x30, 0x11, 0x22];
        let mut s = wrapped_stream(Some(der.clone()));
        s.send(&uatls::CLIENT_HELLO).unwrap();
        let reply = s.recv().unwrap().unwrap();
        let hello = uatls::decode_server_hello(&reply).unwrap();
        assert_eq!(hello.cert_der.as_deref(), Some(der.as_slice()));
        // Same connection now answers plain UACP.
        s.send(&TransportMessage::Hello(Hello::default()).encode())
            .unwrap();
        match TransportMessage::decode(&s.recv().unwrap().unwrap()).unwrap() {
            TransportMessage::Acknowledge(_) => {}
            other => panic!("expected ACK, got {other:?}"),
        }
    }

    #[test]
    fn certificate_less_wrapper_clears_the_flag() {
        let mut s = wrapped_stream(None);
        s.send(&uatls::CLIENT_HELLO).unwrap();
        let reply = s.recv().unwrap().unwrap();
        assert_eq!(uatls::decode_server_hello(&reply).unwrap().cert_der, None);
    }

    #[test]
    fn plain_uacp_on_the_tls_port_is_hung_up_on() {
        let mut s = wrapped_stream(None);
        s.send(&TransportMessage::Hello(Hello::default()).encode())
            .unwrap();
        assert!(matches!(s.recv(), Ok(None) | Err(_)));
        assert!(s.is_closed());
    }
}
