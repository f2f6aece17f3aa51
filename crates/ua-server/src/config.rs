//! Server configuration — including every *misconfiguration* knob the
//! study observes in the wild.
//!
//! The population generator (crate `population`) instantiates thousands
//! of these; each knob corresponds to a configuration deficit class from
//! the paper (§5, Figure 8).

use ua_crypto::{Certificate, RsaPrivateKey};
use ua_types::{MessageSecurityMode, SecurityPolicy, UserTokenType};

/// One offered endpoint: a (mode, policy) combination.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EndpointConfig {
    /// Message security mode.
    pub mode: MessageSecurityMode,
    /// Security policy.
    pub policy: SecurityPolicy,
}

impl EndpointConfig {
    /// Convenience constructor.
    pub fn new(mode: MessageSecurityMode, policy: SecurityPolicy) -> Self {
        EndpointConfig { mode, policy }
    }

    /// The completely insecure endpoint (mode None / policy None).
    pub fn none() -> Self {
        EndpointConfig {
            mode: MessageSecurityMode::None,
            policy: SecurityPolicy::None,
        }
    }
}

/// A username/password entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UserAccount {
    /// User name.
    pub name: String,
    /// Password (plaintext — simulation only).
    pub password: String,
}

/// Full server configuration.
#[derive(Clone)]
pub struct ServerConfig {
    /// Application URI (`urn:<vendor>:...`) — the field the paper
    /// clusters manufacturers by (§4).
    pub application_uri: String,
    /// Human-readable application name.
    pub application_name: String,
    /// Endpoint URL clients should use.
    pub endpoint_url: String,
    /// Offered (mode, policy) endpoints.
    pub endpoints: Vec<EndpointConfig>,
    /// Offered identity token types.
    pub token_types: Vec<UserTokenType>,
    /// The application-instance certificate served to clients. May
    /// deliberately *mismatch* the announced policies (§5.2's 409
    /// too-weak certificates) or be shared across hosts (§5.3).
    pub certificate: Option<Certificate>,
    /// Private key matching [`Self::certificate`].
    pub private_key: Option<RsaPrivateKey>,
    /// Username database for `cred.` authentication.
    pub users: Vec<UserAccount>,
    /// Reject secure-channel establishment for unknown client
    /// certificates (the "Secure Channel" rejections of Table 2).
    pub reject_foreign_certs: bool,
    /// Faulty/incomplete endpoint configuration: anonymous access is
    /// *advertised* but session establishment is rejected anyway (§5.4
    /// observed such hosts; they count as "Authentication" rejections).
    pub broken_session_config: bool,
    /// This host is a discovery server (LDS): it answers FindServers
    /// with references to other hosts and has no own address space
    /// worth probing.
    pub is_discovery_server: bool,
    /// Discovery URLs announced via FindServers (may point to other
    /// hosts and non-default ports — followed by the scanner from
    /// 2020-05-04 on).
    pub referenced_endpoints: Vec<String>,
    /// Reported `SoftwareVersion` (§5.5 update detection).
    pub software_version: String,
    /// Maximum references returned per Browse before a continuation
    /// point is issued.
    pub max_references_per_browse: u32,
}

impl std::fmt::Debug for ServerConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerConfig")
            .field("application_uri", &self.application_uri)
            .field("endpoints", &self.endpoints)
            .field("token_types", &self.token_types)
            .field("has_certificate", &self.certificate.is_some())
            .field("reject_foreign_certs", &self.reject_foreign_certs)
            .field("broken_session_config", &self.broken_session_config)
            .field("is_discovery_server", &self.is_discovery_server)
            .finish_non_exhaustive()
    }
}

// What `ServerConfig::resident_bytes` charges for each part: the sizes
// rustc lays these types out with on 64-bit targets, fixed here so the
// figure does not move with the toolchain. `population`'s footprint
// test checks that the estimate built on them stays close to the live
// heap.

/// The [`ServerConfig`] struct, its certificate and key included.
const CONFIG_BYTES: usize = 632;
/// One [`EndpointConfig`].
const ENDPOINT_BYTES: usize = 2;
/// One offered [`UserTokenType`].
const TOKEN_TYPE_BYTES: usize = 1;
/// One [`UserAccount`], its two string headers included.
const USER_BYTES: usize = 48;
/// A `String`'s header: pointer, capacity and length.
const STRING_BYTES: usize = 24;

impl ServerConfig {
    /// Bytes this config holds: the struct, its strings, endpoint and
    /// token lists, users and referrals, and what its certificate and
    /// private key own. Each part is charged a fixed size plus the
    /// lengths of what it owns, not capacities or the toolchain's
    /// layouts, so the figure follows only the config's contents.
    pub fn resident_bytes(&self) -> usize {
        CONFIG_BYTES
            + self.application_uri.len()
            + self.application_name.len()
            + self.endpoint_url.len()
            + self.software_version.len()
            + self.endpoints.len() * ENDPOINT_BYTES
            + self.token_types.len() * TOKEN_TYPE_BYTES
            + self
                .users
                .iter()
                .map(|u| USER_BYTES + u.name.len() + u.password.len())
                .sum::<usize>()
            + self
                .referenced_endpoints
                .iter()
                .map(|u| STRING_BYTES + u.len())
                .sum::<usize>()
            + self.certificate.as_ref().map_or(0, Certificate::heap_bytes)
            + self
                .private_key
                .as_ref()
                .map_or(0, RsaPrivateKey::heap_bytes)
    }

    /// A minimal secure-by-default configuration (what the
    /// recommendations ask for): Sign+SignAndEncrypt on Basic256Sha256,
    /// username auth only.
    pub fn recommended(
        application_uri: impl Into<String>,
        endpoint_url: impl Into<String>,
        certificate: Certificate,
        private_key: RsaPrivateKey,
    ) -> Self {
        ServerConfig {
            application_uri: application_uri.into(),
            application_name: "OPC UA Server".into(),
            endpoint_url: endpoint_url.into(),
            endpoints: vec![
                EndpointConfig::new(MessageSecurityMode::Sign, SecurityPolicy::Basic256Sha256),
                EndpointConfig::new(
                    MessageSecurityMode::SignAndEncrypt,
                    SecurityPolicy::Basic256Sha256,
                ),
            ],
            token_types: vec![UserTokenType::UserName],
            certificate: Some(certificate),
            private_key: Some(private_key),
            users: vec![UserAccount {
                name: "operator".into(),
                password: "correct horse battery staple".into(),
            }],
            reject_foreign_certs: false,
            broken_session_config: false,
            is_discovery_server: false,
            referenced_endpoints: Vec::new(),
            software_version: "1.0.0".into(),
            max_references_per_browse: 64,
        }
    }

    /// The insecure-everything configuration the paper found on 24 % of
    /// hosts: only mode/policy None, anonymous access enabled.
    pub fn wide_open(application_uri: impl Into<String>, endpoint_url: impl Into<String>) -> Self {
        ServerConfig {
            application_uri: application_uri.into(),
            application_name: "OPC UA Server".into(),
            endpoint_url: endpoint_url.into(),
            endpoints: vec![EndpointConfig::none()],
            token_types: vec![UserTokenType::Anonymous, UserTokenType::UserName],
            certificate: None,
            private_key: None,
            users: Vec::new(),
            reject_foreign_certs: false,
            broken_session_config: false,
            is_discovery_server: false,
            referenced_endpoints: Vec::new(),
            software_version: "1.0.0".into(),
            max_references_per_browse: 64,
        }
    }

    /// True if any endpoint uses the given policy.
    pub fn offers_policy(&self, policy: SecurityPolicy) -> bool {
        self.endpoints.iter().any(|e| e.policy == policy)
    }

    /// True if any endpoint uses the given mode.
    pub fn offers_mode(&self, mode: MessageSecurityMode) -> bool {
        self.endpoints.iter().any(|e| e.mode == mode)
    }

    /// True if the anonymous token type is offered.
    pub fn allows_anonymous(&self) -> bool {
        self.token_types.contains(&UserTokenType::Anonymous)
    }

    /// Checks a username/password pair.
    pub fn check_credentials(&self, user: &str, password: &str) -> bool {
        self.users
            .iter()
            .any(|u| u.name == user && u.password == password)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use ua_crypto::{CertificateBuilder, DistinguishedName, HashAlgorithm};

    fn cert_and_key() -> (Certificate, RsaPrivateKey) {
        let mut rng = StdRng::seed_from_u64(1);
        let key = RsaPrivateKey::generate(&mut rng, 256, 2048);
        let cert = CertificateBuilder::new(DistinguishedName::new("srv", "Acme"))
            .application_uri("urn:acme:srv")
            .self_signed(HashAlgorithm::Sha256, &key);
        (cert, key)
    }

    #[test]
    fn recommended_is_secure() {
        let (cert, key) = cert_and_key();
        let cfg = ServerConfig::recommended("urn:acme:srv", "opc.tcp://h:4840/", cert, key);
        assert!(!cfg.allows_anonymous());
        assert!(!cfg.offers_mode(MessageSecurityMode::None));
        assert!(cfg.offers_policy(SecurityPolicy::Basic256Sha256));
        assert!(!cfg.offers_policy(SecurityPolicy::Basic128Rsa15));
    }

    #[test]
    fn wide_open_is_deficient() {
        let cfg = ServerConfig::wide_open("urn:x", "opc.tcp://h:4840/");
        assert!(cfg.allows_anonymous());
        assert!(cfg.offers_mode(MessageSecurityMode::None));
        assert!(cfg.offers_policy(SecurityPolicy::None));
        assert!(cfg.certificate.is_none());
    }

    #[test]
    fn credentials_checked() {
        let (cert, key) = cert_and_key();
        let cfg = ServerConfig::recommended("urn:a", "opc.tcp://h:4840/", cert, key);
        assert!(cfg.check_credentials("operator", "correct horse battery staple"));
        assert!(!cfg.check_credentials("operator", "wrong"));
        assert!(!cfg.check_credentials("admin", "correct horse battery staple"));
    }
}
