//! Client error taxonomy.
//!
//! The scanner needs to *distinguish* failure stages (Table 2 separates
//! "Secure Channel" rejections from "Authentication" rejections), so the
//! error type preserves where in the exchange a host failed.

use netsim::StreamError;
use ua_proto::chunk::OpenError;
use ua_proto::secure::SecureError;
use ua_types::{CodecError, StatusCode};

/// Errors from client operations.
#[derive(Debug, Clone, PartialEq)]
pub enum ClientError {
    /// The byte stream failed (peer closed).
    Stream(StreamError),
    /// A reply could not be decoded.
    Codec(CodecError),
    /// Message security processing failed.
    Secure(SecureError),
    /// The server sent a transport-level `ERR` (e.g. it aborted the
    /// secure-channel handshake rejecting our certificate).
    Remote {
        /// Status code from the ERR message.
        status: StatusCode,
        /// Reason string, if any.
        reason: Option<String>,
    },
    /// The server answered with a `ServiceFault`.
    Fault(StatusCode),
    /// The server sent a structurally valid but unexpected response.
    UnexpectedResponse,
    /// The server sent nothing where a reply was required.
    NoReply,
    /// The client is not in the right state (e.g. no open channel).
    BadState(&'static str),
}

impl From<StreamError> for ClientError {
    fn from(e: StreamError) -> Self {
        ClientError::Stream(e)
    }
}

impl From<CodecError> for ClientError {
    fn from(e: CodecError) -> Self {
        ClientError::Codec(e)
    }
}

impl From<SecureError> for ClientError {
    fn from(e: SecureError) -> Self {
        ClientError::Secure(e)
    }
}

/// A reply chunk that fails verification is a secure-channel failure,
/// as Table 2 counts it; one naming another channel, or one reassembly
/// refuses, is a malformed reply.
impl From<OpenError> for ClientError {
    fn from(e: OpenError) -> Self {
        match e {
            OpenError::Secure(e) => ClientError::Secure(e),
            OpenError::WrongChannel(_) | OpenError::Reassembly(_) => {
                ClientError::UnexpectedResponse
            }
        }
    }
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Stream(e) => write!(f, "stream error: {e}"),
            ClientError::Codec(e) => write!(f, "codec error: {e}"),
            ClientError::Secure(e) => write!(f, "security error: {e}"),
            ClientError::Remote { status, reason } => write!(
                f,
                "server error {status}{}",
                reason
                    .as_deref()
                    .map(|r| format!(": {r}"))
                    .unwrap_or_default()
            ),
            ClientError::Fault(s) => write!(f, "service fault: {s}"),
            ClientError::UnexpectedResponse => write!(f, "unexpected response type"),
            ClientError::NoReply => write!(f, "no reply from server"),
            ClientError::BadState(s) => write!(f, "bad client state: {s}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl ClientError {
    /// True when the failure happened at the secure-channel stage
    /// (Table 2 column "Secure Channel").
    pub fn is_channel_rejection(&self) -> bool {
        matches!(self, ClientError::Remote { .. } | ClientError::Secure(_))
    }

    /// True when the failure is an authentication/session rejection
    /// (Table 2 column "Authentication").
    pub fn is_auth_rejection(&self) -> bool {
        matches!(
            self,
            ClientError::Fault(
                StatusCode::BAD_IDENTITY_TOKEN_REJECTED
                    | StatusCode::BAD_IDENTITY_TOKEN_INVALID
                    | StatusCode::BAD_USER_ACCESS_DENIED
                    | StatusCode::BAD_INTERNAL_ERROR
                    | StatusCode::BAD_SESSION_ID_INVALID
                    | StatusCode::BAD_SESSION_NOT_ACTIVATED
            )
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_helpers() {
        let chan = ClientError::Remote {
            status: StatusCode::BAD_CERTIFICATE_UNTRUSTED,
            reason: None,
        };
        assert!(chan.is_channel_rejection());
        assert!(!chan.is_auth_rejection());

        let auth = ClientError::Fault(StatusCode::BAD_IDENTITY_TOKEN_REJECTED);
        assert!(auth.is_auth_rejection());
        assert!(!auth.is_channel_rejection());

        let other = ClientError::NoReply;
        assert!(!other.is_auth_rejection());
        assert!(!other.is_channel_rejection());
    }

    #[test]
    fn display_includes_detail() {
        let e = ClientError::Remote {
            status: StatusCode::BAD_SECURITY_CHECKS_FAILED,
            reason: Some("nope".into()),
        };
        let s = format!("{e}");
        assert!(s.contains("nope"));
        assert!(s.contains("BAD_SECURITY_CHECKS_FAILED"));
    }
}
