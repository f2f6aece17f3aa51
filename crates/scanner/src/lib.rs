//! # scanner
//!
//! The Internet-wide OPC UA measurement pipeline (§4 of the paper):
//!
//! * [`record`] — [`ScanRecord`]/[`EndpointSnapshot`], the per-host data
//!   every downstream consumer (notably the `assessment` crate) works on;
//! * [`probe`] — the composable [`Probe`] stage API: UACP hello →
//!   discovery (GetEndpoints + FindServers) → anonymous session with
//!   budgeted traversal;
//! * [`suite`] — the protocol layer: a [`ProtocolSuite`] bundles the
//!   default port, the probe-stage ladder and the typed
//!   [`ProtocolPayload`] for one protocol;
//!   [`SuiteRegistry`] maps ports to suites and names every port a
//!   campaign probes, so one campaign sweeps several protocols over the
//!   same engine ([`ScanConfig::suites`], OPC UA on 4840 by default);
//! * [`url`] — `opc.tcp://host:port/path` parsing and normalization,
//!   the canonical form referral deduplication relies on;
//! * [`pipeline`] — the campaign driver: zmap-style sweep streamed
//!   straight into the probe stack, a deterministic breadth-first
//!   referral queue re-probing FindServers-announced `host:port`
//!   targets after the sweep, with each record handed to the caller's
//!   callback as soon as it is final ([`Scanner::scan_with`]) so memory
//!   stays constant at Internet scale;
//! * [`sched`] — the scan engine every campaign runs on: one shard per
//!   worker, each probing one target at a time through its suite's
//!   stage ladder, merged back into walk order,
//!   [`CancelToken`] cooperative cancellation, and [`SweepCheckpoint`]
//!   abort/resume — byte-identical per seed at any worker count;
//! * [`campaign`] — the longitudinal driver: N weekly sweeps on one
//!   strictly advancing clock, an evolve hook between campaigns, and a
//!   study-wide shared [`CertStore`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod campaign;
pub mod pipeline;
pub mod probe;
pub mod record;
pub mod sched;
pub mod suite;
pub mod url;

pub use campaign::{Campaign, CampaignConfig, WeekCheckpoint, WeekOutcome, WeeklyScan};
pub use pipeline::{FaultStats, ReferralStats, ScanOutcome, ScanSummary, Scanner};
// Per-stage probe types (UacpProbe, EndpointsProbe, …) deliberately stay
// behind the `probe::` path: suites are the unit callers compose with;
// individual stages are an implementation detail of a suite's ladder.
pub use probe::{Probe, ProbeContext, ProbeOutcome, RetryPolicy, ScanConfig};
pub use record::{
    DiscoveredVia, EndpointSnapshot, HostOutcome, OpcUaPayload, ProtocolPayload, ScanRecord,
    SessionOutcome, TraversalSummary, UatTlsPayload,
};
pub use sched::{CancelToken, PendingUrl, SweepCheckpoint};
pub use suite::{
    classify_connect_error, OpcUaSuite, ProtocolSuite, SuiteRegistry, UatTlsSuite,
    VendorFingerprintProbe, DEFAULT_UATLS_PORT,
};
pub use ua_crypto::{CertStore, CertStoreStats, ParsedCert, Thumbprint};
pub use url::{OpcUrl, UrlError, UrlHost, DEFAULT_OPCUA_PORT};
