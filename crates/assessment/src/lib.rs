//! # assessment
//!
//! Security-configuration assessment of OPC UA scan records — the
//! analysis layer of the study (§5–§6):
//!
//! * [`deficit`] — the finding taxonomy ([`Deficit`]) and the pure
//!   per-host classification rules ([`host_deficits`]);
//! * [`report`] — population-wide aggregation: the incremental
//!   [`Assessor`] folds records as a campaign streams them (per-host
//!   rules immediately, cross-host state online, batch GCD at
//!   [`Assessor::finalize`]); [`assess`] is the batch wrapper producing
//!   the paper-style summary tables ([`AssessmentReport`]);
//! * [`longitudinal`] — multi-campaign diffing: consecutive weekly
//!   outputs become churn series (hosts new/vanished/moved, certificate
//!   renewals, `software_version` upgrade detection, deficit-rate
//!   trajectories), with the certificate thumbprint as the cross-week
//!   host identity (§4.3).
//!
//! The crate consumes [`scanner::ScanRecord`]s only; it never touches
//! the network layer, so stored campaigns can be re-assessed offline.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod deficit;
pub mod longitudinal;
pub mod report;

pub use deficit::{host_deficits, Deficit};
pub use longitudinal::{
    cmp_versions, diff, HostObservation, LongitudinalAssessor, LongitudinalReport, WeekDelta,
    WeekPoint, WeekSnapshot,
};
pub use report::{
    assess, AssessmentReport, Assessor, HostReport, ReuseCluster, SessionTally, SharedPrimePair,
};
