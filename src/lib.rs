//! # opcua-study
//!
//! Umbrella crate for the reproduction of *"Easing the Conscience with
//! OPC UA: An Internet-Wide Study on Insecure Deployments"* (IMC 2020):
//! an end-to-end measurement pipeline over a deterministic, simulated
//! IPv4 Internet.
//!
//! ## Layer diagram
//!
//! ```text
//!                 ┌─────────────────────────────────────────┐
//!   tooling       │ ua-lint      workspace-native static    │
//!                 │              analysis (zero deps, own   │
//!                 │              lexer): wall-clock and     │
//!                 │              ambient-randomness bans,   │
//!                 │              unordered-iteration and    │
//!                 │              panic hygiene, nested      │
//!                 │              locks, manifest            │
//!                 │              hermeticity; `cargo run -p │
//!                 │              ua-lint -- check`, gated   │
//!                 │              in CI and by `cargo test`  │
//!                 ├─────────────────────────────────────────┤
//!   analysis      │ assessment   incremental Assessor:      │
//!                 │              fold records as they       │
//!                 │              stream, batch-GCD at       │
//!                 │              finalize; paper tables;    │
//!                 │              longitudinal diffing:      │
//!                 │              weekly campaigns → churn   │
//!                 │              series (new/vanished/      │
//!                 │              moved hosts by cert        │
//!                 │              thumbprint, renewals,      │
//!                 │              upgrade detection,         │
//!                 │              deficit trajectories)      │
//!                 ├─────────────────────────────────────────┤
//!   measurement   │ scanner      one engine (scanner::      │
//!                 │              sched): timer-wheel event  │
//!                 │              loops of per-host state    │
//!                 │              machines, max_in_flight    │
//!                 │              window per loop;           │
//!                 │              ScanConfig::workers loops  │
//!                 │              on pos % N shards, merged  │
//!                 │              in discovery order;        │
//!                 │              CancelToken abort +        │
//!                 │              SweepCheckpoint resume at  │
//!                 │              any worker count;          │
//!                 │              → LDS referral queue (url  │
//!                 │              parse, dedup, depth/       │
//!                 │              budget) → channel;         │
//!                 │              certificates interned      │
//!                 │              campaign-wide (CertStore:  │
//!                 │              parse/hash once per        │
//!                 │              distinct DER); Campaign:   │
//!                 │              N weekly sweeps on one     │
//!                 │              advancing clock, one       │
//!                 │              CertStore per study;       │
//!                 │              RetryPolicy: seeded        │
//!                 │              backoff/pacing, HostOutcome│
//!                 │              taxonomy, FaultStats;      │
//!                 │              ProtocolSuite registry     │
//!                 │              (port → suite): opc.tcp +  │
//!                 │              uat-tls ladders, typed     │
//!                 │              ProtocolPayload records,   │
//!                 │              vendor fingerprinting      │
//!                 ├─────────────────────────────────────────┤
//!   fleet         │ population   seeded strata of (mis-)    │
//!                 │              configured deployments;    │
//!                 │              WorldSpec: pure random-    │
//!                 │              access layout (Feistel     │
//!                 │              address permutation);      │
//!                 │              LazyWorld: hosts built on  │
//!                 │              first probe contact via    │
//!                 │              netsim's resolver hook —   │
//!                 │              the one world engine;      │
//!                 │              EvolvingWorld: weekly      │
//!                 │              churn (IP moves, arrivals/ │
//!                 │              departures, cert renewal,  │
//!                 │              up/downgrades, deficit     │
//!                 │              remediation/regression);   │
//!                 │              MiddleboxPlan: planted     │
//!                 │              fault strata with ground   │
//!                 │              truth (terminal-fate       │
//!                 │              replay)                    │
//!                 ├──────────────┬──────────────────────────┤
//!   protocol      │ ua-client    │ ua-server                │
//!                 ├──────────────┴──────────────────────────┤
//!                 │ ua-proto     transport, secure channel, │
//!                 │              chunking, services         │
//!                 ├──────────────┬─────────────┬────────────┤
//!   foundation    │ ua-types     │ ua-addrspace│ ua-crypto  │
//!                 │ (reset-reuse │             │ (Karatsuba,│
//!                 │  encoders)   │             │ Montgomery,│
//!                 │              │             │ CertStore) │
//!                 ├──────────────┴─────────────┴────────────┤
//!   substrate     │ netsim       virtual clock, CIDR/ASN,   │
//!                 │              connections, zmap sweeps,  │
//!                 │              HostResolver hook (lazy    │
//!                 │              host materialization),     │
//!                 │              NetProfile fault injection │
//!                 │              (loss, tarpits, firewalls) │
//!                 └─────────────────────────────────────────┘
//! ```
//!
//! ## The pipeline in five lines
//!
//! ```
//! use opcua_study::prelude::*;
//!
//! let net = Internet::new(VirtualClock::default());
//! let universe: Cidr = "10.0.0.0/22".parse().unwrap();
//! let cfg = PopulationConfig::new(42, vec![universe], StrataMix::paper_like(30));
//! let population = synthesize(&net, &cfg);
//! let scanner = Scanner::new(net, Blocklist::new(), ScanConfig::default());
//! let (_summary, records) = scanner.scan_collect(&[universe], 42);
//! let report = assess(&records);
//! assert_eq!(report.hosts, population.len());
//! ```
//!
//! ## Scaling knobs
//!
//! * **Worker count** — every campaign runs on `scanner::sched`'s
//!   event loops: per-host probe state machines multiplexed over a
//!   hierarchical timer wheel. `ScanConfig::workers` runs N loops on N
//!   threads; the permuted universe is split deterministically
//!   (`pos % workers`, and each referral level `i % workers`) and the
//!   loops' outputs merge back into discovery order, so records,
//!   report, and summary are byte-identical for a fixed seed at *any*
//!   worker count; only the wall-clock changes. One worker runs inline
//!   on the caller's thread. CI enforces this by diffing 1-worker
//!   against 4-worker campaigns.
//! * **In-flight cap** — `ScanConfig::max_in_flight` bounds each
//!   loop's admitted-but-unemitted window: admission stalls when it is
//!   full, the backpressure against a slow record sink. Output does
//!   not depend on it.
//! * **Abort/resume** — every scan is resumable: a `CancelToken`
//!   stops it at a safe point (`CancelToken::after_records(n)` right
//!   after sweep record `n`), and `Scanner::scan_resumable` +
//!   `SweepCheckpoint` (`Campaign::run_week_resumable` +
//!   `resume_week` for weekly campaigns) pick it back up at any
//!   worker count — an aborted sweep consumes no campaign time and
//!   stitches byte-identically. CI replays an abort/resume cycle at 1
//!   and 4 workers and diffs the two.
//! * **Referral following** — after the sweep, the pipeline re-probes
//!   every `host:port` that FindServers answers referred to (the
//!   paper's 2020-05-04 scanner change): URLs are normalized through
//!   `scanner::url::OpcUrl`, deduplicated against sweep coverage and
//!   earlier referrals (loops terminate), blocklist-checked, and
//!   followed breadth-first up to `ScanConfig::referral_depth` /
//!   `referral_budget`. Referral records carry
//!   `DiscoveredVia::Referral { from, depth }` provenance, and the
//!   assessment report contrasts referral-only hosts against swept
//!   ones (Table 1-style discovery accounting).
//! * **Incremental assessment** — `Assessor::fold` consumes each
//!   record as the scanner streams it (per-host rules immediately,
//!   cross-host state online) and `Assessor::finalize` runs batch GCD
//!   and emits the report; `assess()` is the batch wrapper. Streaming
//!   consumers never buffer records.
//! * **Campaign-scale crypto** — `ua-crypto` runs Karatsuba
//!   multiplication above 32 limbs, a dedicated squaring path, and
//!   Montgomery-form 4-bit-windowed `mod_pow` (zero divisions per
//!   step; the pre-PR square-and-multiply survives as
//!   `mod_pow_legacy` for even moduli and as the randomized tests'
//!   reference). The scanner
//!   interns certificates campaign-wide (`ua_crypto::CertStore`):
//!   a certificate served by N hosts is parsed, thumbprinted, and
//!   self-signature-checked once, the assessor folds over the shared
//!   handles, and batch GCD consumes moduli deduplicated by exactly
//!   the §5.2 reuse factor (`ScanSummary::certs` reports sightings
//!   vs. distinct).
//! * **Lazy world materialization** — `population::LazyWorld` (and
//!   `EvolvingWorld::new_lazy`) deploys a universe-sized study without
//!   building it: occupancy is answered by a seeded O(1) predicate (a
//!   Feistel permutation over the universe, no per-address state), and
//!   a host's full deployment — keys, certificate, address space,
//!   referral wiring — is synthesized on *first probe contact* through
//!   `netsim`'s `HostResolver` hook, as a pure function of
//!   `(campaign seed, host id, week)`. It is the only world engine:
//!   `synthesize` is the same world with every host materialized up
//!   front, and scans of the two are byte-identical at any worker
//!   count; resident memory tracks the hosts probes actually reach,
//!   never the address space (`MaterializationStats` reports hosts
//!   materialized, keys generated, and the resident-bytes estimate;
//!   `million_host_study` prints them into its golden output, perfbench
//!   traces them as `population.materialize.*`, and CI runs that
//!   million-address study under a hard `ulimit -v`).
//! * **Longitudinal campaigns** — `population::EvolvingWorld` churns
//!   the deployed fleet week over week (DHCP-style IP reassignment,
//!   arrivals/departures, certificate renewal, software up/downgrades,
//!   deficit remediation and regression), `scanner::Campaign` runs one
//!   sweep per week on a strictly advancing clock with a study-wide
//!   shared `CertStore`, and `assessment::LongitudinalAssessor` diffs
//!   consecutive campaigns into the paper's series: hosts
//!   new/vanished/moved (certificate thumbprint as the cross-week
//!   identity, §4.3), renewals, `software_version` upgrade detection
//!   (§6), and deficit-rate trajectories. A full multi-campaign run is
//!   byte-identical per seed at any worker count; CI replays the
//!   seven-month study against planted ground truth and diffs a
//!   1-worker vs 4-worker six-week mini-study.
//! * **Hostile-network realism** — `netsim::NetProfile` injects
//!   middlebox faults under any world: per-SYN loss coins, flaky
//!   stacks that drop their first N connects, accept-then-stall
//!   tarpits (silent or byte-dribbling), and rate-limiting firewalls
//!   (temporary or sweep-permanent), every fault a pure function of
//!   `(profile, attempt)` charged honestly to the virtual clock.
//!   `population::MiddleboxPlan` plants those profiles over a
//!   synthesized fleet per /24 and doubles as checkable ground truth
//!   (it replays the fate sequence a retrying scanner sees). The
//!   scanner answers with `ScanConfig::retry` — bounded attempts,
//!   seeded exponential backoff with jitter, adaptive pacing on
//!   rate-limit signatures, per-stage budgets — classifies every
//!   write-off (`HostOutcome`: unreachable / timed out / throttled /
//!   tarpitted), and tallies the cost (`FaultStats`). Default policy
//!   is one attempt: polite campaigns are byte-identical to the
//!   pre-retry pipeline. Hostile sweeps stay byte-identical across
//!   worker counts, in-flight caps, and abort/resume; CI replays
//!   `examples/hostile_sweep.rs` against the planted truth and diffs
//!   1-vs-4-worker hostile campaigns.
//! * **Protocol suites** — `ScanConfig::suites` (or
//!   `ScanConfig::builder().suite(port, …)`) registers a
//!   `scanner::ProtocolSuite` per port: the suite names its probe
//!   ladder, classifies connect faults, and emits a typed
//!   `ProtocolPayload` on every record. The sweep walks the union of
//!   registered ports, one isolated phase per suite, so a mixed
//!   registry equals the concatenation of single-suite campaigns —
//!   and an empty registry stays byte-identical to the pre-suite
//!   OPC UA pipeline. Shipped suites: `OpcUaSuite` (opc.tcp, referral
//!   following, optional vendor fingerprinting via the error-taxonomy
//!   quirk each stack betrays) and `UatTlsSuite` (TLS-wrapped opc.tcp
//!   on 4843, surfacing the wrapper-specific deficits: TLS-but-
//!   anonymous inner servers and expired wrapper certificates —
//!   `population::MultiProtoPlan` plants those strata with checkable
//!   ground truth). CI replays `examples/multi_protocol_audit.rs`
//!   against the planted truth and diffs it across worker counts.
//! * **Invariant lints** — every determinism rule above is statically
//!   checked by `crates/ua-lint`, a registry-dependency-free analyzer
//!   with its own Rust lexer: no wall-clock reads or sleeps off the
//!   `VirtualClock`, no entropy-seeded RNG, no `HashMap`/`HashSet`
//!   iteration feeding campaign output, panic and lock-nesting
//!   hygiene, and path-or-workspace-only manifests. `cargo run -p
//!   ua-lint -- check` must exit clean; a golden test inside
//!   `cargo test` and a CI job (JSON report artifact) enforce it.
//!   Deliberate exceptions are waived per site with
//!   `// ua-lint: allow(<rule>) -- <why>` (see
//!   `examples/README.md` § Invariants & lints).
//! * **Golden output** — `examples/golden.sh` runs every example (at
//!   its default arguments, most at 4 workers too) and diffs each run's
//!   stdout byte for byte against `examples/golden/`; runs that must
//!   print the same bytes share one file, and a run that exits nonzero
//!   fails. CI runs it; `--bless` rewrites the goldens when an output
//!   change is intended, so the change shows up as a golden diff.
//! * **Perf trail** — `perfbench/` times one campaign end to end and
//!   layer by layer (materialization and keygen, certificate interning,
//!   each probe stage, batch GCD, the assessor), with the bounds
//!   committed in `BENCHMARK.json`.
//!
//! See `examples/quickstart.rs`, `examples/internet_scan.rs`,
//! `examples/deployment_audit.rs`, and `examples/seven_month_study.rs`
//! for runnable end-to-end demos (`examples/README.md` has the tour).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use assessment;
pub use netsim;
pub use population;
pub use scanner;
pub use ua_addrspace;
pub use ua_client;
pub use ua_crypto;
pub use ua_proto;
pub use ua_server;
pub use ua_types;

/// The types most pipelines need, in one import.
pub mod prelude {
    pub use assessment::{
        assess, AssessmentReport, Assessor, Deficit, LongitudinalAssessor, LongitudinalReport,
        ReachabilityTally, WeekDelta,
    };
    pub use netsim::{Blocklist, Cidr, Internet, Ipv4, NetProfile, VirtualClock};
    pub use population::{
        population_vendor_counts, synthesize, ChurnConfig, EvolvingWorld, FaultStratum, HostClass,
        LazyWorld, MaterializationStats, MiddleboxConfig, MiddleboxPlan, MultiProtoConfig,
        MultiProtoPlan, Population, PopulationConfig, StrataMix, TlsClass,
    };
    pub use scanner::{
        Campaign, CampaignConfig, CancelToken, CertStore, DiscoveredVia, EngineStats, FaultStats,
        HostOutcome, OpcUaSuite, OpcUrl, ProtocolPayload, ProtocolSuite, ReferralStats,
        RetryPolicy, ScanConfig, ScanOutcome, ScanRecord, ScanSummary, Scanner, SessionOutcome,
        SuiteRegistry, SweepCheckpoint, UatTlsSuite, WeekCheckpoint, WeekOutcome, WeeklyScan,
        DEFAULT_OPCUA_PORT, DEFAULT_UATLS_PORT,
    };
    pub use ua_crypto::Thumbprint;
    pub use ua_types::{MessageSecurityMode, SecurityPolicy, UserTokenType};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn doc_pipeline_runs() {
        let net = Internet::new(VirtualClock::default());
        let universe: Cidr = "10.0.0.0/22".parse().unwrap();
        let cfg = PopulationConfig::new(42, vec![universe], StrataMix::paper_like(30));
        let population = synthesize(&net, &cfg);
        let scanner = Scanner::new(net, Blocklist::new(), ScanConfig::default());
        let (_summary, records) = scanner.scan_collect(&[universe], 42);
        let report = assess(&records);
        assert_eq!(report.hosts, population.len());
    }
}
