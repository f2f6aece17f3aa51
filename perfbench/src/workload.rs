//! The workloads: their worlds, the timed campaign, and the checks of
//! its output against the planted truth.
//!
//! Every campaign here is single-threaded (`workers: 1`, the default
//! engine) and all traffic stays inside netsim's virtual network: no
//! loopback, no real link.

use std::collections::BTreeMap;

use assessment::Assessor;
use netsim::{Blocklist, Cidr, Internet, Ipv4, VirtualClock};
use population::{HostGroundTruth, LazyWorld, Population, PopulationConfig, StrataMix};
use scanner::{ScanConfig, ScanRecord, ScanSummary, Scanner};

use crate::trace::Trace;

/// A workload is one campaign over a `paper_like` population in a lazy
/// world over `10.0.0.0/<prefix_len>`: hosts are built on first contact.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    hosts: usize,
    prefix_len: u8,
}

pub const WORKLOADS: [Workload; 2] = [
    // Dense: per-host work (materialization, keygen, batch GCD) dominates.
    Workload {
        name: "snapshot",
        hosts: 8000,
        prefix_len: 17,
    },
    // Sparse: the per-address sweep dominates.
    Workload {
        name: "sparse",
        hosts: 300,
        prefix_len: 8,
    },
];

/// Everything set-up builds, up to the first probe.
pub struct Setup {
    world: LazyWorld,
    scanner: Scanner,
}

/// One timed campaign and what it produced.
pub struct Run {
    pub summary: ScanSummary,
    pub records: Vec<ScanRecord>,
    pub rendered: String,
    /// Order-sensitive digest of the records.
    pub records_digest: String,
    /// Wall seconds from the first probe to the rendered report.
    pub wall_s: f64,
    /// Virtual microseconds the simulated scanner spent.
    pub virtual_us: u64,
    /// Planted hosts checked, and those the campaign got wrong.
    pub attempted: u64,
    pub failed: u64,
}

impl Run {
    pub fn virtual_s(&self) -> f64 {
        self.virtual_us as f64 / 1e6
    }
}

/// FNV-1a over the fields that say what the scanner did to each target.
fn digest_records(records: &[ScanRecord]) -> String {
    let mut acc = 0xcbf2_9ce4_8422_2325u64;
    for record in records {
        for v in [
            u64::from(record.address.0),
            u64::from(record.port),
            record.rx_bytes,
            record.tx_bytes,
            u64::from(record.connect_attempts),
            record.backoff_micros,
            record.outcome as u64,
        ] {
            acc = (acc ^ v).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{acc:016x}")
}

pub fn digest_text(text: &str) -> String {
    ua_crypto::hash::to_hex(&ua_crypto::sha256(text.as_bytes()))
}

impl Workload {
    pub fn by_name(name: &str) -> Option<Workload> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    pub fn universe(&self) -> Vec<Cidr> {
        vec![Cidr::new(Ipv4::new(10, 0, 0, 0), self.prefix_len)]
    }

    pub fn population_config(&self, seed: u64) -> PopulationConfig {
        PopulationConfig::new(seed, self.universe(), StrataMix::paper_like(self.hosts))
    }

    /// Deploys the world and builds the scanner: the `setup_s` interval.
    pub fn setup(&self, seed: u64, workers: usize, trace: &mut Trace) -> Setup {
        let net = Internet::new(VirtualClock::default());
        let cfg = self.population_config(seed);
        let world = trace.span("population.deploy", |_| LazyWorld::deploy(&net, &cfg));
        let config = ScanConfig {
            workers,
            ..ScanConfig::default()
        };
        Setup {
            world,
            scanner: Scanner::new(net, Blocklist::new(), config),
        }
    }

    /// Runs the campaign on a fresh set-up: probes with the records
    /// folded into the `Assessor` in the sink, then finalize and render.
    /// With `check`, the output is compared with the planted truth after
    /// the clock stopped; repetitions without it are held to the checked
    /// one's digests instead (see `Outcome::observe`).
    pub fn run(&self, setup: Setup, seed: u64, check: bool, trace: &mut Trace) -> Run {
        let universe = self.universe();
        let clock = setup.scanner.internet().clock();
        let start = crate::trace::now();
        let virtual_start = clock.now_micros();
        let campaign_span = trace.open("campaign");
        let mut assessor = Assessor::new();
        let mut records = Vec::new();
        let summary = trace.span("scanner.scan", |trace| {
            setup.scanner.scan_with(&universe, seed, |record| {
                trace.span("assessment.fold", |_| assessor.fold(&record));
                records.push(record);
            })
        });
        let report = trace.span("assessment.finalize", |_| assessor.finalize());
        let rendered = trace.span("assessment.render", |_| report.to_string());
        trace.close(campaign_span);
        let wall_s = start.elapsed().as_secs_f64();
        let virtual_us = clock.now_micros() - virtual_start;

        let (attempted, failed) = if check {
            check_snapshot(&setup.world.population(), &records, &summary)
        } else {
            (0, 0)
        };
        Run {
            summary,
            records_digest: digest_records(&records),
            records,
            rendered,
            wall_s,
            virtual_us,
            attempted,
            failed,
        }
    }
}

/// True when the record shows what the planted host serves: it spoke
/// OPC UA, announced the planted application URI, and served the planted
/// certificate first.
fn recorded_correctly(host: &HostGroundTruth, record: &ScanRecord) -> bool {
    record.speaks()
        && record.application_uri() == Some(host.application_uri.as_str())
        && record.certificates().first().map(|c| c.thumbprint()) == host.cert_thumbprint
}

pub fn by_target(records: &[ScanRecord]) -> BTreeMap<(u32, u16), &ScanRecord> {
    records.iter().map(|r| ((r.address.0, r.port), r)).collect()
}

/// Failures common to every check: records of hosts that were not
/// planted, and a summary whose host counts disagree with the records.
pub fn stray(records: &[ScanRecord], planted: usize, summary: &ScanSummary) -> u64 {
    let mut failed = records.len().saturating_sub(planted) as u64;
    if summary.opcua_hosts + summary.non_opcua_hosts != records.len() as u64 {
        failed += 1;
    }
    failed
}

/// Compares the records with `LazyWorld::population()`. Returns (planted
/// hosts checked, hosts the campaign got wrong).
fn check_snapshot(
    population: &Population,
    records: &[ScanRecord],
    summary: &ScanSummary,
) -> (u64, u64) {
    let found = by_target(records);
    let wrong = population
        .hosts
        .iter()
        .filter(|host| {
            !found
                .get(&(host.address.0, host.port))
                .is_some_and(|r| recorded_correctly(host, r))
        })
        .count() as u64;
    (
        population.len() as u64,
        wrong + stray(records, population.len(), summary),
    )
}
