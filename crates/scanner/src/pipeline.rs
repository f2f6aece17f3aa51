//! The end-to-end measurement pipeline: zmap-style sweep → probe stack →
//! streamed [`ScanRecord`]s.
//!
//! [`Scanner::scan_resumable`] is the one campaign driver; every other
//! entry point runs it with a [`CancelToken`] that never fires.
//! [`Scanner::scan_with`] hands each record to a callback on the
//! caller's thread as soon as it is final, so the engine holds no more
//! records than its shards' bounded channels
//! ([`ScanConfig::channel_capacity`] each) however many of the 2³²
//! addresses answer; [`Scanner::scan_collect`] gathers them into a `Vec`.
//!
//! ## Workers
//!
//! Probes run on [`crate::sched`]'s shards, each probing one target at a
//! time. Each sweep phase first builds one [`netsim::SweepPlan`] on the
//! caller's thread, the one copy of the sweep's classification
//! (blocklist → probe counted → listener check) that
//! `netsim::SynScanner` drains too: it reads the world once, before any
//! shard starts, and holds the responsive targets of the zmap
//! permutation (a function of the seed alone) sorted by walk step.
//! [`ScanConfig::workers`] runs N shards on N threads; shard `s` admits
//! only the targets at steps `pos % workers == s`, and an N-way merge
//! joins the N sorted streams back into exact discovery order. The
//! output is **byte-identical for a fixed seed regardless of worker
//! count**, because:
//!
//! 1. every host is probed on an independent clock *fork* anchored at
//!    the campaign epoch ([`netsim::VirtualClock::fork`] via
//!    [`Internet::with_clock`]), so record contents are a pure function
//!    of (host, seed, epoch) — never of probe order;
//! 2. campaign time is accounted once from summed, order-independent
//!    quantities: SYN pacing in microseconds from total probes sent
//!    (sweep plus referral follow-ups), plus the sum of per-host probe
//!    latencies.
//!
//! ## Referral following
//!
//! After the sweep, the pipeline follows FindServers referrals
//! (the paper's 2020-05-04 scanner change, which surfaced >1000 servers
//! hidden behind discovery servers on non-default ports): referred URLs
//! are normalized through [`crate::url::OpcUrl`], deduplicated against
//! everything the sweep already covered, checked against the blocklist,
//! and probed breadth-first level by level up to
//! [`ScanConfig::referral_depth`] /  [`ScanConfig::referral_budget`].
//! A level's targets are shared out `i % workers` and merged back into
//! queue order. Referral records carry [`DiscoveredVia::Referral`]
//! provenance and are emitted after the sweep records, so the full
//! output stream stays byte-identical per seed at any worker count.

use crate::probe::ScanConfig;
use crate::record::{DiscoveredVia, ScanRecord};
use crate::sched::{CancelToken, Job, PendingUrl, PhaseEnv, SweepCheckpoint};
use crate::suite::ProtocolSuite;
use crate::url::OpcUrl;
use netsim::{Blocklist, Cidr, Internet, Ipv4, SweepPlan, SweepStats, VirtualClock};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeSet;
use ua_crypto::{CertStore, CertStoreStats};

/// Accounting of the referral-following phase. Every announced URL ends
/// up in exactly one disposition bucket:
/// `unfollowable + already_probed + blocklisted + truncated + followed
/// == urls_announced`, and `followed == dead + opcua_hosts +
/// non_opcua_hosts`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReferralStats {
    /// Referral URLs announced across all records (after per-record
    /// normalization and dedup).
    pub urls_announced: u64,
    /// URLs that cannot be turned into a probe target: unparseable, or
    /// a DNS name the scanner cannot resolve.
    pub unfollowable: u64,
    /// Targets skipped because the sweep already covered them or an
    /// earlier referral probed them — includes every self-referral loop.
    pub already_probed: u64,
    /// Targets skipped because their address is blocklisted.
    pub blocklisted: u64,
    /// Fresh targets dropped by the depth or budget limits.
    pub truncated: u64,
    /// Referral probes actually sent.
    pub followed: u64,
    /// Followed targets with nothing listening (dead referrals).
    pub dead: u64,
    /// Followed targets that spoke OPC UA.
    pub opcua_hosts: u64,
    /// Followed targets that answered but did not speak OPC UA.
    pub non_opcua_hosts: u64,
    /// Deepest referral chain actually probed (0 when nothing was
    /// followed).
    pub max_depth: u32,
}

/// Connect-phase fault accounting across a campaign: one
/// [`HostOutcome`](crate::record::HostOutcome) bucket increment per
/// emitted record, plus the retry layer's cost telemetry. Dead referral
/// targets (never connected) are counted by
/// [`ReferralStats::dead`], not here.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Records whose connect phase delivered a stream.
    pub ok: u64,
    /// Records refused (RST) — live host, closed port.
    pub unreachable: u64,
    /// Records that exhausted the retry budget on SYN timeouts.
    pub timed_out: u64,
    /// Records that exhausted the retry budget on rate-limit drops.
    pub throttled: u64,
    /// Records classified as tarpitted (silent stall or budget-burning
    /// byte dribble).
    pub tarpitted: u64,
    /// Records that needed more than one connect attempt.
    pub retried_hosts: u64,
    /// Total connect attempts across all records.
    pub connect_attempts: u64,
    /// Total virtual microseconds spent in retry backoff.
    pub backoff_micros: u64,
}

impl FaultStats {
    /// Folds one emitted record into the tally.
    pub fn observe(&mut self, record: &ScanRecord) {
        match record.outcome {
            crate::record::HostOutcome::Ok => self.ok += 1,
            crate::record::HostOutcome::Unreachable => self.unreachable += 1,
            crate::record::HostOutcome::TimedOut => self.timed_out += 1,
            crate::record::HostOutcome::Throttled => self.throttled += 1,
            crate::record::HostOutcome::Tarpitted => self.tarpitted += 1,
        }
        if record.connect_attempts > 1 {
            self.retried_hosts += 1;
        }
        self.connect_attempts += u64::from(record.connect_attempts);
        self.backoff_micros += record.backoff_micros;
    }

    /// Records the connect phase could not recover (everything but
    /// `ok`).
    pub fn unrecovered(&self) -> u64 {
        self.unreachable + self.timed_out + self.throttled + self.tarpitted
    }
}

/// Aggregate accounting of one scan campaign.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScanSummary {
    /// Sweep-stage accounting (probes, blocklist hits, responsive).
    pub sweep: SweepStats,
    /// Referral-following accounting (the paper's Table 1 delta).
    pub referrals: ReferralStats,
    /// Hosts that completed the UACP handshake (actual OPC UA speakers),
    /// including referral-discovered ones.
    pub opcua_hosts: u64,
    /// Responsive hosts that did not speak OPC UA.
    pub non_opcua_hosts: u64,
    /// Certificate-interning counters: total certificate sightings
    /// across all endpoint snapshots versus distinct DER payloads — the
    /// reuse factor of §5.2, observable per campaign.
    pub certs: CertStoreStats,
    /// Virtual unix time the campaign started.
    pub started_unix: i64,
    /// Virtual unix time the campaign finished.
    pub finished_unix: i64,
    /// Connect-phase fault/retry accounting (all zeros except `ok` on a
    /// polite network).
    pub faults: FaultStats,
}

impl ScanSummary {
    /// Folds one emitted record into the host and fault counters.
    fn count(&mut self, record: &ScanRecord) {
        if record.speaks() {
            self.opcua_hosts += 1;
        } else {
            self.non_opcua_hosts += 1;
        }
        self.faults.observe(record);
    }
}

/// How [`Scanner::scan_resumable`] ended.
// A transient return value, produced once per scan and immediately
// destructured — the variant size gap costs nothing here.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum ScanOutcome {
    /// The scan ran to completion.
    Complete {
        /// Campaign summary.
        summary: ScanSummary,
    },
    /// Cancellation was observed at a safe point. Pass the checkpoint
    /// back to [`Scanner::scan_resumable`] to continue; the stitched
    /// record stream is byte-identical to an uninterrupted run.
    Aborted {
        /// Where to pick the scan back up.
        checkpoint: Box<SweepCheckpoint>,
    },
}

/// The campaign driver.
#[derive(Clone)]
pub struct Scanner {
    internet: Internet,
    blocklist: Blocklist,
    config: ScanConfig,
}

impl Scanner {
    /// Creates a scanner over `internet` honoring `blocklist`.
    pub fn new(internet: Internet, blocklist: Blocklist, config: ScanConfig) -> Self {
        Scanner {
            internet,
            blocklist,
            config,
        }
    }

    /// The scan configuration.
    pub fn config(&self) -> &ScanConfig {
        &self.config
    }

    /// The simulated Internet under measurement (multi-campaign drivers
    /// use its clock to pin weekly epochs).
    pub fn internet(&self) -> &Internet {
        &self.internet
    }

    /// Runs the full campaign synchronously, handing each record to
    /// `sink` as soon as it is final — in discovery order, which is
    /// identical for every [`ScanConfig::workers`] setting.
    pub fn scan_with<F>(&self, universe: &[Cidr], seed: u64, sink: F) -> ScanSummary
    where
        F: FnMut(ScanRecord),
    {
        // One certificate interner per campaign, shared by all shards:
        // interned handles are pure functions of the DER bytes, so the
        // worker-count byte-identity guarantee survives interning.
        let certs = CertStore::new();
        match self.scan_resumable(universe, seed, &certs, None, &CancelToken::new(), sink) {
            ScanOutcome::Complete { summary } => summary,
            ScanOutcome::Aborted { .. } => {
                unreachable!("scan with a fresh CancelToken cannot abort")
            }
        }
    }

    /// Runs the campaign with cooperative cancellation and
    /// deterministic abort/resume.
    ///
    /// * `resume: None` starts a fresh scan at the current campaign
    ///   clock instant; `Some(checkpoint)` continues an aborted one
    ///   (same universe, same seed — asserted — and any worker count).
    /// * `cancel` is polled before every probe during the sweep and at
    ///   referral-level boundaries; a record budget
    ///   ([`CancelToken::after_records`]) stops the sweep right after
    ///   its last record. On cancellation the scan returns
    ///   [`ScanOutcome::Aborted`] *without* advancing the campaign
    ///   clock: results probed ahead of the emitted prefix (more than
    ///   one worker) are dropped fork-clocks and all, and time is only
    ///   accounted when a scan completes.
    /// * Records emitted before an abort are final. The concatenation
    ///   of the aborted run's records and the resumed run's records is
    ///   byte-identical to an uninterrupted run.
    pub fn scan_resumable<F>(
        &self,
        universe: &[Cidr],
        seed: u64,
        certs: &CertStore,
        resume: Option<SweepCheckpoint>,
        cancel: &CancelToken,
        mut sink: F,
    ) -> ScanOutcome
    where
        F: FnMut(ScanRecord),
    {
        // The checkpoint *is* the scan state: a fresh scan starts from
        // an empty one at the shared campaign clock.
        let mut state = match resume {
            Some(cp) => {
                assert_eq!(cp.seed, seed, "resume must use the checkpoint's seed");
                cp
            }
            None => SweepCheckpoint {
                seed,
                epoch_micros: self.internet.clock().now_micros(),
                summary: ScanSummary {
                    started_unix: self.internet.clock().now_unix_seconds(),
                    ..ScanSummary::default()
                },
                suite_cursor: 0,
                sweep_done: false,
                next_step: 0,
                probe_micros: 0,
                frontier: Vec::new(),
                probed_referrals: BTreeSet::new(),
            },
        };
        // Every probed host gets a clock forked from this frozen epoch,
        // so records cannot observe each other through shared time.
        let epoch = VirtualClock::starting_at_micros(state.epoch_micros);
        let workers = self.config.effective_workers();

        // One full phase (sweep, then referral levels for suites that
        // have them) per registered suite, in ascending port order.
        // Phases are independent — per-phase frontier and dedup state —
        // so a mixed registry emits exactly the concatenation of the
        // single-suite runs.
        while let Some((port, suite)) = self.config.suites.iter().nth(state.suite_cursor) {
            let env = PhaseEnv {
                internet: &self.internet,
                config: &self.config,
                certs,
                epoch: &epoch,
                suite,
            };
            let follows = suite.follows_referrals();
            if !state.sweep_done {
                // A resumed phase plans its sweep again and admits only
                // the targets from `next_step` on: they are sorted, so
                // that is a cut.
                let plan = SweepPlan::new(
                    &self.internet,
                    &self.blocklist,
                    port,
                    universe,
                    &mut StdRng::seed_from_u64(seed),
                );
                let resume_at = state.next_step;
                let complete = env.run_shards(
                    workers,
                    Some(cancel),
                    |shard| {
                        plan.shard(shard as u64, workers as u64)
                            .skip_while(move |&(pos, _)| pos < resume_at)
                            .map(move |(pos, addr)| Job {
                                ordinal: pos,
                                addr,
                                port,
                                via: DiscoveredVia::Sweep,
                                seed: seed ^ u64::from(addr.0),
                                listening: true,
                            })
                    },
                    &mut |pos, record, micros| {
                        // ua-lint: allow(panic-hygiene) -- sweep admission only emits jobs with a listener
                        let record = record.expect("sweep jobs always have a listener");
                        state.probe_micros += micros;
                        state.summary.count(&record);
                        if follows {
                            collect_referrals(suite.as_ref(), &record, &mut state.frontier);
                        }
                        sink(record);
                        state.next_step = pos + 1;
                        cancel.notch();
                        !cancel.is_cancelled()
                    },
                );
                if !complete {
                    return ScanOutcome::Aborted {
                        checkpoint: Box::new(state),
                    };
                }
                state.summary.sweep = state.summary.sweep + plan.stats();
                state.sweep_done = true;
            }

            // Referral phase: levels are atomic (cancellation lands on
            // level boundaries). Suites without referral following skip
            // straight to the next phase.
            if follows {
                loop {
                    if cancel.is_cancelled() {
                        return ScanOutcome::Aborted {
                            checkpoint: Box::new(state),
                        };
                    }
                    if state.frontier.is_empty() {
                        break;
                    }
                    let level = self.classify_level(universe, port, seed, &mut state);
                    let shards = workers.min(level.len()).max(1);
                    env.run_shards(
                        shards,
                        None,
                        |shard| level.iter().skip(shard).step_by(shards).copied(),
                        &mut |_, record, micros| {
                            state.probe_micros += micros;
                            match record {
                                None => state.summary.referrals.dead += 1,
                                Some(record) => {
                                    if record.speaks() {
                                        state.summary.referrals.opcua_hosts += 1;
                                    } else {
                                        state.summary.referrals.non_opcua_hosts += 1;
                                    }
                                    state.summary.count(&record);
                                    collect_referrals(suite.as_ref(), &record, &mut state.frontier);
                                    sink(record);
                                    cancel.notch();
                                }
                            }
                            true
                        },
                    );
                }
            }
            state.suite_cursor += 1;
            state.sweep_done = false;
            state.next_step = 0;
            state.probed_referrals.clear();
        }

        // Completion: account campaign time once, from order-independent
        // sums: SYN pacing in micros — integer-second division would
        // stall the clock entirely for campaigns shorter than a second of
        // probes — plus aggregate probe latency.
        let mut summary = state.summary;
        let paced_probes = summary.sweep.probes_sent + summary.referrals.followed;
        let pacing_micros =
            paced_probes.saturating_mul(1_000_000) / self.config.probes_per_second.max(1);
        self.internet.clock().advance_micros(pacing_micros);
        self.internet.clock().advance_micros(state.probe_micros);
        summary.certs = certs.stats();
        summary.finished_unix = self.internet.clock().now_unix_seconds();
        ScanOutcome::Complete { summary }
    }

    /// Classifies the drained referral frontier into the probe jobs of
    /// the next breadth-first level (ordinal = queue position):
    /// unfollowable → blocklist → dedup → depth/budget, every announced
    /// URL landing in exactly one [`ReferralStats`] bucket.
    fn classify_level(
        &self,
        universe: &[Cidr],
        sweep_port: u16,
        seed: u64,
        state: &mut SweepCheckpoint,
    ) -> Vec<Job> {
        let stats = &mut state.summary.referrals;
        let mut level: Vec<Job> = Vec::new();
        for pending in state.frontier.drain(..) {
            stats.urls_announced += 1;
            let Some((addr, port)) = OpcUrl::parse(&pending.url).ok().and_then(|u| u.target())
            else {
                stats.unfollowable += 1;
                continue;
            };
            if self.blocklist.contains(addr) {
                stats.blocklisted += 1;
                continue;
            }
            // Deduplicate against this phase's sweep (which SYN-probed
            // every non-blocklisted universe address on the phase's
            // port, responsive or not) and against earlier
            // referral probes — this is what terminates A→B→A
            // loops.
            let swept = port == sweep_port && universe.iter().any(|c| c.contains(addr));
            if swept || state.probed_referrals.contains(&(addr, port)) {
                stats.already_probed += 1;
                continue;
            }
            if pending.depth > self.config.referral_depth
                || (stats.followed as usize) >= self.config.referral_budget
            {
                stats.truncated += 1;
                continue;
            }
            state.probed_referrals.insert((addr, port));
            stats.followed += 1;
            stats.max_depth = stats.max_depth.max(pending.depth);
            level.push(Job {
                ordinal: level.len() as u64,
                addr,
                port,
                via: DiscoveredVia::Referral {
                    from: pending.from,
                    depth: pending.depth,
                },
                seed: referral_seed(seed, addr, port),
                listening: self.internet.has_listener(addr, port),
            });
        }
        level
    }

    /// Convenience: runs [`Self::scan_with`] and collects all records.
    pub fn scan_collect(&self, universe: &[Cidr], seed: u64) -> (ScanSummary, Vec<ScanRecord>) {
        let mut records = Vec::new();
        let summary = self.scan_with(universe, seed, |r| records.push(r));
        (summary, records)
    }
}

/// Harvests a record's referred URLs — as the probing suite interprets
/// them — into the referral frontier, one chain level deeper than the
/// record itself.
fn collect_referrals(
    suite: &dyn ProtocolSuite,
    record: &ScanRecord,
    frontier: &mut Vec<PendingUrl>,
) {
    let depth = record.via.depth() + 1;
    for url in suite.referrals(record) {
        frontier.push(PendingUrl {
            from: record.address,
            url: url.clone(),
            depth,
        });
    }
}

/// Per-target nonce seed for referral probes — a pure function of the
/// campaign seed and the target, so record contents never depend on
/// probe order or worker count.
fn referral_seed(seed: u64, addr: Ipv4, port: u16) -> u64 {
    seed ^ u64::from(addr.0) ^ (u64::from(port) << 32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::SessionOutcome;
    use netsim::{Ipv4, VirtualClock};
    use std::sync::Arc;
    use ua_addrspace::{NodeAccess, SpaceBuilder};
    use ua_server::{ServerConfig, ServerCore, UaServerService};
    use ua_types::Variant;

    fn wide_open_internet(addrs: &[Ipv4]) -> Internet {
        let net = Internet::new(VirtualClock::starting_at(1_581_206_400));
        for (i, &addr) in addrs.iter().enumerate() {
            let url = format!("opc.tcp://{addr}:4840/");
            let mut b = SpaceBuilder::new(&["urn:test:dev"], "1.0");
            let f = b.folder(None, "Plant");
            b.variable(&f, "inflow", Variant::Double(1.5), NodeAccess::read_only());
            b.variable(
                &f,
                "setpoint",
                Variant::Float(50.0),
                NodeAccess::read_write_all(),
            );
            b.method(&f, "Flush", true);
            let core = ServerCore::new(
                ServerConfig::wide_open(format!("urn:test:dev{i}"), url),
                b.finish(),
                7 + i as u64,
            );
            net.add_host(addr, 10_000);
            net.bind(addr, 4840, Arc::new(UaServerService::new(core, 5)));
        }
        net
    }

    #[test]
    fn scan_probes_wide_open_host_end_to_end() {
        let addr = Ipv4::new(10, 0, 0, 7);
        let net = wide_open_internet(&[addr]);
        let scanner = Scanner::new(net, Blocklist::new(), ScanConfig::default());
        let universe: Cidr = "10.0.0.0/24".parse().unwrap();
        let (summary, records) = scanner.scan_collect(&[universe], 1);

        assert_eq!(summary.sweep.probes_sent, 256);
        assert_eq!(summary.opcua_hosts, 1);
        assert_eq!(records.len(), 1);
        let r = &records[0];
        assert_eq!(r.address, addr);
        assert!(r.hello_ok());
        assert_eq!(r.application_uri(), Some("urn:test:dev0"));
        assert_eq!(r.endpoints().len(), 1);
        assert!(r.advertises_anonymous());
        assert_eq!(r.session(), SessionOutcome::AnonymousActivated);
        let t = r.traversal().expect("traversal ran");
        assert!(t.nodes > 3);
        assert_eq!(t.writable, 1);
        assert_eq!(t.executable, 1);
        assert!(r.requests > 3);
        assert!(r.tx_bytes > 0);
    }

    #[test]
    fn non_opcua_listener_counted_but_not_recorded_as_opcua() {
        struct Junk;
        struct JunkConn;
        impl netsim::Connection for JunkConn {
            fn on_data(&mut self, _d: &[u8]) -> netsim::ConnectionOutput {
                netsim::ConnectionOutput::close_with(b"HTTP/1.1 400\r\n\r\n".to_vec())
            }
        }
        impl netsim::Service for Junk {
            fn open_connection(&self, _peer: Ipv4) -> Box<dyn netsim::Connection> {
                Box::new(JunkConn)
            }
        }
        let net = Internet::new(VirtualClock::starting_at(0));
        let addr = Ipv4::new(10, 3, 0, 1);
        net.add_host(addr, 1000);
        net.bind(addr, 4840, Arc::new(Junk));
        let scanner = Scanner::new(net, Blocklist::new(), ScanConfig::default());
        let universe: Cidr = "10.3.0.0/28".parse().unwrap();
        let (summary, records) = scanner.scan_collect(&[universe], 2);
        assert_eq!(summary.sweep.responsive, 1);
        assert_eq!(summary.opcua_hosts, 0);
        assert_eq!(summary.non_opcua_hosts, 1);
        assert_eq!(records.len(), 1);
        assert!(!records[0].hello_ok());
    }

    /// Binds an OPC UA server (optionally an LDS with referrals) at
    /// `(addr, port)` on `net`.
    fn bind_server(net: &Internet, addr: Ipv4, port: u16, lds: bool, refs: &[&str], salt: u64) {
        let url = format!("opc.tcp://{addr}:{port}/");
        let mut b = SpaceBuilder::new(&["urn:test:ref"], "1.0");
        let f = b.folder(None, "Plant");
        b.variable(&f, "level", Variant::Double(1.0), NodeAccess::read_only());
        let mut config = ServerConfig::wide_open(format!("urn:test:ref:{addr}:{port}"), url);
        config.is_discovery_server = lds;
        config.referenced_endpoints = refs.iter().map(|s| s.to_string()).collect();
        let core = ServerCore::new(config, b.finish(), salt);
        if !net.host_exists(addr) {
            net.add_host(addr, 10_000);
        }
        net.bind(addr, port, Arc::new(UaServerService::new(core, salt ^ 0xF)));
    }

    fn referral_scan(
        net: Internet,
        blocklist: Blocklist,
        config: ScanConfig,
    ) -> (ScanSummary, Vec<ScanRecord>) {
        let scanner = Scanner::new(net, blocklist, config);
        let universe: Cidr = "10.50.0.0/24".parse().unwrap();
        scanner.scan_collect(&[universe], 11)
    }

    #[test]
    fn hidden_host_reached_only_via_referral_with_provenance() {
        let net = Internet::new(VirtualClock::starting_at(1_581_206_400));
        let lds = Ipv4::new(10, 50, 0, 1);
        let hidden = Ipv4::new(10, 50, 0, 2);
        bind_server(&net, hidden, 4848, false, &[], 7);
        bind_server(&net, lds, 4840, true, &["opc.tcp://10.50.0.2:4848/"], 8);

        let (summary, records) = referral_scan(net, Blocklist::new(), ScanConfig::default());
        assert_eq!(summary.opcua_hosts, 2);
        assert_eq!(summary.referrals.followed, 1);
        assert_eq!(summary.referrals.opcua_hosts, 1);
        assert_eq!(summary.referrals.max_depth, 1);
        assert_eq!(records.len(), 2);
        // Sweep record first, referral record after.
        assert_eq!(records[0].address, lds);
        assert_eq!(records[0].via, DiscoveredVia::Sweep);
        let r = &records[1];
        assert_eq!(r.address, hidden);
        assert_eq!(r.port, 4848);
        assert_eq!(
            r.via,
            DiscoveredVia::Referral {
                from: lds,
                depth: 1
            }
        );
        assert!(r.hello_ok());
        assert!(!r.endpoints().is_empty());
    }

    #[test]
    fn dead_and_unfollowable_referrals_accounted_not_recorded() {
        let net = Internet::new(VirtualClock::starting_at(0));
        let lds = Ipv4::new(10, 50, 0, 1);
        bind_server(
            &net,
            lds,
            4840,
            true,
            &[
                "opc.tcp://10.50.0.99:4855/",   // nothing listens there
                "opc.tcp://plc.internal:4840/", // unresolvable name
                "http://10.50.0.3:4840/",       // wrong scheme
            ],
            3,
        );
        let (summary, records) = referral_scan(net, Blocklist::new(), ScanConfig::default());
        assert_eq!(records.len(), 1, "dead referrals must not produce records");
        assert_eq!(summary.referrals.urls_announced, 3);
        assert_eq!(summary.referrals.followed, 1);
        assert_eq!(summary.referrals.dead, 1);
        assert_eq!(summary.referrals.unfollowable, 2);
        assert_eq!(summary.referrals.opcua_hosts, 0);
    }

    #[test]
    fn referral_loops_terminate_with_each_target_probed_once() {
        let net = Internet::new(VirtualClock::starting_at(0));
        let a = Ipv4::new(10, 50, 0, 1);
        let b = Ipv4::new(10, 50, 0, 2);
        // A (swept) → B (non-default port) → A, plus B → B variants.
        bind_server(&net, a, 4840, true, &["opc.tcp://10.50.0.2:4850/"], 1);
        bind_server(
            &net,
            b,
            4850,
            true,
            &[
                "opc.tcp://10.50.0.1:4840/", // back to A: swept already
                "OPC.TCP://10.50.0.2:4850",  // itself, non-canonical
            ],
            2,
        );
        let (summary, records) = referral_scan(net, Blocklist::new(), ScanConfig::default());
        assert_eq!(records.len(), 2);
        assert_eq!(summary.referrals.followed, 1, "B probed exactly once");
        // B's self-URL never even reaches the queue (filtered by the
        // probe's normalization); the loop-back to A dedups as swept.
        assert_eq!(summary.referrals.already_probed, 1);
        assert_eq!(summary.referrals.urls_announced, 2);
    }

    #[test]
    fn chains_respect_depth_limit() {
        let net = Internet::new(VirtualClock::starting_at(0));
        let a = Ipv4::new(10, 50, 0, 1);
        let b = Ipv4::new(10, 50, 0, 2);
        let c = Ipv4::new(10, 50, 0, 3);
        // A (swept) → B:4851 → C:4852.
        bind_server(&net, a, 4840, true, &["opc.tcp://10.50.0.2:4851/"], 1);
        bind_server(&net, b, 4851, true, &["opc.tcp://10.50.0.3:4852/"], 2);
        bind_server(&net, c, 4852, false, &[], 3);

        let deep = ScanConfig::default();
        let (summary, records) = referral_scan(net.clone(), Blocklist::new(), deep);
        assert_eq!(records.len(), 3);
        assert_eq!(summary.referrals.max_depth, 2);
        assert_eq!(
            records[2].via,
            DiscoveredVia::Referral { from: b, depth: 2 }
        );

        let shallow = ScanConfig {
            referral_depth: 1,
            ..ScanConfig::default()
        };
        let (summary, records) = referral_scan(net, Blocklist::new(), shallow);
        assert_eq!(records.len(), 2, "depth-2 target must not be probed");
        assert_eq!(summary.referrals.truncated, 1);
        assert_eq!(summary.referrals.max_depth, 1);
    }

    #[test]
    fn referral_budget_truncates() {
        let net = Internet::new(VirtualClock::starting_at(0));
        let lds = Ipv4::new(10, 50, 0, 1);
        let refs: Vec<String> = (0..4)
            .map(|i| format!("opc.tcp://10.50.0.{}:4860/", 10 + i))
            .collect();
        let ref_strs: Vec<&str> = refs.iter().map(String::as_str).collect();
        bind_server(&net, lds, 4840, true, &ref_strs, 1);
        for i in 0..4u8 {
            bind_server(
                &net,
                Ipv4::new(10, 50, 0, 10 + i),
                4860,
                false,
                &[],
                5 + i as u64,
            );
        }
        let config = ScanConfig {
            referral_budget: 2,
            ..ScanConfig::default()
        };
        let (summary, records) = referral_scan(net, Blocklist::new(), config);
        assert_eq!(summary.referrals.followed, 2);
        assert_eq!(summary.referrals.truncated, 2);
        assert_eq!(records.len(), 3); // LDS + 2 within budget
    }

    #[test]
    fn blocklisted_referral_targets_never_probed() {
        let net = Internet::new(VirtualClock::starting_at(0));
        let lds = Ipv4::new(10, 50, 0, 1);
        let victim = Ipv4::new(10, 50, 1, 7); // outside the swept /24
        bind_server(&net, lds, 4840, true, &["opc.tcp://10.50.1.7:4840/"], 1);
        bind_server(&net, victim, 4840, false, &[], 2);

        let mut blocklist = Blocklist::new();
        blocklist.add_str("10.50.1.0/24").unwrap();
        let (summary, records) = referral_scan(net, blocklist, ScanConfig::default());
        assert_eq!(records.len(), 1, "opted-out host probed via referral");
        assert_eq!(summary.referrals.blocklisted, 1);
        assert_eq!(summary.referrals.followed, 0);
    }

    #[test]
    fn referral_to_unswept_address_on_default_port_is_followed() {
        // A referral can escape the configured universe: an address
        // outside every swept block is fresh even on the sweep port.
        let net = Internet::new(VirtualClock::starting_at(0));
        let lds = Ipv4::new(10, 50, 0, 1);
        let outside = Ipv4::new(192, 168, 9, 9);
        bind_server(&net, lds, 4840, true, &["opc.tcp://192.168.9.9:4840/"], 1);
        bind_server(&net, outside, 4840, false, &[], 2);
        let (summary, records) = referral_scan(net, Blocklist::new(), ScanConfig::default());
        assert_eq!(summary.referrals.followed, 1);
        assert_eq!(records.len(), 2);
        assert_eq!(records[1].address, outside);
    }

    #[test]
    fn referral_disposition_buckets_partition_announcements() {
        // urls_announced = unfollowable + already_probed + blocklisted
        //                + truncated + followed, on a messy world.
        let net = Internet::new(VirtualClock::starting_at(0));
        let lds = Ipv4::new(10, 50, 0, 1);
        bind_server(
            &net,
            lds,
            4840,
            true,
            &[
                "opc.tcp://10.50.0.2:4848/",
                "opc.tcp://10.50.0.1:4840/x", // own target, path variant → filtered pre-record
                "opc.tcp://10.50.0.3:4840/",  // swept (dedup)
                "bogus",
            ],
            1,
        );
        bind_server(&net, Ipv4::new(10, 50, 0, 2), 4848, false, &[], 2);
        bind_server(&net, Ipv4::new(10, 50, 0, 3), 4840, false, &[], 3);
        let (summary, _) = referral_scan(net, Blocklist::new(), ScanConfig::default());
        let r = summary.referrals;
        assert_eq!(
            r.urls_announced,
            r.unfollowable + r.already_probed + r.blocklisted + r.truncated + r.followed
        );
        assert_eq!(r.followed, r.dead + r.opcua_hosts + r.non_opcua_hosts);
        assert_eq!(r.followed, 1);
        assert_eq!(r.already_probed, 1);
        assert_eq!(r.unfollowable, 1);
    }

    #[test]
    fn blocklisted_hosts_never_probed() {
        let addr = Ipv4::new(10, 4, 0, 50);
        let net = wide_open_internet(&[addr]);
        let mut blocklist = Blocklist::new();
        blocklist.add_str("10.4.0.0/24").unwrap();
        let scanner = Scanner::new(net, blocklist, ScanConfig::default());
        let universe: Cidr = "10.4.0.0/24".parse().unwrap();
        let (summary, records) = scanner.scan_collect(&[universe], 3);
        assert_eq!(summary.sweep.blocklisted, 256);
        assert_eq!(summary.sweep.probes_sent, 0);
        assert!(records.is_empty());
    }
}
