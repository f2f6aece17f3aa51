//! Probe-stack latency, stage by stage.
//!
//! Probes every deployed host once with the suite the scan configuration
//! assigns to its port (OPC UA for ports no suite is registered on, as
//! referral targets are), timing each stage of the suite's ladder
//! through `ProbeContext::for_target` + `Probe::run`, and reports
//! wall-clock per-stage latency plus the whole ladder.
//!
//! ```sh
//! BENCH_HOSTS=200 cargo bench --bench protocol
//! ```
//!
//! Emits `BENCH_protocol.json`.

use std::collections::BTreeMap;
use std::sync::Arc;

use bench::{time, write_bench_json, BenchConfig, Json, Stats};
use scanner::{CertStore, DiscoveredVia, OpcUaSuite, ProbeContext, ProbeOutcome, ScanRecord};

fn main() {
    let cfg = BenchConfig::from_env();
    let (net, population) = cfg.build_world();
    // Probe every host on its *ground-truth* port: referral-only strata
    // listen on non-default ports and would otherwise be timed as dead
    // connects and silently dropped from the stats.
    let mut targets: Vec<(netsim::Ipv4, u16)> = population
        .hosts
        .iter()
        .map(|h| (h.address, h.port))
        .collect();
    targets.sort();
    println!(
        "protocol bench: {} hosts ({} strata population)",
        targets.len(),
        population.len()
    );
    let scanner = cfg.scanner(net, 1);
    let config = scanner.config();
    let certs = CertStore::new();

    // Samples per stage name, in ladder order of first appearance.
    let mut stage_order: Vec<&'static str> = Vec::new();
    let mut stage_us: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut full_us = Vec::with_capacity(targets.len());
    let (total_seconds, ()) = time(|| {
        for &(addr, port) in &targets {
            let suite = config
                .suites
                .suite_for(port)
                .cloned()
                .unwrap_or_else(|| Arc::new(OpcUaSuite::new()));
            let seed = cfg.seed ^ u64::from(addr.0);
            let mut ctx =
                ProbeContext::for_target(scanner.internet(), config, &certs, addr, port, seed);
            ctx.suite = Arc::clone(&suite);
            let mut record = ScanRecord::for_target(addr, port, DiscoveredVia::Sweep, 0, 0);
            record.payload = suite.payload();
            let mut samples = Vec::new();
            for mut stage in suite.stack() {
                let (seconds, outcome) = time(|| stage.run(&mut ctx, &mut record));
                samples.push((stage.name(), seconds * 1e6));
                if outcome == ProbeOutcome::Stop {
                    break;
                }
            }
            if !record.speaks() {
                continue;
            }
            full_us.push(samples.iter().map(|&(_, us)| us).sum());
            for (name, us) in samples {
                if !stage_order.contains(&name) {
                    stage_order.push(name);
                }
                stage_us.entry(name).or_default().push(us);
            }
        }
    });

    let mut out = Json::obj()
        .set("bench", Json::str("protocol"))
        .set("hosts_probed", Json::int(full_us.len() as i64))
        .set("seconds", Json::Num(total_seconds))
        .set(
            "hosts_per_second",
            Json::Num(full_us.len() as f64 / total_seconds),
        );
    stage_order.push("full_stack");
    stage_us.insert("full_stack", full_us);
    for stage in stage_order {
        let s = Stats::of(&stage_us[stage]);
        println!(
            "  {stage:<13} mean {:>8.1} µs  p50 {:>8.1} µs  p99 {:>8.1} µs  (n={})",
            s.mean, s.p50, s.p99, s.n
        );
        out = out.set(&format!("{stage}_micros"), s.to_json());
    }
    let path = write_bench_json("protocol", &out);
    println!("wrote {}", path.display());
}
