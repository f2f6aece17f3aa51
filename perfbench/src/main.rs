//! Campaign benchmark for the OPC UA measurement pipeline.
//!
//! ```sh
//! perfbench --workload snapshot --seed 1 --seconds 20 --trace 0
//! ```
//!
//! With `--trace 0` the workload's campaign is set up and run again and
//! again for `--seconds`, single-threaded and untraced, and the medians
//! of the end-to-end metrics are reported. With `--trace 1` one traced
//! campaign plus single-layer replays report the per-layer metrics.
//! Every campaign's output is checked against the planted truth, and the
//! last line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! The process exits with 1 when a check fails and 2 on bad arguments.

mod layers;
mod trace;
mod workload;

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Duration;

use trace::Trace;
use workload::{Run, Workload, WORKLOADS};

#[global_allocator]
static GLOBAL: trace::CountingAlloc = trace::CountingAlloc;

/// Where traces and cross-run digests go, relative to the checkout.
const ARTIFACT_DIR: &str = ".bench_out";

/// At least this many timed campaigns per untraced run (after the checked
/// warm-up), however long they take.
const MIN_REPS: usize = 3;

/// Cheap set-ups (the lazy worlds take milliseconds) are repeated within
/// each repetition until this much time went into them, so every world of
/// the panel is sampled many times over the run.
const SETUP_SAMPLE_BUDGET: Duration = Duration::from_millis(250);
const MAX_SETUPS_PER_REP: usize = 20;

/// The extra set-ups cycle through this many worlds derived from the
/// run's seed. Set-up cost depends on the seed (the shared keys' prime
/// search), so a panel of worlds keeps one seed's luck out of `setup_s`.
const SETUP_PANEL: u64 = 16;

fn panel_seed(seed: u64, k: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (k + 1).wrapping_mul(0xD1B5_4A32_D192_ED03)
}

/// Metrics in the order they were measured.
#[derive(Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.0.push((name.to_string(), value, unit));
    }
}

/// Correctness bookkeeping across every campaign of one process.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub correct: bool,
    /// (report digest, record digest, virtual seconds) of the first run.
    first: Option<(String, String, f64)>,
}

impl Outcome {
    fn new() -> Self {
        Outcome {
            attempted: 0,
            failed: 0,
            correct: true,
            first: None,
        }
    }

    fn fail(&mut self, why: &str) {
        eprintln!("perfbench: check failed: {why}");
        self.correct = false;
    }

    /// Folds one campaign in: its truth checks, and the requirement that
    /// every campaign of the process renders the same report from the
    /// same records in the same virtual time.
    pub fn observe(&mut self, run: &Run) {
        self.checked(run.attempted, run.failed);
        let this = (
            workload::digest_text(&run.rendered),
            run.records_digest.clone(),
            run.virtual_s(),
        );
        match &self.first {
            None => self.first = Some(this),
            Some(first) if *first != this => self.fail(&format!(
                "campaign output changed between repetitions: {first:?} then {this:?}"
            )),
            Some(_) => {}
        }
    }

    /// Counts planted hosts checked against the truth, and the failures.
    pub fn checked(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
        if failed > 0 {
            self.fail(&format!(
                "{failed} of {attempted} planted hosts recorded wrongly"
            ));
        }
    }

    pub fn write_artifact(&mut self, name: &str, contents: &str) {
        let path = Path::new(ARTIFACT_DIR).join(name);
        let written =
            std::fs::create_dir_all(ARTIFACT_DIR).and_then(|()| std::fs::write(&path, contents));
        if let Err(err) = written {
            self.fail(&format!("cannot write {}: {err}", path.display()));
        }
    }

    /// The report digest must also match every earlier run of this
    /// workload and seed in this checkout.
    fn check_across_runs(&mut self, w: &Workload, seed: u64) {
        let Some((report, records, _)) = self.first.clone() else {
            return self.fail("no campaign ran");
        };
        let digest = format!("{report} {records}\n");
        let name = format!("digest-{}-{seed}.txt", w.name);
        match std::fs::read_to_string(Path::new(ARTIFACT_DIR).join(&name)) {
            Ok(earlier) if earlier != digest => self.fail(&format!(
                "report differs from an earlier run: {} vs {}",
                earlier.trim(),
                digest.trim()
            )),
            Ok(_) => {}
            Err(_) => self.write_artifact(&name, &digest),
        }
        eprintln!(
            "perfbench: {} seed {seed}: report {report}, records {records}",
            w.name
        );
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::by_name(&value).ok_or_else(|| {
                    let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {value:?}; expected one of {names:?}")
                })?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .ok_or(format!("bad seconds {value:?}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value:?}; expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The untraced run: set up and run the campaign until `seconds` are
/// used, and report medians.
fn untraced(w: &Workload, seed: u64, seconds: f64, outcome: &mut Outcome) -> Metrics {
    let begin = trace::now();
    let mut off = Trace::off(w.name);
    // Set-up samples per world seed: the run's own world and the panel's.
    let mut setups: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
    let mut campaign_s = Vec::new();
    let mut virtual_s = Vec::new();
    let mut panel = (0..SETUP_PANEL).cycle();
    let mut reps = 0;
    loop {
        let start = trace::now();
        let setup = w.setup(seed, 1, &mut off);
        let rep_setup = start.elapsed();
        setups
            .entry(seed)
            .or_default()
            .push(rep_setup.as_secs_f64());
        // The first repetition is checked against the planted truth and
        // warms the allocator and caches; its campaign time is not used.
        let run = w.run(setup, seed, reps == 0, &mut off);
        if reps > 0 {
            campaign_s.push(run.wall_s);
        }
        reps += 1;
        virtual_s.push(run.virtual_s());
        outcome.observe(&run);
        drop(run);

        let mut spent = rep_setup;
        let mut extra = 0;
        while spent < SETUP_SAMPLE_BUDGET && extra < MAX_SETUPS_PER_REP {
            let world_seed = panel_seed(seed, panel.next().unwrap_or(0));
            let start = trace::now();
            let setup = w.setup(world_seed, 1, &mut off);
            let took = start.elapsed();
            drop(setup);
            setups
                .entry(world_seed)
                .or_default()
                .push(took.as_secs_f64());
            spent += took;
            extra += 1;
        }

        let elapsed = begin.elapsed().as_secs_f64();
        let per_rep = elapsed / reps as f64;
        if campaign_s.len() >= MIN_REPS && elapsed + per_rep > seconds {
            break;
        }
    }
    // Each world's fastest set-up: set-ups take milliseconds and are
    // sampled all through the run, so the minimum drops the machine's
    // slow spells; the median over worlds drops one seed's luck.
    let mut setup_s: Vec<f64> = setups
        .values()
        .map(|v| v.iter().copied().fold(f64::INFINITY, f64::min))
        .collect();
    eprintln!(
        "perfbench: {} seed {seed}: campaign_s {:?}; setup_s {:?}",
        w.name, campaign_s, setup_s
    );
    let mut m = Metrics::default();
    m.put("setup_s", median(&mut setup_s), "s");
    m.put("campaign_s", median(&mut campaign_s), "s");
    m.put("virtual_campaign_s", median(&mut virtual_s), "virtual_s");
    m.put("peak_rss_mib", peak_rss_mib(), "MiB");
    let share = 1.0 - outcome.failed as f64 / outcome.attempted.max(1) as f64;
    m.put("correct_share", share, "ratio");
    m
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(err) => {
            eprintln!(
                "perfbench: {err}\nusage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let w = args.workload;
    let mut outcome = Outcome::new();
    let metrics = if args.trace {
        layers::traced(&w, args.seed, &mut outcome)
    } else {
        untraced(&w, args.seed, args.seconds, &mut outcome)
    };
    outcome.check_across_runs(&w, args.seed);

    let body: Vec<String> = metrics
        .0
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        body.join(", ")
    );
    if !outcome.correct {
        std::process::exit(1);
    }
}
