//! # ua-lint — the workspace's determinism/hermeticity lint engine
//!
//! Every result this reproduction reports rests on one invariant: the
//! whole pipeline is a pure function of the campaign seed. The CI
//! output diffs enforce that *dynamically*; this crate enforces it
//! *statically*, so a stray `Instant::now()` or an unordered map in an
//! output path is caught at lint time, not whenever a diff happens to
//! disagree.
//!
//! The crate has **zero dependencies** — no `syn`, no `toml`, no
//! registry access. A hand-rolled, comment/string/raw-string-aware
//! lexer ([`lexer`]) feeds a token-stream matcher ([`rules`]); a
//! line-oriented manifest scanner ([`manifest`]) covers Cargo.toml.
//!
//! ## Rules
//!
//! | id | protects |
//! |----|----------|
//! | `wall-clock` | everything runs on `VirtualClock`; no `SystemTime`, `Instant::now`, `thread::sleep` |
//! | `ambient-randomness` | all randomness derives from the campaign seed; no `from_entropy`, `thread_rng`, `OsRng`, `getrandom` |
//! | `unordered-iteration` | no `HashMap`/`HashSet` in the output-producing crates (`scanner`, `assessment`, `population`) |
//! | `panic-hygiene` | no unjustified `unwrap`/`expect("…")`/`panic!` in non-test library code |
//! | `nested-lock` | no two `.lock()` calls in one function body |
//! | `hermeticity` | every Cargo.toml dependency is `path`/`workspace`; no registry or git deps |
//!
//! ## Suppression
//!
//! Waivers are per-site and must carry a justification. On the finding
//! line or the line above, write a comment that leads with the marker,
//! like `ua-lint: allow(panic-hygiene) -- poisoning is unreachable`
//! (in manifests, the same after `#`). A waiver missing its `-- <why>`
//! or naming an unknown rule is itself reported (`bad-suppression`).
//!
//! ## Usage
//!
//! ```text
//! cargo run -p ua-lint -- check            # human diagnostics, exit 1 on findings
//! cargo run -p ua-lint -- check --json     # machine-readable report (the CI artifact)
//! cargo run -p ua-lint -- rules            # rule table with rationale
//! ```

pub mod engine;
pub mod lexer;
pub mod manifest;
pub mod rules;
pub mod suppress;

pub use engine::{
    applicable_rules, check_workspace, classify, lint_manifest_source, lint_rust_source,
    Diagnostic, FileCtx, FileKind, Report,
};
pub use rules::{Finding, Rule};
