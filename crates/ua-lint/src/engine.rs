//! Workspace walking, rule scoping, suppression application, and
//! diagnostic rendering.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::lexer;
use crate::manifest;
use crate::rules::{self, Finding, Rule};
use crate::suppress::{self, Suppressions};

/// Crates whose iteration order reaches `ScanRecord` streams,
/// summaries, or reports — the `unordered-iteration` rule's scope.
const OUTPUT_PRODUCING: [&str; 3] = ["scanner", "assessment", "population"];

/// The vendored RNG shim defines the seeded API everything else uses.
const RAND_CRATE: &str = "rand";

/// What part of a crate a file belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    Lib,
    Test,
    Example,
}

/// Where a file sits in the workspace, for rule scoping.
#[derive(Debug, Clone)]
pub struct FileCtx {
    pub crate_name: String,
    pub kind: FileKind,
}

/// Classify a repo-relative path (forward slashes).
pub fn classify(rel: &str) -> FileCtx {
    let parts: Vec<&str> = rel.split('/').collect();
    let crate_name = match parts.as_slice() {
        ["crates", name, ..] => (*name).to_string(),
        _ => "opcua-study".to_string(),
    };
    let kind = if parts.contains(&"tests") {
        FileKind::Test
    } else if parts.contains(&"examples") {
        FileKind::Example
    } else {
        FileKind::Lib
    };
    FileCtx { crate_name, kind }
}

/// Which rules run on a given file. Scoping is part of each rule's
/// contract — see `Rule::summary` and the "Invariants & lints" section
/// of examples/README.md.
pub fn applicable_rules(ctx: &FileCtx) -> Vec<Rule> {
    let mut rules = Vec::new();
    // Determinism rules apply to tests and examples too: a test that
    // sleeps or reads entropy flakes just as hard as a library that
    // does.
    rules.push(Rule::WallClock);
    if ctx.crate_name != RAND_CRATE {
        rules.push(Rule::AmbientRandomness);
    }
    // Exhaustiveness over the payload enum matters wherever records are
    // consumed — library, test, and example code alike.
    rules.push(Rule::PayloadExhaustive);
    if ctx.kind == FileKind::Lib {
        if OUTPUT_PRODUCING.contains(&ctx.crate_name.as_str()) {
            rules.push(Rule::UnorderedIteration);
        }
        rules.push(Rule::PanicHygiene);
        rules.push(Rule::NestedLock);
    }
    rules
}

/// A finding that survived suppression, located in the workspace.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    pub rule: Rule,
    pub file: String,
    pub line: u32,
    pub message: String,
}

/// The result of a full workspace check.
#[derive(Debug, Default)]
pub struct Report {
    pub diagnostics: Vec<Diagnostic>,
    pub files_scanned: usize,
    pub suppressed: usize,
}

impl Report {
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Human-readable rendering, one block per diagnostic.
    pub fn render_human(&self) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&format!(
                "{}:{}: [{}] {}\n    hint: {}\n",
                d.file,
                d.line,
                d.rule.id(),
                d.message,
                d.rule.hint()
            ));
        }
        out.push_str(&format!(
            "ua-lint: {} finding(s), {} suppressed, {} files scanned\n",
            self.diagnostics.len(),
            self.suppressed,
            self.files_scanned
        ));
        out
    }

    /// Machine-readable rendering (the `--json` flag and the CI
    /// artifact). Hand-rolled — ua-lint has no dependencies to ensure
    /// the hermeticity rule can never be compromised by its enforcer.
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str("  \"version\": 1,\n");
        out.push_str(&format!("  \"files_scanned\": {},\n", self.files_scanned));
        out.push_str(&format!("  \"suppressed\": {},\n", self.suppressed));
        out.push_str("  \"findings\": [");
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"rule\": {}, \"file\": {}, \"line\": {}, \"message\": {}, \"hint\": {}}}",
                json_str(d.rule.id()),
                json_str(&d.file),
                d.line,
                json_str(&d.message),
                json_str(d.rule.hint())
            ));
        }
        if !self.diagnostics.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("]\n}\n");
        out
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Lint one Rust source file: run the applicable rules, then apply
/// suppression directives. Returns surviving findings plus the count
/// of suppressed ones.
pub fn lint_rust_source(src: &str, ctx: &FileCtx) -> (Vec<Finding>, usize) {
    let lexed = lexer::lex(src);
    let regions = rules::test_regions(&lexed.tokens);
    let mut findings = Vec::new();
    for rule in applicable_rules(ctx) {
        match rule {
            Rule::WallClock => findings.extend(rules::wall_clock(&lexed)),
            Rule::AmbientRandomness => findings.extend(rules::ambient_randomness(&lexed)),
            Rule::UnorderedIteration => {
                findings.extend(rules::unordered_iteration(&lexed, &regions))
            }
            Rule::PanicHygiene => findings.extend(rules::panic_hygiene(&lexed, &regions)),
            Rule::NestedLock => findings.extend(rules::nested_lock(&lexed, &regions)),
            Rule::PayloadExhaustive => findings.extend(rules::payload_exhaustive(&lexed)),
            Rule::Hermeticity | Rule::BadSuppression => {}
        }
    }
    let sups = suppress::from_comments(&lexed.comments);
    apply_suppressions(findings, sups)
}

/// Lint one manifest file.
pub fn lint_manifest_source(src: &str) -> (Vec<Finding>, usize) {
    let (findings, sups) = manifest::lint_manifest(src);
    apply_suppressions(findings, sups)
}

fn apply_suppressions(findings: Vec<Finding>, sups: Suppressions) -> (Vec<Finding>, usize) {
    let before = findings.len();
    let mut kept: Vec<Finding> = findings
        .into_iter()
        .filter(|f| !sups.directives.iter().any(|s| s.covers(f.rule, f.line)))
        .collect();
    let suppressed = before - kept.len();
    kept.extend(sups.bad);
    (kept, suppressed)
}

/// Walk the workspace at `root` and lint every `.rs` and `Cargo.toml`.
/// `target/`, `.git/`, and any `fixtures/` directory (ua-lint's own
/// seeded-violation corpus) are skipped.
pub fn check_workspace(root: &Path) -> io::Result<Report> {
    let mut files = Vec::new();
    walk(root, &mut files)?;
    files.sort();

    let mut report = Report::default();
    for path in files {
        let rel = relative(root, &path);
        let src = fs::read_to_string(&path)?;
        let (findings, suppressed) = if rel.ends_with("Cargo.toml") {
            lint_manifest_source(&src)
        } else {
            lint_rust_source(&src, &classify(&rel))
        };
        report.files_scanned += 1;
        report.suppressed += suppressed;
        for f in findings {
            report.diagnostics.push(Diagnostic {
                rule: f.rule,
                file: rel.clone(),
                line: f.line,
                message: f.message,
            });
        }
    }
    report
        .diagnostics
        .sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    Ok(report)
}

const SKIP_DIRS: [&str; 5] = ["target", ".git", ".github", "fixtures", "node_modules"];

fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if entry.file_type()?.is_dir() {
            if !SKIP_DIRS.contains(&name.as_ref()) {
                walk(&path, out)?;
            }
        } else if name.ends_with(".rs") || name == "Cargo.toml" {
            out.push(path);
        }
    }
    Ok(())
}

fn relative(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_paths() {
        let ctx = classify("crates/scanner/src/pipeline.rs");
        assert_eq!(ctx.crate_name, "scanner");
        assert_eq!(ctx.kind, FileKind::Lib);
        assert_eq!(
            classify("crates/scanner/tests/sharding.rs").kind,
            FileKind::Test
        );
        assert_eq!(classify("examples/quickstart.rs").kind, FileKind::Example);
        assert_eq!(classify("src/lib.rs").crate_name, "opcua-study");
        assert_eq!(classify("perfbench/src/trace.rs").kind, FileKind::Lib);
    }

    #[test]
    fn scoping_matrix() {
        let scanner_lib = classify("crates/scanner/src/lib.rs");
        let r = applicable_rules(&scanner_lib);
        assert!(r.contains(&Rule::UnorderedIteration));
        assert!(r.contains(&Rule::PanicHygiene));
        assert!(r.contains(&Rule::WallClock));

        // The benchmark gets no exemption: its one wall-clock read
        // carries a per-site waiver like any other.
        let perfbench = classify("perfbench/src/trace.rs");
        let r = applicable_rules(&perfbench);
        assert!(r.contains(&Rule::WallClock));
        assert!(r.contains(&Rule::PanicHygiene));

        let test_file = classify("crates/netsim/tests/foo.rs");
        let r = applicable_rules(&test_file);
        assert!(r.contains(&Rule::WallClock));
        assert!(!r.contains(&Rule::PanicHygiene));

        let crypto_lib = classify("crates/ua-crypto/src/bigint.rs");
        assert!(!applicable_rules(&crypto_lib).contains(&Rule::UnorderedIteration));
    }

    #[test]
    fn suppression_filters_and_bad_directives_surface() {
        let ctx = classify("crates/netsim/src/internet.rs");
        let src = "\
fn f() {
    // ua-lint: allow(panic-hygiene) -- lock poisoning is fatal by design
    x.lock().unwrap();
    y.unwrap();
}
// ua-lint: allow(panic-hygiene)
";
        let (findings, suppressed) = lint_rust_source(src, &ctx);
        assert_eq!(suppressed, 1);
        let ids: Vec<&str> = findings.iter().map(|f| f.rule.id()).collect();
        assert!(ids.contains(&"panic-hygiene")); // the unsuppressed y.unwrap()
        assert!(ids.contains(&"bad-suppression")); // missing why
        assert_eq!(findings.len(), 2);
    }

    #[test]
    fn json_escaping() {
        assert_eq!(json_str("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
    }
}
