//! The rule set: each rule is a pure function from a token stream to
//! findings. All of them encode an invariant this workspace actually
//! relies on — see `examples/README.md` ("Invariants & lints") for the
//! full rationale per rule.

use crate::lexer::{Lexed, Tok, TokKind};

/// Stable rule identifiers. These appear in diagnostics, in `--json`
/// output, and inside suppression comments, so they are part of the
/// tool's interface and must not be renamed casually.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    WallClock,
    AmbientRandomness,
    UnorderedIteration,
    PanicHygiene,
    NestedLock,
    Hermeticity,
    PayloadExhaustive,
    /// Fired when a suppression comment itself is malformed: unknown
    /// rule id or missing the `-- <why>` justification. Cannot be
    /// suppressed.
    BadSuppression,
}

impl Rule {
    pub const ALL: [Rule; 8] = [
        Rule::WallClock,
        Rule::AmbientRandomness,
        Rule::UnorderedIteration,
        Rule::PanicHygiene,
        Rule::NestedLock,
        Rule::Hermeticity,
        Rule::PayloadExhaustive,
        Rule::BadSuppression,
    ];

    pub fn id(self) -> &'static str {
        match self {
            Rule::WallClock => "wall-clock",
            Rule::AmbientRandomness => "ambient-randomness",
            Rule::UnorderedIteration => "unordered-iteration",
            Rule::PanicHygiene => "panic-hygiene",
            Rule::NestedLock => "nested-lock",
            Rule::Hermeticity => "hermeticity",
            Rule::PayloadExhaustive => "payload-exhaustive",
            Rule::BadSuppression => "bad-suppression",
        }
    }

    pub fn from_id(id: &str) -> Option<Rule> {
        Rule::ALL.into_iter().find(|r| r.id() == id)
    }

    /// One-line statement of what the rule protects.
    pub fn summary(self) -> &'static str {
        match self {
            Rule::WallClock => {
                "wall-clock time (SystemTime, Instant::now, thread::sleep); every component \
                 must run on VirtualClock so campaigns replay byte-identically"
            }
            Rule::AmbientRandomness => {
                "entropy-seeded randomness (from_entropy, thread_rng, OsRng, getrandom); all \
                 randomness must derive from the campaign seed via the vendored crates/rand shim"
            }
            Rule::UnorderedIteration => {
                "HashMap/HashSet in output-producing crates (scanner, assessment, population); \
                 their iteration order is nondeterministic and a byte-identity hazard — use \
                 BTreeMap/BTreeSet or prove the order never reaches output"
            }
            Rule::PanicHygiene => {
                "unwrap/expect/panic! in non-test library code; real fallibility wants a typed \
                 error, true invariants want a written justification"
            }
            Rule::NestedLock => {
                "two .lock() calls in one function body; lock-order inversion deadlocks \
                 netsim::Internet under multi-worker scans"
            }
            Rule::Hermeticity => {
                "non-path, non-workspace entries in any Cargo.toml dependency table; builds run \
                 hermetically with no registry access"
            }
            Rule::PayloadExhaustive => {
                "`_` arms in matches over ProtocolPayload; a wildcard silently swallows the \
                 records of any protocol suite added later, so consumers undercount instead of \
                 failing to compile"
            }
            Rule::BadSuppression => {
                "suppression comments that name an unknown rule or omit the `-- <why>` \
                 justification"
            }
        }
    }

    /// Fix hint appended to every diagnostic of this rule.
    pub fn hint(self) -> &'static str {
        match self {
            Rule::WallClock => {
                "thread the campaign's VirtualClock through instead; if this site is genuinely \
                 outside the deterministic pipeline, annotate: \
                 // ua-lint: allow(wall-clock) -- <why>"
            }
            Rule::AmbientRandomness => {
                "derive a stream from the campaign seed (SeedableRng::seed_from_u64 or an \
                 rng.fork()); if entropy is truly required, annotate: \
                 // ua-lint: allow(ambient-randomness) -- <why>"
            }
            Rule::UnorderedIteration => {
                "switch to BTreeMap/BTreeSet or sort before iterating; if the order provably \
                 never reaches records, summaries, or reports, annotate: \
                 // ua-lint: allow(unordered-iteration) -- <why>"
            }
            Rule::PanicHygiene => {
                "return a typed error for real fallibility; for a true invariant, annotate: \
                 // ua-lint: allow(panic-hygiene) -- <why>"
            }
            Rule::NestedLock => {
                "drop the first guard before taking the second, or document the lock order: \
                 // ua-lint: allow(nested-lock) -- <why>"
            }
            Rule::Hermeticity => {
                "vendor the crate under crates/ and depend on it by path, or inherit a \
                 workspace dependency; to keep it, annotate in the manifest: \
                 # ua-lint: allow(hermeticity) -- <why>"
            }
            Rule::PayloadExhaustive => {
                "spell out every ProtocolPayload variant so a new suite is a compile error at \
                 this site; if the wildcard is provably variant-independent, annotate: \
                 // ua-lint: allow(payload-exhaustive) -- <why>"
            }
            Rule::BadSuppression => {
                "write `ua-lint: allow(<rule-id>) -- <why>` with a real justification after `--`"
            }
        }
    }
}

/// One raw finding, before suppression filtering.
#[derive(Debug, Clone)]
pub struct Finding {
    pub rule: Rule,
    pub line: u32,
    pub message: String,
}

/// Token-index ranges to exclude from test-exempt rules: bodies of
/// `#[cfg(test)]` items and `#[test]` functions.
pub fn test_regions(tokens: &[Tok]) -> Vec<(usize, usize)> {
    let mut regions = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        if tokens[i].is_punct('#') && tokens.get(i + 1).is_some_and(|t| t.is_punct('[')) {
            let close = match matching(tokens, i + 1, '[', ']') {
                Some(c) => c,
                None => break,
            };
            if attr_is_test(&tokens[i + 2..close]) {
                // Step over any further attributes stacked on the item.
                let mut j = close + 1;
                while j < tokens.len()
                    && tokens[j].is_punct('#')
                    && tokens.get(j + 1).is_some_and(|t| t.is_punct('['))
                {
                    match matching(tokens, j + 1, '[', ']') {
                        Some(c) => j = c + 1,
                        None => return regions,
                    }
                }
                let end = item_end(tokens, j);
                regions.push((i, end));
                i = end + 1;
                continue;
            }
            i = close + 1;
            continue;
        }
        i += 1;
    }
    regions
}

/// Does an attribute's token body (the part between `[` and `]`) gate
/// the item to test builds? `#[test]` and `#[cfg(test)]` (including
/// `cfg(all(test, …))`) count; `#[cfg(not(test))]` does not.
fn attr_is_test(body: &[Tok]) -> bool {
    if body.len() == 1 && body[0].is_ident("test") {
        return true;
    }
    if body.first().is_some_and(|t| t.is_ident("cfg")) {
        let has_test = body.iter().any(|t| t.is_ident("test"));
        let has_not = body.iter().any(|t| t.is_ident("not"));
        return has_test && !has_not;
    }
    false
}

/// Find the token index of the closing delimiter matching the opener
/// at `open_idx`.
fn matching(tokens: &[Tok], open_idx: usize, open: char, close: char) -> Option<usize> {
    let mut depth = 0usize;
    for (i, t) in tokens.iter().enumerate().skip(open_idx) {
        if t.is_punct(open) {
            depth += 1;
        } else if t.is_punct(close) {
            depth -= 1;
            if depth == 0 {
                return Some(i);
            }
        }
    }
    None
}

/// Index of the last token of the item starting at `start`: either a
/// terminating `;` outside any delimiter, or the `}` closing the first
/// top-level brace block.
fn item_end(tokens: &[Tok], start: usize) -> usize {
    let mut paren = 0i32;
    let mut bracket = 0i32;
    let mut i = start;
    while i < tokens.len() {
        let t = &tokens[i];
        if t.is_punct('(') {
            paren += 1;
        } else if t.is_punct(')') {
            paren -= 1;
        } else if t.is_punct('[') {
            bracket += 1;
        } else if t.is_punct(']') {
            bracket -= 1;
        } else if paren == 0 && bracket == 0 {
            if t.is_punct(';') {
                return i;
            }
            if t.is_punct('{') {
                return matching(tokens, i, '{', '}').unwrap_or(tokens.len() - 1);
            }
        }
        i += 1;
    }
    tokens.len().saturating_sub(1)
}

/// A function body: `fn` keyword index, body token range, name, line.
#[derive(Debug)]
pub struct FnSpan {
    pub name: String,
    pub line: u32,
    pub body: (usize, usize),
}

/// Locate every `fn` with a body. Closures are not tracked separately:
/// a closure defined inside a function counts toward that function's
/// body, which is the right granularity for the nested-lock rule.
pub fn fn_spans(tokens: &[Tok]) -> Vec<FnSpan> {
    let mut spans = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        if tokens[i].is_ident("fn") {
            let name = tokens
                .get(i + 1)
                .filter(|t| t.kind == TokKind::Ident)
                .map(|t| t.text.clone())
                .unwrap_or_else(|| "<anonymous>".into());
            // The body is the first `{` after the signature, at paren/
            // bracket depth zero; a `;` first means no body (trait
            // method declaration, extern fn).
            let mut paren = 0i32;
            let mut bracket = 0i32;
            let mut j = i + 1;
            let mut body = None;
            while j < tokens.len() {
                let t = &tokens[j];
                if t.is_punct('(') {
                    paren += 1;
                } else if t.is_punct(')') {
                    paren -= 1;
                } else if t.is_punct('[') {
                    bracket += 1;
                } else if t.is_punct(']') {
                    bracket -= 1;
                } else if paren == 0 && bracket == 0 {
                    if t.is_punct(';') {
                        break;
                    }
                    if t.is_punct('{') {
                        let close = matching(tokens, j, '{', '}')
                            .unwrap_or_else(|| tokens.len().saturating_sub(1));
                        body = Some((j, close));
                        break;
                    }
                }
                j += 1;
            }
            if let Some(body) = body {
                spans.push(FnSpan {
                    name,
                    line: tokens[i].line,
                    body,
                });
                // Continue scanning *inside* the body too: nested fns
                // get their own (overlapping) spans.
            }
        }
        i += 1;
    }
    spans
}

fn in_regions(regions: &[(usize, usize)], idx: usize) -> bool {
    regions.iter().any(|&(a, b)| a <= idx && idx <= b)
}

/// `wall-clock`: SystemTime anywhere, `Instant::now`, `thread::sleep`.
pub fn wall_clock(lexed: &Lexed) -> Vec<Finding> {
    let toks = &lexed.tokens;
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if t.is_ident("SystemTime") {
            out.push(Finding {
                rule: Rule::WallClock,
                line: t.line,
                message: "`SystemTime` reads the wall clock".into(),
            });
        } else if t.is_ident("Instant") && path_call(toks, i, "now") {
            out.push(Finding {
                rule: Rule::WallClock,
                line: t.line,
                message: "`Instant::now()` reads the wall clock".into(),
            });
        } else if t.is_ident("thread") && path_call(toks, i, "sleep") {
            out.push(Finding {
                rule: Rule::WallClock,
                line: t.line,
                message: "`thread::sleep` blocks on real time".into(),
            });
        }
    }
    out
}

/// True when `toks[i]` is followed by `::` `name`.
fn path_call(toks: &[Tok], i: usize, name: &str) -> bool {
    toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
        && toks.get(i + 2).is_some_and(|t| t.is_punct(':'))
        && toks.get(i + 3).is_some_and(|t| t.is_ident(name))
}

/// `ambient-randomness`: entropy-seeded RNG constructors.
pub fn ambient_randomness(lexed: &Lexed) -> Vec<Finding> {
    const BANNED: [(&str, &str); 4] = [
        ("from_entropy", "`from_entropy` seeds from OS entropy"),
        (
            "thread_rng",
            "`thread_rng` is ambient, entropy-seeded state",
        ),
        ("OsRng", "`OsRng` draws from the operating system"),
        ("getrandom", "`getrandom` draws from the operating system"),
    ];
    let mut out = Vec::new();
    for t in &lexed.tokens {
        if t.kind != TokKind::Ident {
            continue;
        }
        if let Some((_, msg)) = BANNED.iter().find(|(name, _)| t.text == *name) {
            out.push(Finding {
                rule: Rule::AmbientRandomness,
                line: t.line,
                message: (*msg).into(),
            });
        }
    }
    out
}

/// `unordered-iteration`: any HashMap/HashSet mention in an
/// output-producing crate outside test code. Deliberately coarse — the
/// audit is per *use*, not per iteration site, because a map that is
/// never iterated today grows an iteration tomorrow.
pub fn unordered_iteration(lexed: &Lexed, regions: &[(usize, usize)]) -> Vec<Finding> {
    let mut out = Vec::new();
    for (i, t) in lexed.tokens.iter().enumerate() {
        if in_regions(regions, i) {
            continue;
        }
        if t.is_ident("HashMap") || t.is_ident("HashSet") {
            out.push(Finding {
                rule: Rule::UnorderedIteration,
                line: t.line,
                message: format!(
                    "`{}` in an output-producing crate: iteration order is nondeterministic",
                    t.text
                ),
            });
        }
    }
    out
}

/// `panic-hygiene`: `.unwrap()`, `.expect("…")`, `panic!` outside test
/// code. `.expect(` with a non-string first argument is NOT flagged:
/// the DER decoder in ua-crypto has an `expect(Tag)` parser method
/// returning `Result`, and only `Option::expect`/`Result::expect`
/// (whose argument is a message string) are panic sites.
pub fn panic_hygiene(lexed: &Lexed, regions: &[(usize, usize)]) -> Vec<Finding> {
    let toks = &lexed.tokens;
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if in_regions(regions, i) {
            continue;
        }
        if t.is_punct('.')
            && toks.get(i + 1).is_some_and(|t| t.is_ident("unwrap"))
            && toks.get(i + 2).is_some_and(|t| t.is_punct('('))
            && toks.get(i + 3).is_some_and(|t| t.is_punct(')'))
        {
            out.push(Finding {
                rule: Rule::PanicHygiene,
                line: t.line,
                message: "`.unwrap()` in non-test library code".into(),
            });
        } else if t.is_punct('.')
            && toks.get(i + 1).is_some_and(|t| t.is_ident("expect"))
            && toks.get(i + 2).is_some_and(|t| t.is_punct('('))
            && toks.get(i + 3).is_some_and(|t| t.kind == TokKind::Str)
        {
            out.push(Finding {
                rule: Rule::PanicHygiene,
                line: t.line,
                message: "`.expect(\"…\")` in non-test library code".into(),
            });
        } else if t.is_ident("panic")
            && toks.get(i + 1).is_some_and(|t| t.is_punct('!'))
            // `core::panic!` in a `use` path or macro re-export is the
            // same macro; match the bang form regardless of context.
            && !toks.get(i.wrapping_sub(1)).is_some_and(|t| t.is_punct('.'))
        {
            out.push(Finding {
                rule: Rule::PanicHygiene,
                line: t.line,
                message: "`panic!` in non-test library code".into(),
            });
        }
    }
    out
}

/// `nested-lock`: two or more `.lock(` call sites inside one function
/// body. The finding lands on the *second* site, naming the first, so
/// the suppression (or the fix) sits where the hazard completes.
pub fn nested_lock(lexed: &Lexed, regions: &[(usize, usize)]) -> Vec<Finding> {
    let toks = &lexed.tokens;
    let mut out = Vec::new();
    for span in fn_spans(toks) {
        if in_regions(regions, span.body.0) {
            continue;
        }
        let mut sites: Vec<u32> = Vec::new();
        for i in span.body.0..=span.body.1.min(toks.len().saturating_sub(1)) {
            if toks[i].is_punct('.')
                && toks.get(i + 1).is_some_and(|t| t.is_ident("lock"))
                && toks.get(i + 2).is_some_and(|t| t.is_punct('('))
            {
                sites.push(toks[i].line);
            }
        }
        if sites.len() >= 2 {
            out.push(Finding {
                rule: Rule::NestedLock,
                line: sites[1],
                message: format!(
                    "second `.lock()` in fn `{}` (first at line {}): lock-order hazard",
                    span.name, sites[0]
                ),
            });
        }
    }
    out
}

/// `payload-exhaustive`: a `match` that names `ProtocolPayload` (in
/// its scrutinee or arms) must not carry a top-level `_` arm. The
/// payload enum is the extension point of the probe layer: every
/// consumer spelling its variants out is what turns "add a suite" into
/// a compile error at each consumption site instead of a silent
/// undercount.
pub fn payload_exhaustive(lexed: &Lexed) -> Vec<Finding> {
    let toks = &lexed.tokens;
    let mut out = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if !toks[i].is_ident("match") {
            i += 1;
            continue;
        }
        // The match body: the first `{` after the scrutinee, at paren/
        // bracket depth zero. (Struct literals cannot appear bare in a
        // match scrutinee, so this brace is unambiguous.)
        let mut j = i + 1;
        let (mut paren, mut bracket) = (0i32, 0i32);
        let mut body = None;
        while j < toks.len() {
            let t = &toks[j];
            if t.is_punct('(') {
                paren += 1;
            } else if t.is_punct(')') {
                paren -= 1;
            } else if t.is_punct('[') {
                bracket += 1;
            } else if t.is_punct(']') {
                bracket -= 1;
            } else if paren == 0 && bracket == 0 {
                if t.is_punct('{') {
                    body = Some(j);
                    break;
                }
                if t.is_punct(';') {
                    break;
                }
            }
            j += 1;
        }
        let Some(open) = body else {
            i += 1;
            continue;
        };
        let close = match matching(toks, open, '{', '}') {
            Some(c) => c,
            None => break,
        };
        let mentions_payload = toks[i..=close]
            .iter()
            .any(|t| t.is_ident("ProtocolPayload"));
        if mentions_payload {
            // A wildcard arm is a bare `_` at the top level of the
            // body (outside any nested delimiters), starting a pattern:
            // `_ =>` or `_ if guard =>`. Underscores inside patterns
            // (`OpcUa(_)`, `Foo { x: _ }`) sit at deeper delimiter
            // depth and are fine.
            let (mut p, mut bk, mut br) = (0i32, 0i32, 0i32);
            for k in open + 1..close {
                let t = &toks[k];
                if t.is_punct('(') {
                    p += 1;
                } else if t.is_punct(')') {
                    p -= 1;
                } else if t.is_punct('[') {
                    bk += 1;
                } else if t.is_punct(']') {
                    bk -= 1;
                } else if t.is_punct('{') {
                    br += 1;
                } else if t.is_punct('}') {
                    br -= 1;
                } else if p == 0
                    && bk == 0
                    && br == 0
                    && t.is_ident("_")
                    && toks
                        .get(k + 1)
                        .is_some_and(|n| n.is_ident("if") || n.is_punct('='))
                {
                    out.push(Finding {
                        rule: Rule::PayloadExhaustive,
                        line: t.line,
                        message: "`_` arm in a match over `ProtocolPayload`: a wildcard swallows \
                                  future protocol suites silently"
                            .into(),
                    });
                }
            }
        }
        i = open + 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    #[test]
    fn cfg_test_region_covers_mod_body() {
        let src = "fn lib() {}\n#[cfg(test)]\nmod tests {\n  fn t() { x.unwrap(); }\n}\nfn tail() { y.unwrap(); }\n";
        let lexed = lex(src);
        let regions = test_regions(&lexed.tokens);
        let findings = panic_hygiene(&lexed, &regions);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].line, 6);
    }

    #[test]
    fn cfg_not_test_is_not_a_test_region() {
        let src = "#[cfg(not(test))]\nfn live() { x.unwrap(); }\n";
        let lexed = lex(src);
        let regions = test_regions(&lexed.tokens);
        assert_eq!(panic_hygiene(&lexed, &regions).len(), 1);
    }

    #[test]
    fn stacked_attributes_stay_in_region() {
        let src = "#[cfg(test)]\n#[allow(dead_code)]\nmod tests { fn t() { x.unwrap(); } }\nfn live() { y.unwrap(); }\n";
        let lexed = lex(src);
        let regions = test_regions(&lexed.tokens);
        let findings = panic_hygiene(&lexed, &regions);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].line, 4);
    }

    #[test]
    fn expect_with_tag_argument_is_not_flagged() {
        let src = "fn f() { let a = seq.expect(tag::OCTET_STRING)?; let b = opt.expect(\"msg\"); }";
        let lexed = lex(src);
        let findings = panic_hygiene(&lexed, &[]);
        assert_eq!(findings.len(), 1);
        assert!(findings[0].message.contains("expect"));
    }

    #[test]
    fn unwrap_or_else_is_not_unwrap() {
        let src = "fn f() { x.unwrap_or_else(|| 0); x.unwrap_or(1); x.unwrap_or_default(); }";
        let lexed = lex(src);
        assert!(panic_hygiene(&lexed, &[]).is_empty());
    }

    #[test]
    fn wall_clock_patterns() {
        let src = "fn f() { let t = Instant::now(); thread::sleep(d); let s: SystemTime = x; }";
        let lexed = lex(src);
        assert_eq!(wall_clock(&lexed).len(), 3);
        // An `Instant` stored or compared, without `::now`, is fine.
        let ok = lex("fn g(deadline: Instant) -> bool { clock.now() >= deadline }");
        assert!(wall_clock(&ok).is_empty());
    }

    #[test]
    fn nested_lock_flags_second_site_only() {
        let src = "fn two() {\n let a = m.lock();\n let b = n.lock();\n}\nfn one() { let a = m.lock(); }\n";
        let lexed = lex(src);
        let findings = nested_lock(&lexed, &[]);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].line, 3);
        assert!(findings[0].message.contains("fn `two`"));
    }

    #[test]
    fn trait_method_declarations_have_no_body() {
        let src = "trait T { fn sig(&self); fn with_default(&self) { a.lock(); b.lock(); } }";
        let lexed = lex(src);
        let spans = fn_spans(&lexed.tokens);
        assert_eq!(spans.len(), 1);
        assert_eq!(nested_lock(&lexed, &[]).len(), 1);
    }
}
