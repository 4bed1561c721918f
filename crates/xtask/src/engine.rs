//! Lint engine: file model, test-code exemption, allow directives and
//! finding collection.
//!
//! The engine prepares each source file once — tokenizing it, locating
//! `#[cfg(test)]`/`#[test]` regions (exempt from every lint) and parsing
//! `// lint: allow(<id>): <justification>` escape hatches — then hands
//! the prepared file to each lint pass in [`crate::lints`].

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use crate::lexer::{lex, Tok, TokKind};

/// Severity of a lint at report time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Level {
    /// Gates the exit code.
    Deny,
    /// Reported but does not gate.
    Warn,
}

/// Every lint the checker knows, with its stable ID.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Lint {
    /// `hash-iter`: HashMap/HashSet iteration in deterministic crates.
    HashIter,
    /// `nondet-source`: wall clocks, `thread_rng`, `std::env` in sim code.
    NondetSource,
    /// `panic-macro`: `panic!`/`todo!`/`unimplemented!`/`unreachable!`.
    PanicMacro,
    /// `unwrap`: `.unwrap()` or an undocumented `.expect(..)`.
    Unwrap,
    /// `slice-index`: direct `x[i]` indexing (advisory by default).
    SliceIndex,
    /// `obs-unknown-name`: recorder name not in `crates/obs/src/names.rs`.
    ObsUnknownName,
    /// `obs-dead-name`: name in `names.rs` with no instrumented call site.
    ObsDeadName,
    /// `bad-allow`: malformed or unjustified allow directive.
    BadAllow,
    /// `lock-order`: a lock acquisition that closes a cycle in the
    /// workspace lock-ordering graph (potential deadlock).
    LockOrder,
    /// `lock-across-blocking`: a `Mutex`/`RwLock` guard held across a
    /// blocking call (`.recv()`, socket/file I/O, `JoinHandle::join`).
    LockAcrossBlocking,
    /// `hot-alloc`: an allocation or a shared refcount bump
    /// (`Arc::clone`/`Rc::clone`) inside a `// hot` function or a
    /// function it calls directly.
    HotAlloc,
    /// `layering`: a `use` that violates the crate DAG.
    Layering,
    /// `stale-allow`: an allow directive that suppresses no finding.
    StaleAllow,
}

impl Lint {
    /// Every lint, in reporting order.
    pub const ALL: [Lint; 13] = [
        Lint::HashIter,
        Lint::NondetSource,
        Lint::PanicMacro,
        Lint::Unwrap,
        Lint::SliceIndex,
        Lint::ObsUnknownName,
        Lint::ObsDeadName,
        Lint::BadAllow,
        Lint::LockOrder,
        Lint::LockAcrossBlocking,
        Lint::HotAlloc,
        Lint::Layering,
        Lint::StaleAllow,
    ];

    /// The stable machine-readable ID (used in diagnostics and in
    /// `lint: allow(<id>)` directives).
    pub fn id(self) -> &'static str {
        match self {
            Lint::HashIter => "hash-iter",
            Lint::NondetSource => "nondet-source",
            Lint::PanicMacro => "panic-macro",
            Lint::Unwrap => "unwrap",
            Lint::SliceIndex => "slice-index",
            Lint::ObsUnknownName => "obs-unknown-name",
            Lint::ObsDeadName => "obs-dead-name",
            Lint::BadAllow => "bad-allow",
            Lint::LockOrder => "lock-order",
            Lint::LockAcrossBlocking => "lock-across-blocking",
            Lint::HotAlloc => "hot-alloc",
            Lint::Layering => "layering",
            Lint::StaleAllow => "stale-allow",
        }
    }

    /// Parses a lint ID.
    pub fn from_id(id: &str) -> Option<Lint> {
        Lint::ALL.into_iter().find(|l| l.id() == id)
    }

    /// The level applied when the caller does not override it.
    pub fn default_level(self) -> Level {
        match self {
            // Dense ID-indexed arrays are the workspace's dominant idiom;
            // flagging every `links[l.index()]` would bury the signal, so
            // indexing stays advisory until checked accessors land.
            Lint::SliceIndex => Level::Warn,
            _ => Level::Deny,
        }
    }

    /// One-line rationale, shown by `netdiag-xtask list`.
    pub fn rationale(self) -> &'static str {
        match self {
            Lint::HashIter => {
                "hash iteration order varies between runs; parity of trial \
                 outputs (tests/parallel_parity.rs) requires ordered iteration"
            }
            Lint::NondetSource => {
                "wall clocks, ambient RNGs and environment reads make trials \
                 irreproducible; all randomness must flow from the seed"
            }
            Lint::PanicMacro => {
                "a panic in library code kills a whole trial batch; return an \
                 error or document the invariant"
            }
            Lint::Unwrap => {
                "`.unwrap()` hides why the value must exist; use `?`, or \
                 `.expect(..)` with a message stating the invariant"
            }
            Lint::SliceIndex => {
                "direct indexing panics on bad input; prefer `.get(..)` on \
                 untrusted indices (advisory: dense ID indexing is idiomatic \
                 here)"
            }
            Lint::ObsUnknownName => {
                "metric names must live in crates/obs/src/names.rs so run \
                 reports stay a closed vocabulary"
            }
            Lint::ObsDeadName => {
                "a name with no call site is a stale vocabulary entry; delete \
                 it or re-instrument"
            }
            Lint::BadAllow => {
                "an allow directive without a justification defeats the audit \
                 trail the escape hatch exists for"
            }
            Lint::LockOrder => {
                "two locks taken in opposite orders on different code paths \
                 deadlock under contention; keep the lock graph acyclic"
            }
            Lint::LockAcrossBlocking => {
                "a guard held across `.recv()`/file/socket I/O or a thread \
                 join stalls every other acquirer for the blocking duration \
                 (or deadlocks if the blocked side needs the lock)"
            }
            Lint::HotAlloc => {
                "allocation in a `// hot` function (or a direct callee) is a \
                 per-iteration cost the benchmarks gate on; preallocate or \
                 reuse scratch buffers. A refcount bump there is an atomic \
                 write every thread sharing the pointer makes to one cache \
                 line; re-borrow instead"
            }
            Lint::Layering => {
                "the crate DAG is topology → igp/bgp → netsim → core → \
                 experiments/serve with obs orthogonal and stubs leaf-only; \
                 an inverted `use` makes the layers unbuildable apart"
            }
            Lint::StaleAllow => {
                "an allow directive that suppresses nothing documents a \
                 hazard that no longer exists; delete it so real suppressions \
                 stay auditable"
            }
        }
    }
}

/// One diagnostic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// Which lint fired.
    pub lint: Lint,
    /// Human-readable detail.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file,
            self.line,
            self.lint.id(),
            self.message
        )
    }
}

/// An input source file.
#[derive(Clone, Debug)]
pub struct SrcFile {
    /// Short crate name (`"bgp"`, `"core"`, …, `"root"` for the root
    /// package) — lints scope themselves by it.
    pub crate_name: String,
    /// Workspace-relative path, used verbatim in diagnostics.
    pub path: String,
    /// File contents.
    pub src: String,
}

/// A tokenized file with exemptions resolved.
pub struct PreparedFile<'a> {
    /// The input.
    pub file: &'a SrcFile,
    /// Token stream with comments stripped (lints scan this).
    pub tokens: Vec<Tok>,
    /// Inclusive line ranges covered by `#[cfg(test)]` / `#[test]` items.
    pub test_ranges: Vec<(usize, usize)>,
    /// `line → lint IDs` allowed there (directive lines plus, for each
    /// directive, the next line that carries code).
    pub allows: BTreeMap<usize, BTreeSet<Lint>>,
    /// Malformed allow directives found while parsing comments.
    pub bad_allows: Vec<Finding>,
    /// Well-formed allow directives as written: `(directive line, lint)`.
    pub directives: Vec<(usize, Lint)>,
    /// `(covered line, lint) → directive line` — who gets credit when a
    /// suppression fires at a covered line.
    directive_for: BTreeMap<(usize, Lint), usize>,
    /// Directives that suppressed at least one would-be finding this run
    /// (interior mutability: passes hold `&PreparedFile`).
    hits: RefCell<BTreeSet<(usize, Lint)>>,
}

impl PreparedFile<'_> {
    /// Is `line` inside test-exempt code?
    pub fn in_test(&self, line: usize) -> bool {
        self.test_ranges
            .iter()
            .any(|&(a, b)| a <= line && line <= b)
    }

    /// Is `lint` allowed at `line` by a directive on it or above it?
    pub fn allowed(&self, lint: Lint, line: usize) -> bool {
        self.allows.get(&line).is_some_and(|s| s.contains(&lint))
    }

    /// Records `finding` unless the line is test-exempt or allowed.
    /// A suppressing directive is credited so [`Self::stale_allows`] can
    /// tell live escape hatches from stale ones.
    pub fn push(&self, out: &mut Vec<Finding>, lint: Lint, line: usize, message: String) {
        if self.in_test(line) {
            return;
        }
        if self.allowed(lint, line) {
            if let Some(&directive_line) = self.directive_for.get(&(line, lint)) {
                self.hits.borrow_mut().insert((directive_line, lint));
            }
            return;
        }
        out.push(Finding {
            file: self.file.path.clone(),
            line,
            lint,
            message,
        });
    }

    /// Reports every directive that suppressed nothing. Call after all
    /// other passes have run over this file.
    pub fn stale_allows(&self, out: &mut Vec<Finding>) {
        let stale: Vec<(usize, Lint)> = {
            let hits = self.hits.borrow();
            self.directives
                .iter()
                .filter(|d| !hits.contains(d))
                .copied()
                .collect()
        };
        for (line, lint) in stale {
            self.push(
                out,
                Lint::StaleAllow,
                line,
                format!(
                    "`lint: allow({})` suppresses no finding here; the hazard \
                     is gone — delete the directive",
                    lint.id()
                ),
            );
        }
    }
}

/// Tokenizes `file` and resolves its exemptions.
pub fn prepare(file: &SrcFile) -> PreparedFile<'_> {
    let all_tokens = lex(&file.src);
    let mut allows: BTreeMap<usize, BTreeSet<Lint>> = BTreeMap::new();
    let mut bad_allows = Vec::new();
    for t in &all_tokens {
        if t.kind != TokKind::Comment {
            continue;
        }
        parse_allow_directive(file, t, &mut allows, &mut bad_allows);
    }
    let tokens: Vec<Tok> = all_tokens
        .into_iter()
        .filter(|t| t.kind != TokKind::Comment)
        .collect();
    // A directive covers its own line (trailing-comment form) and the
    // next line carrying code (comment-above form — justification
    // comments may continue over several lines before the code).
    let mut directives = Vec::new();
    let mut directive_for: BTreeMap<(usize, Lint), usize> = BTreeMap::new();
    for (directive_line, lints) in allows.clone() {
        let code_line = tokens.iter().map(|t| t.line).find(|&l| l > directive_line);
        for lint in &lints {
            directives.push((directive_line, *lint));
            directive_for.insert((directive_line, *lint), directive_line);
            if let Some(code_line) = code_line {
                directive_for.insert((code_line, *lint), directive_line);
            }
        }
        if let Some(code_line) = code_line {
            allows.entry(code_line).or_default().extend(lints);
        }
    }
    let test_ranges = find_test_ranges(&tokens);
    PreparedFile {
        file,
        tokens,
        test_ranges,
        allows,
        bad_allows,
        directives,
        directive_for,
        hits: RefCell::new(BTreeSet::new()),
    }
}

/// Parses `lint: allow(<id>): <justification>` out of one comment.
fn parse_allow_directive(
    file: &SrcFile,
    comment: &Tok,
    allows: &mut BTreeMap<usize, BTreeSet<Lint>>,
    bad: &mut Vec<Finding>,
) {
    const MARKER: &str = "lint: allow(";
    // Anchored to the comment's start (after doc-comment `/`/`!`/`*`
    // sigils and whitespace) so prose *mentioning* the directive syntax
    // — e.g. this linter's own docs — is not parsed as a directive.
    let body = comment
        .text
        .trim_start_matches(['/', '!', '*'])
        .trim_start();
    if !body.starts_with(MARKER) {
        return;
    }
    let rest = body.get(MARKER.len()..).unwrap_or("");
    let mut fail = |msg: String| {
        bad.push(Finding {
            file: file.path.clone(),
            line: comment.line,
            lint: Lint::BadAllow,
            message: msg,
        });
    };
    let Some(close) = rest.find(')') else {
        fail("unclosed `lint: allow(` directive".to_string());
        return;
    };
    let id = rest.get(..close).unwrap_or("").trim();
    let Some(lint) = Lint::from_id(id) else {
        fail(format!(
            "unknown lint id {id:?} (run `netdiag-xtask list` for the catalog)"
        ));
        return;
    };
    let after = rest.get(close + 1..).unwrap_or("").trim_start();
    let justification = after.strip_prefix(':').map(str::trim).unwrap_or("");
    if justification.is_empty() {
        fail(format!(
            "allow({id}) needs a justification: `// lint: allow({id}): <why this is sound>`"
        ));
        return;
    }
    allows.entry(comment.line).or_default().insert(lint);
}

/// Keywords that introduce an item whose body an exempting attribute
/// covers (we exempt from the attribute through the item's last brace).
const ITEM_KEYWORDS: [&str; 7] = ["mod", "fn", "impl", "struct", "enum", "trait", "const"];

/// Finds line ranges covered by `#[cfg(test)]` / `#[test]` items by
/// scanning the comment-free token stream and matching braces.
fn find_test_ranges(tokens: &[Tok]) -> Vec<(usize, usize)> {
    let mut ranges = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        if !(tokens[i].is_punct('#') && tokens.get(i + 1).is_some_and(|t| t.is_punct('['))) {
            i += 1;
            continue;
        }
        let attr_line = tokens[i].line;
        let (attr_tokens, after_attr) = attribute_body(tokens, i + 2);
        // `#[test]` or a `cfg` mentioning `test` — but not `cfg(not(test))`,
        // which marks *non*-test code.
        let exempts = attr_tokens.iter().any(|t| t.is_ident("test"))
            && !attr_tokens.iter().any(|t| t.is_ident("not"))
            && (attr_tokens.len() == 1 || attr_tokens.iter().any(|t| t.is_ident("cfg")));
        if !exempts {
            i = after_attr;
            continue;
        }
        // Skip any further attributes between this one and the item.
        let mut j = after_attr;
        while j < tokens.len()
            && tokens[j].is_punct('#')
            && tokens.get(j + 1).is_some_and(|t| t.is_punct('['))
        {
            j = attribute_body(tokens, j + 2).1;
        }
        // Advance to the item's opening brace (or a `;` for out-of-line
        // items like `#[cfg(test)] mod tests;`).
        let mut saw_item = false;
        while j < tokens.len() {
            let t = &tokens[j];
            if t.kind == TokKind::Ident && ITEM_KEYWORDS.contains(&t.text.as_str()) {
                saw_item = true;
            }
            if t.is_punct(';') && saw_item {
                ranges.push((attr_line, t.line));
                j += 1;
                break;
            }
            if t.is_punct('{') {
                let close = matching_brace(tokens, j);
                let end_line = tokens.get(close).map_or(t.line, |t| t.line);
                ranges.push((attr_line, end_line));
                j = close + 1;
                break;
            }
            j += 1;
        }
        i = j.max(after_attr);
    }
    ranges
}

/// Given the index just past `#[`, returns the attribute's inner tokens
/// and the index just past its closing `]`.
pub(crate) fn attribute_body(tokens: &[Tok], start: usize) -> (Vec<Tok>, usize) {
    let mut depth = 1usize;
    let mut j = start;
    let mut inner = Vec::new();
    while j < tokens.len() && depth > 0 {
        let t = &tokens[j];
        if t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(']') {
            depth -= 1;
            if depth == 0 {
                break;
            }
        }
        inner.push(t.clone());
        j += 1;
    }
    (inner, (j + 1).min(tokens.len()))
}

/// Index of the `}` matching the `{` at `open` (or the last token on
/// unbalanced input).
pub(crate) fn matching_brace(tokens: &[Tok], open: usize) -> usize {
    let mut depth = 0usize;
    let mut j = open;
    while j < tokens.len() {
        if tokens[j].is_punct('{') {
            depth += 1;
        } else if tokens[j].is_punct('}') {
            depth -= 1;
            if depth == 0 {
                return j;
            }
        }
        j += 1;
    }
    tokens.len().saturating_sub(1)
}

/// A full lint run: findings plus the level each resolved to.
#[derive(Debug, Default)]
pub struct Report {
    /// All findings with their effective levels, sorted by file then line.
    pub findings: Vec<(Finding, Level)>,
}

impl Report {
    /// Findings at [`Level::Deny`].
    pub fn errors(&self) -> impl Iterator<Item = &Finding> {
        self.findings
            .iter()
            .filter(|(_, l)| *l == Level::Deny)
            .map(|(f, _)| f)
    }

    /// Findings at [`Level::Warn`].
    pub fn warnings(&self) -> impl Iterator<Item = &Finding> {
        self.findings
            .iter()
            .filter(|(_, l)| *l == Level::Warn)
            .map(|(f, _)| f)
    }

    /// Does the run gate (any deny-level finding)?
    pub fn gates(&self) -> bool {
        self.errors().next().is_some()
    }
}

/// Runs every lint over `files`, resolving levels through `overrides`
/// (`lint id → level`).
pub fn run(files: &[SrcFile], overrides: &BTreeMap<String, Level>) -> Report {
    let mut findings = crate::lints::run_all(files);
    findings.sort_by(|a, b| (&a.file, a.line, a.lint.id()).cmp(&(&b.file, b.line, b.lint.id())));
    // Graph passes can reach one site along several paths (e.g. a lock
    // edge seen directly and through a callee); identical graph findings
    // fold. Token lints stay per-site — `m[i][j]` is two findings.
    findings.dedup_by(|a, b| {
        a == b
            && matches!(
                a.lint,
                Lint::LockOrder | Lint::LockAcrossBlocking | Lint::HotAlloc
            )
    });
    let findings = findings
        .into_iter()
        .map(|f| {
            let level = overrides
                .get(f.lint.id())
                .copied()
                .unwrap_or_else(|| f.lint.default_level());
            (f, level)
        })
        .collect();
    Report { findings }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(src: &str) -> SrcFile {
        SrcFile {
            crate_name: "core".to_string(),
            path: "crates/core/src/x.rs".to_string(),
            src: src.to_string(),
        }
    }

    #[test]
    fn cfg_test_module_lines_are_exempt() {
        let f = file("fn a() {}\n#[cfg(test)]\nmod tests {\n  fn b() {}\n}\nfn c() {}\n");
        let p = prepare(&f);
        assert!(!p.in_test(1));
        assert!(p.in_test(2));
        assert!(p.in_test(4));
        assert!(p.in_test(5));
        assert!(!p.in_test(6));
    }

    #[test]
    fn test_attribute_on_fn_is_exempt() {
        let f = file("#[test]\nfn t() {\n  x();\n}\nfn lib() {}\n");
        let p = prepare(&f);
        assert!(p.in_test(3));
        assert!(!p.in_test(5));
    }

    #[test]
    fn cfg_not_test_is_not_exempt() {
        let f = file("#[cfg(feature = \"x\")]\nfn a() {\n  y();\n}\n");
        let p = prepare(&f);
        assert!(!p.in_test(3));
    }

    #[test]
    fn allow_directive_covers_its_line_and_the_next() {
        let f = file("// lint: allow(unwrap): invariant documented at decl\nlet x = y.unwrap();\n");
        let p = prepare(&f);
        assert!(p.bad_allows.is_empty());
        assert!(p.allowed(Lint::Unwrap, 1));
        assert!(p.allowed(Lint::Unwrap, 2));
        assert!(!p.allowed(Lint::Unwrap, 3));
        assert!(!p.allowed(Lint::PanicMacro, 2));
    }

    #[test]
    fn allow_without_justification_is_flagged() {
        let f = file("// lint: allow(unwrap)\nlet x = y.unwrap();\n");
        let p = prepare(&f);
        assert_eq!(p.bad_allows.len(), 1);
        assert_eq!(p.bad_allows[0].lint, Lint::BadAllow);
        assert!(!p.allowed(Lint::Unwrap, 2));
    }

    #[test]
    fn allow_with_unknown_id_is_flagged() {
        let f = file("// lint: allow(no-such-lint): because\nx();\n");
        let p = prepare(&f);
        assert_eq!(p.bad_allows.len(), 1);
    }

    #[test]
    fn lint_ids_round_trip() {
        for lint in Lint::ALL {
            assert_eq!(Lint::from_id(lint.id()), Some(lint));
        }
        assert_eq!(Lint::from_id("bogus"), None);
    }
}
