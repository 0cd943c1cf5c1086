//! # aimdb-lint
//!
//! A workspace invariant linter for the aimdb reproduction. The learned
//! components (optimizers, tuners, estimators) are only comparable against
//! their empirical baselines if the engine underneath is deterministic and
//! panic-free, so three invariants are enforced mechanically:
//!
//! - **L001 — panic-freedom**: no `unwrap()` / `expect(...)` / `panic!`
//!   in non-test code. The core crates (`engine`, `storage`, `sql`) are
//!   held at zero; the rest of the workspace carries a checked-in baseline
//!   (`lint-baseline.txt`) whose counts may only *ratchet down*.
//! - **L002 — determinism**: no ambient entropy or wall-clock reads
//!   (`thread_rng`, `rand::random`, `from_entropy`, `SystemTime::now`,
//!   `Instant::now`) in plan-affecting crates. Seeded RNGs and the
//!   injectable clock in `aimdb-common` are the sanctioned sources.
//! - **L003 — error hygiene**: public `engine`/`storage`/`server`
//!   functions must not return `Result<_, String>` or `Box<dyn Error>`;
//!   the workspace error type is `AimError`.
//! - **L004 — lock ranking**: every `Mutex::new` / `RwLock::new` in the
//!   concurrency-bearing crates (`engine`, `storage`, `trace`,
//!   `server`) must be `with_rank(value, LockRank::...)` instead, so the
//!   debug-build lock-order witness can check the acquisition hierarchy.
//! - **L005 — atomic-ordering audit**: every `Ordering::Relaxed` /
//!   `Acquire` / `Release` / `AcqRel` / `SeqCst` use site must carry an
//!   adjacent `// ordering:` comment (same line or the line above)
//!   justifying the chosen memory ordering.
//!
//! Escape hatch: a `// aimdb-lint: allow(L00X, reason)` comment on the
//! same line or the line above suppresses that rule there. The analysis is
//! a comment/string-aware lexical scan (the build environment is offline,
//! so no `syn`); `#[cfg(test)]` / `#[test]` items are skipped by brace
//! matching.

use std::collections::HashMap;
use std::fmt;

/// Lint rules, stable identifiers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Rule {
    /// unwrap/expect/panic in non-test code.
    L001,
    /// Ambient entropy or wall-clock read in a plan-affecting crate.
    L002,
    /// Public API returning `Result<_, String>` or `Box<dyn Error>`.
    L003,
    /// Unranked `Mutex::new`/`RwLock::new` in a concurrency-bearing crate.
    L004,
    /// Atomic `Ordering::*` use without an adjacent `// ordering:` comment.
    L005,
}

impl Rule {
    pub fn code(&self) -> &'static str {
        match self {
            Rule::L001 => "L001",
            Rule::L002 => "L002",
            Rule::L003 => "L003",
            Rule::L004 => "L004",
            Rule::L005 => "L005",
        }
    }

    pub fn parse(s: &str) -> Option<Rule> {
        match s.trim() {
            "L001" => Some(Rule::L001),
            "L002" => Some(Rule::L002),
            "L003" => Some(Rule::L003),
            "L004" => Some(Rule::L004),
            "L005" => Some(Rule::L005),
            _ => None,
        }
    }

    /// Whether the rule is enforced via the checked-in ratchet baseline
    /// (per-file counts may only go down) rather than as a hard error.
    pub fn ratcheted(&self) -> bool {
        matches!(self, Rule::L001 | Rule::L004 | Rule::L005)
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.code())
    }
}

/// One lint violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    pub rule: Rule,
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// 1-based column.
    pub col: usize,
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}:{}: {} {}",
            self.file,
            self.line,
            self.col,
            self.rule.code(),
            self.message
        )
    }
}

/// Which rules apply to a crate, keyed by the directory name under
/// `crates/` (the workspace root package is keyed as `aimdb`).
pub fn rules_for_crate(crate_key: &str) -> Vec<Rule> {
    let mut rules = Vec::new();
    // L001 applies workspace-wide (core crates are pinned to zero via an
    // empty baseline; the rest ratchet down).
    if !matches!(crate_key, "shims" | "lint") {
        rules.push(Rule::L001);
    }
    // L002: every crate whose output feeds plans, costs or experiments.
    if matches!(
        crate_key,
        "engine"
            | "storage"
            | "sql"
            | "common"
            | "ml"
            | "ai4db"
            | "db4ai"
            | "bench"
            | "aimdb"
            | "trace"
    ) {
        rules.push(Rule::L002);
    }
    // L003: the public engine/storage API surface, plus the server's
    // wire-facing API (error frames are AimError-derived, so stringly
    // errors would lose the category tag clients dispatch on).
    if matches!(crate_key, "engine" | "storage" | "server") {
        rules.push(Rule::L003);
    }
    // L004: crates whose locks participate in the global lock hierarchy.
    // The server front end holds its gate/registry locks below every
    // engine rank, so it joins the witnessed set.
    if matches!(crate_key, "engine" | "storage" | "trace" | "server") {
        rules.push(Rule::L004);
    }
    // L005: every crate with raw atomics (the shims document their own).
    if !matches!(crate_key, "shims" | "lint") {
        rules.push(Rule::L005);
    }
    rules
}

/// Core crates where L001 debt is forbidden outright (no baseline entries
/// are honoured for their files).
pub fn l001_zero_tolerance(crate_key: &str) -> bool {
    matches!(crate_key, "engine" | "storage" | "sql" | "trace")
}

// ---------------------------------------------------------------------------
// Source preprocessing
// ---------------------------------------------------------------------------

/// A preprocessed source file: code with comments/strings blanked out,
/// the comment texts (for allow directives), and test-region line spans.
pub struct Scrubbed {
    /// Same length as the input; comment and string *contents* replaced by
    /// spaces (newlines preserved), so token scans cannot match inside.
    pub code: String,
    /// `(line, text)` for every comment, 1-based lines (line of the `//`
    /// or `/*`).
    pub comments: Vec<(usize, String)>,
    /// 1-based line numbers that belong to `#[cfg(test)]` / `#[test]`
    /// items.
    pub test_lines: Vec<bool>, // index 0 unused
}

/// Blank comments and string/char literals, collecting comment texts.
pub fn scrub(src: &str) -> Scrubbed {
    let bytes = src.as_bytes();
    let mut code: Vec<u8> = Vec::with_capacity(bytes.len());
    let mut comments = Vec::new();
    let mut line = 1usize;
    let mut i = 0usize;

    fn blank(b: u8) -> u8 {
        if b == b'\n' {
            b'\n'
        } else {
            b' '
        }
    }

    while i < bytes.len() {
        let b = bytes[i];
        match b {
            b'\n' => {
                line += 1;
                code.push(b'\n');
                i += 1;
            }
            b'/' if i + 1 < bytes.len() && bytes[i + 1] == b'/' => {
                let start_line = line;
                let mut text = String::new();
                while i < bytes.len() && bytes[i] != b'\n' {
                    text.push(bytes[i] as char);
                    code.push(b' ');
                    i += 1;
                }
                comments.push((start_line, text));
            }
            b'/' if i + 1 < bytes.len() && bytes[i + 1] == b'*' => {
                let start_line = line;
                let mut text = String::new();
                let mut depth = 0usize;
                while i < bytes.len() {
                    if bytes[i] == b'/' && i + 1 < bytes.len() && bytes[i + 1] == b'*' {
                        depth += 1;
                        text.push_str("/*");
                        code.push(b' ');
                        code.push(b' ');
                        i += 2;
                    } else if bytes[i] == b'*' && i + 1 < bytes.len() && bytes[i + 1] == b'/' {
                        depth -= 1;
                        text.push_str("*/");
                        code.push(b' ');
                        code.push(b' ');
                        i += 2;
                        if depth == 0 {
                            break;
                        }
                    } else {
                        if bytes[i] == b'\n' {
                            line += 1;
                        }
                        text.push(bytes[i] as char);
                        code.push(blank(bytes[i]));
                        i += 1;
                    }
                }
                comments.push((start_line, text));
            }
            b'"' => {
                // ordinary string literal
                code.push(b' ');
                i += 1;
                while i < bytes.len() {
                    if bytes[i] == b'\\' && i + 1 < bytes.len() {
                        code.push(b' ');
                        code.push(blank(bytes[i + 1]));
                        if bytes[i + 1] == b'\n' {
                            line += 1;
                        }
                        i += 2;
                    } else if bytes[i] == b'"' {
                        code.push(b' ');
                        i += 1;
                        break;
                    } else {
                        if bytes[i] == b'\n' {
                            line += 1;
                        }
                        code.push(blank(bytes[i]));
                        i += 1;
                    }
                }
            }
            b'r' if is_raw_string_start(bytes, i) => {
                // r"..."  or  r#"..."#  (any hash depth)
                let mut j = i + 1;
                let mut hashes = 0usize;
                while j < bytes.len() && bytes[j] == b'#' {
                    hashes += 1;
                    j += 1;
                }
                // opening quote
                code.extend(std::iter::repeat_n(b' ', j + 1 - i));
                i = j + 1;
                let mut closer: Vec<u8> = vec![b'"'];
                closer.extend(std::iter::repeat_n(b'#', hashes));
                while i < bytes.len() {
                    if bytes[i..].starts_with(&closer) {
                        code.extend(std::iter::repeat_n(b' ', closer.len()));
                        i += closer.len();
                        break;
                    }
                    if bytes[i] == b'\n' {
                        line += 1;
                    }
                    code.push(blank(bytes[i]));
                    i += 1;
                }
            }
            b'\'' => {
                // char literal vs lifetime: a char literal closes with a
                // quote within a few bytes ('x', '\n', '\u{1F600}').
                let lit_len = char_literal_len(bytes, i);
                match lit_len {
                    Some(n) => {
                        for k in 0..n {
                            if bytes[i + k] == b'\n' {
                                line += 1;
                            }
                            code.push(b' ');
                        }
                        i += n;
                    }
                    None => {
                        // lifetime tick: keep as-is (harmless to the scan)
                        code.push(b'\'');
                        i += 1;
                    }
                }
            }
            other => {
                code.push(other);
                i += 1;
            }
        }
    }

    let code = String::from_utf8_lossy(&code).into_owned();
    let test_lines = mark_test_lines(&code);
    Scrubbed {
        code,
        comments,
        test_lines,
    }
}

fn is_raw_string_start(bytes: &[u8], i: usize) -> bool {
    // `r"` or `r#...#"`, and the `r` must not be part of an identifier
    // (e.g. `for`, `shr`), nor a raw identifier `r#match`.
    if i > 0 {
        let prev = bytes[i - 1];
        if prev.is_ascii_alphanumeric() || prev == b'_' {
            return false;
        }
    }
    let mut j = i + 1;
    while j < bytes.len() && bytes[j] == b'#' {
        j += 1;
    }
    // raw identifier (r#name) has an ident char after the hash, not a quote
    j < bytes.len() && bytes[j] == b'"'
}

/// If `bytes[i]` starts a char literal, its total byte length; `None` for
/// lifetimes.
fn char_literal_len(bytes: &[u8], i: usize) -> Option<usize> {
    let mut j = i + 1;
    if j >= bytes.len() {
        return None;
    }
    if bytes[j] == b'\\' {
        // escape: scan to the closing quote (bounded)
        j += 1;
        let mut steps = 0;
        while j < bytes.len() && steps < 12 {
            if bytes[j] == b'\'' {
                return Some(j + 1 - i);
            }
            j += 1;
            steps += 1;
        }
        return None;
    }
    // single UTF-8 char then a quote
    let ch_len = utf8_len(bytes[j]);
    j += ch_len;
    if j < bytes.len() && bytes[j] == b'\'' {
        Some(j + 1 - i)
    } else {
        None
    }
}

fn utf8_len(b: u8) -> usize {
    match b {
        b if b < 0x80 => 1,
        b if b >= 0xF0 => 4,
        b if b >= 0xE0 => 3,
        _ => 2,
    }
}

/// Mark lines belonging to `#[cfg(test)]` / `#[test]` items by matching
/// the braces of the attributed item. Operates on scrubbed code so braces
/// in strings/comments cannot confuse the matcher.
fn mark_test_lines(code: &str) -> Vec<bool> {
    let n_lines = code.lines().count() + 2;
    let mut marked = vec![false; n_lines + 1];
    let bytes = code.as_bytes();
    let mut i = 0usize;
    while let Some(off) = find_test_attr(&code[i..]) {
        let attr_start = i + off;
        // end of this attribute
        let mut j = attr_start;
        let mut depth = 0;
        while j < bytes.len() {
            match bytes[j] {
                b'[' => depth += 1,
                b']' => {
                    depth -= 1;
                    if depth == 0 {
                        j += 1;
                        break;
                    }
                }
                _ => {}
            }
            j += 1;
        }
        // skip any further attributes, then find the item body's `{ ... }`
        // (or a terminating `;` for `#[cfg(test)] mod tests;`).
        let mut k = j;
        loop {
            while k < bytes.len() && bytes[k].is_ascii_whitespace() {
                k += 1;
            }
            if k < bytes.len() && bytes[k] == b'#' {
                let mut d = 0;
                while k < bytes.len() {
                    match bytes[k] {
                        b'[' => d += 1,
                        b']' => {
                            d -= 1;
                            if d == 0 {
                                k += 1;
                                break;
                            }
                        }
                        _ => {}
                    }
                    k += 1;
                }
            } else {
                break;
            }
        }
        let mut brace_depth = 0usize;
        let mut end = k;
        while end < bytes.len() {
            match bytes[end] {
                b'{' => brace_depth += 1,
                b'}' => {
                    brace_depth -= 1;
                    if brace_depth == 0 {
                        end += 1;
                        break;
                    }
                }
                b';' if brace_depth == 0 => {
                    end += 1;
                    break;
                }
                _ => {}
            }
            end += 1;
        }
        let start_line = line_of(code, attr_start);
        let end_line = line_of(code, end.min(code.len().saturating_sub(1)));
        let last = end_line.min(n_lines);
        for m in marked.iter_mut().take(last + 1).skip(start_line) {
            *m = true;
        }
        i = end.max(attr_start + 1);
    }
    marked
}

fn find_test_attr(s: &str) -> Option<usize> {
    let a = s.find("#[cfg(test)]");
    let b = s.find("#[test]");
    let c = s.find("#[cfg(all(test");
    [a, b, c].into_iter().flatten().min()
}

fn line_of(s: &str, byte: usize) -> usize {
    s.as_bytes()[..byte.min(s.len())]
        .iter()
        .filter(|&&b| b == b'\n')
        .count()
        + 1
}

// ---------------------------------------------------------------------------
// Allow directives
// ---------------------------------------------------------------------------

/// Lines on which each rule is suppressed. A directive covers its own line
/// and the next line (so it can sit above the offending statement).
fn allowed_lines(scrubbed: &Scrubbed) -> HashMap<Rule, Vec<usize>> {
    let mut out: HashMap<Rule, Vec<usize>> = HashMap::new();
    for (line, text) in &scrubbed.comments {
        let Some(pos) = text.find("aimdb-lint:") else {
            continue;
        };
        let rest = &text[pos + "aimdb-lint:".len()..];
        let Some(open) = rest.find("allow(") else {
            continue;
        };
        let args = &rest[open + "allow(".len()..];
        let args = args.split(')').next().unwrap_or(args);
        for part in args.split(',') {
            if let Some(rule) = Rule::parse(part) {
                let e = out.entry(rule).or_default();
                e.push(*line);
                e.push(line + 1);
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Rule scans
// ---------------------------------------------------------------------------

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Occurrences of `needle` in `code` at identifier boundaries.
fn word_hits(code: &str, needle: &str) -> Vec<usize> {
    let mut out = Vec::new();
    let bytes = code.as_bytes();
    let mut from = 0;
    while let Some(off) = code[from..].find(needle) {
        let at = from + off;
        let before_ok = at == 0 || !is_ident_byte(bytes[at - 1]);
        let after = at + needle.len();
        let after_ok = after >= bytes.len() || !is_ident_byte(bytes[after]);
        if before_ok && after_ok {
            out.push(at);
        }
        from = at + needle.len();
    }
    out
}

fn col_of(code: &str, byte: usize) -> usize {
    let upto = &code.as_bytes()[..byte.min(code.len())];
    let last_nl = upto.iter().rposition(|&b| b == b'\n');
    byte - last_nl.map(|p| p + 1).unwrap_or(0) + 1
}

/// After `needle` at `at`, is the next non-whitespace byte `(`?
fn followed_by_paren(code: &str, at: usize, needle: &str) -> bool {
    let bytes = code.as_bytes();
    let mut j = at + needle.len();
    while j < bytes.len() && (bytes[j] == b' ' || bytes[j] == b'\n' || bytes[j] == b'\t') {
        j += 1;
    }
    j < bytes.len() && bytes[j] == b'('
}

fn scan_l001(scrubbed: &Scrubbed, file: &str, out: &mut Vec<Finding>) {
    let code = &scrubbed.code;
    let mut push = |at: usize, what: &str| {
        out.push(Finding {
            rule: Rule::L001,
            file: file.to_string(),
            line: line_of(code, at),
            col: col_of(code, at),
            message: format!("{what} in non-test code; return AimError instead"),
        });
    };
    let preceded_by_dot = |at: usize| {
        code.as_bytes()[..at]
            .iter()
            .rev()
            .find(|b| !b.is_ascii_whitespace())
            == Some(&b'.')
    };
    for at in word_hits(code, "unwrap") {
        // only method calls: `.unwrap()` — not `unwrap_or`, not fn defs
        if preceded_by_dot(at) && followed_by_paren(code, at, "unwrap") {
            push(at, "`unwrap()`");
        }
    }
    for at in word_hits(code, "expect") {
        // `self.expect(...)` is a domain method (e.g. a parser's token
        // matcher), not `Option/Result::expect` — a receiver that is
        // literally `self` cannot be an Option or Result here.
        let own_method = code[..at]
            .trim_end()
            .strip_suffix("self.")
            .is_some_and(|rest| !rest.as_bytes().last().copied().is_some_and(is_ident_byte));
        if preceded_by_dot(at) && followed_by_paren(code, at, "expect") && !own_method {
            push(at, "`expect(...)`");
        }
    }
    for at in word_hits(code, "panic") {
        let after = at + "panic".len();
        if code.as_bytes().get(after) == Some(&b'!') {
            push(at, "`panic!`");
        }
    }
}

const L002_PATTERNS: &[(&str, &str)] = &[
    ("thread_rng", "ambient RNG `thread_rng`"),
    ("from_entropy", "OS-entropy seeding `from_entropy`"),
    ("SystemTime::now", "wall-clock read `SystemTime::now`"),
    ("Instant::now", "wall-clock read `Instant::now`"),
];

fn scan_l002(scrubbed: &Scrubbed, file: &str, out: &mut Vec<Finding>) {
    let code = &scrubbed.code;
    for (needle, what) in L002_PATTERNS {
        // `X::now` hits both `Instant::now` and `time::Instant::now`;
        // word_hits boundary checks treat `::` as a boundary already.
        for at in word_hits(code, needle) {
            out.push(Finding {
                rule: Rule::L002,
                file: file.to_string(),
                line: line_of(code, at),
                col: col_of(code, at),
                message: format!(
                    "{what} is nondeterministic; use the seeded RNG / injected clock from aimdb-common"
                ),
            });
        }
    }
    // rand::random (qualified call)
    for at in word_hits(code, "random") {
        let before = &code[..at];
        if before.ends_with("rand::") {
            out.push(Finding {
                rule: Rule::L002,
                file: file.to_string(),
                line: line_of(code, at),
                col: col_of(code, at),
                message: "ambient RNG `rand::random` is nondeterministic; seed an StdRng instead"
                    .into(),
            });
        }
    }
}

fn scan_l003(scrubbed: &Scrubbed, file: &str, out: &mut Vec<Finding>) {
    let code = &scrubbed.code;
    let bytes = code.as_bytes();
    for at in word_hits(code, "fn") {
        // must be `pub fn` (possibly `pub(crate) fn` — those are not public
        // API, skip them).
        let before = code[..at].trim_end();
        if !before.ends_with("pub") {
            continue;
        }
        // signature: from `fn` to the first `{` or `;` at depth 0
        let mut j = at;
        let mut par = 0i32;
        let mut ang = 0i32;
        let mut sig_end = None;
        while j < bytes.len() {
            match bytes[j] {
                b'(' => par += 1,
                b')' => par -= 1,
                b'<' => ang += 1,
                b'>' if j > 0 && bytes[j - 1] != b'-' && bytes[j - 1] != b'=' => ang -= 1,
                b'{' | b';' if par == 0 => {
                    sig_end = Some(j);
                    break;
                }
                _ => {}
            }
            j += 1;
        }
        let _ = ang;
        let Some(end) = sig_end else { continue };
        let sig = &code[at..end];
        let Some(arrow) = sig.find("->") else {
            continue;
        };
        let ret = &sig[arrow + 2..];
        let mut bad: Option<&str> = None;
        if ret.contains("Box<dyn") && ret.contains("Error") {
            bad = Some("`Box<dyn Error>`");
        } else if let Some(err_ty) = result_err_type(ret) {
            if err_ty == "String" {
                bad = Some("`Result<_, String>`");
            } else if err_ty.starts_with("Box<dyn") && err_ty.contains("Error") {
                bad = Some("`Box<dyn Error>`");
            }
        }
        if let Some(what) = bad {
            out.push(Finding {
                rule: Rule::L003,
                file: file.to_string(),
                line: line_of(code, at),
                col: col_of(code, at),
                message: format!(
                    "public API returns {what}; public engine/storage functions must return AimError"
                ),
            });
        }
    }
}

const L004_NEEDLES: &[&str] = &["Mutex::new", "RwLock::new"];

fn scan_l004(scrubbed: &Scrubbed, file: &str, out: &mut Vec<Finding>) {
    let code = &scrubbed.code;
    for needle in L004_NEEDLES {
        for at in word_hits(code, needle) {
            if !followed_by_paren(code, at, needle) {
                continue;
            }
            let kind = needle.split("::").next().unwrap_or(needle);
            out.push(Finding {
                rule: Rule::L004,
                file: file.to_string(),
                line: line_of(code, at),
                col: col_of(code, at),
                message: format!(
                    "unranked `{needle}`; use `{kind}::with_rank(value, LockRank::...)` \
                     so the lock-order witness can check the hierarchy"
                ),
            });
        }
    }
}

const L005_NEEDLES: &[&str] = &[
    "Ordering::Relaxed",
    "Ordering::Acquire",
    "Ordering::Release",
    "Ordering::AcqRel",
    "Ordering::SeqCst",
];

fn scan_l005(scrubbed: &Scrubbed, file: &str, out: &mut Vec<Finding>) {
    let code = &scrubbed.code;
    // Lines covered by an `// ordering:` justification comment: the
    // comment's own line (trailing form) plus the statement below it —
    // following lines up to and including the first one ending in `;`
    // (capped, so a comment cannot blanket a whole function).
    let lines: Vec<&str> = code.lines().collect();
    let mut justified: Vec<usize> = Vec::new();
    for (cline, text) in &scrubbed.comments {
        if !text.contains("ordering:") {
            continue;
        }
        for l in *cline..=cline + 6 {
            justified.push(l);
            // lines[] is 0-based; stop once the statement ends
            if l > *cline && lines.get(l - 1).is_some_and(|s| s.contains(';')) {
                break;
            }
        }
    }
    for needle in L005_NEEDLES {
        for at in word_hits(code, needle) {
            let line = line_of(code, at);
            if justified.contains(&line) {
                continue;
            }
            out.push(Finding {
                rule: Rule::L005,
                file: file.to_string(),
                line,
                col: col_of(code, at),
                message: format!(
                    "`{needle}` without an adjacent `// ordering:` comment justifying \
                     the memory ordering"
                ),
            });
        }
    }
}

/// The second generic argument of the first `Result<...>` in a return
/// type, if it has one (i.e. it is not the workspace `Result<T>` alias).
fn result_err_type(ret: &str) -> Option<String> {
    let start = ret.find("Result<")? + "Result<".len();
    let bytes = ret.as_bytes();
    let mut depth = 1i32;
    let mut j = start;
    let mut comma_at_depth1: Option<usize> = None;
    while j < bytes.len() {
        match bytes[j] {
            b'<' => depth += 1,
            b'>' => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            b',' if depth == 1 && comma_at_depth1.is_none() => comma_at_depth1 = Some(j),
            _ => {}
        }
        j += 1;
    }
    let comma = comma_at_depth1?;
    Some(ret[comma + 1..j].trim().to_string())
}

// ---------------------------------------------------------------------------
// Entry points
// ---------------------------------------------------------------------------

/// Lint one file's source text. `crate_key` selects the applicable rules
/// (see [`rules_for_crate`]); `file` is the workspace-relative path used
/// in diagnostics.
pub fn lint_source(crate_key: &str, file: &str, src: &str) -> Vec<Finding> {
    let rules = rules_for_crate(crate_key);
    if rules.is_empty() {
        return Vec::new();
    }
    let scrubbed = scrub(src);
    let mut raw = Vec::new();
    if rules.contains(&Rule::L001) {
        scan_l001(&scrubbed, file, &mut raw);
    }
    if rules.contains(&Rule::L002) {
        scan_l002(&scrubbed, file, &mut raw);
    }
    if rules.contains(&Rule::L003) {
        scan_l003(&scrubbed, file, &mut raw);
    }
    if rules.contains(&Rule::L004) {
        scan_l004(&scrubbed, file, &mut raw);
    }
    if rules.contains(&Rule::L005) {
        scan_l005(&scrubbed, file, &mut raw);
    }
    let allowed = allowed_lines(&scrubbed);
    raw.retain(|f| {
        if scrubbed.test_lines.get(f.line).copied().unwrap_or(false) {
            return false;
        }
        !allowed
            .get(&f.rule)
            .is_some_and(|lines| lines.contains(&f.line))
    });
    raw.sort_by_key(|a| (a.line, a.col, a.rule));
    raw
}

/// The crate key for a workspace-relative path
/// (`crates/engine/src/db.rs` → `engine`, `src/lib.rs` → `aimdb`).
pub fn crate_key_of(rel_path: &str) -> Option<String> {
    let p = rel_path.replace('\\', "/");
    if let Some(rest) = p.strip_prefix("crates/") {
        return rest.split('/').next().map(str::to_string);
    }
    if p.starts_with("src/") {
        return Some("aimdb".to_string());
    }
    None
}

// ---------------------------------------------------------------------------
// Baseline (ratchet) handling
// ---------------------------------------------------------------------------

/// Parse `lint-baseline.txt`. Lines are either `<rule> <path> <count>` or
/// the legacy two-field `<path> <count>` (implicitly L001); `#` comments.
pub fn parse_baseline(text: &str) -> HashMap<(Rule, String), usize> {
    let mut out = HashMap::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let fields: Vec<&str> = line.split_whitespace().collect();
        match fields.as_slice() {
            [rule, path, count] => {
                if let (Some(r), Ok(n)) = (Rule::parse(rule), count.parse::<usize>()) {
                    out.insert((r, path.to_string()), n);
                }
            }
            [path, count] => {
                if let Ok(n) = count.parse::<usize>() {
                    out.insert((Rule::L001, path.to_string()), n);
                }
            }
            _ => {}
        }
    }
    out
}

/// Render a baseline map back to the checked-in format (sorted). L001
/// entries keep the legacy two-field form; other rules are prefixed.
pub fn render_baseline(counts: &HashMap<(Rule, String), usize>) -> String {
    let mut out = String::from(
        "# aimdb-lint ratchet baseline — existing debt, per rule and file.\n\
         # L001 lines are `<path> <count>`; other rules are `<rule> <path> <count>`.\n\
         # Counts may only go DOWN. Regenerate with: cargo run -p lint -- --update-baseline\n",
    );
    let mut entries: Vec<(&(Rule, String), &usize)> =
        counts.iter().filter(|(_, n)| **n > 0).collect();
    entries.sort();
    for ((rule, path), n) in entries {
        if *rule == Rule::L001 {
            out.push_str(&format!("{path} {n}\n"));
        } else {
            out.push_str(&format!("{rule} {path} {n}\n"));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scrub_blanks_comments_and_strings() {
        let s = scrub("let a = \"unwrap()\"; // panic! here\nlet b = 1;");
        assert!(!s.code.contains("unwrap"));
        assert!(!s.code.contains("panic"));
        assert_eq!(s.comments.len(), 1);
        assert!(s.comments[0].1.contains("panic!"));
    }

    #[test]
    fn scrub_handles_raw_strings_and_chars() {
        let s = scrub("let a = r#\"x.unwrap()\"#; let c = '\\n'; let d = 'x';");
        assert!(!s.code.contains("unwrap"));
        // lifetimes survive
        let s = scrub("fn f<'a>(x: &'a str) {}");
        assert!(s.code.contains("fn f<'a>"));
    }

    #[test]
    fn test_regions_are_marked() {
        let src =
            "fn live() { x.unwrap(); }\n#[cfg(test)]\nmod tests {\n    fn t() { y.unwrap(); }\n}\n";
        let s = scrub(src);
        assert!(!s.test_lines[1]);
        assert!(s.test_lines[3]);
        assert!(s.test_lines[4]);
    }

    #[test]
    fn result_err_type_extraction() {
        assert_eq!(
            result_err_type(" Result<u32, String> "),
            Some("String".into())
        );
        assert_eq!(result_err_type(" Result<u32> "), None);
        assert_eq!(
            result_err_type(" Result<Vec<u8>, Box<dyn Error>> "),
            Some("Box<dyn Error>".into())
        );
        assert_eq!(result_err_type(" HashMap<String, String> "), None);
    }
}
