//! The hc2l source-level static-analysis pass (`cargo run -p xtask -- lint`).
//!
//! Pure std, no rustc plumbing: a line/byte-level scanner with a real
//! string-and-comment mask, which is exactly enough for the four rules the
//! workspace enforces on top of rustc and clippy:
//!
//! * **`safety-comment`** — every `unsafe` block, fn, trait or impl must be
//!   immediately preceded by a `// SAFETY:` comment stating the invariant
//!   that makes it sound (`unsafe fn`/`unsafe trait` declarations may carry
//!   a `# Safety` doc section instead). Applies to every first-party file,
//!   tests included.
//! * **`no-panic`** — `.unwrap()`, `.expect(` and `panic!` are forbidden in
//!   the non-test request paths of `crates/serve`: a panicking handler is a
//!   dropped connection at best and a dead worker at worst, and the serve
//!   layer's whole fault story is typed errors plus `catch_unwind` as a
//!   last resort. Genuinely-infallible cases carry an inline waiver.
//! * **`truncating-cast`** — narrowing `as` casts (`as u8/u16/u32/usize`)
//!   are forbidden in the decode paths of `crates/graph/src/container.rs`;
//!   untrusted on-disk lengths and offsets must go through `try_into` so
//!   truncation is a typed error, not a silent wrap.
//! * **`relaxed-publish`** — `Ordering::Relaxed` stores are flagged on the
//!   publication fields listed in [`PUBLICATION_FIELDS`]: those stores are
//!   the release edges other threads' acquire loads synchronise with, and
//!   demoting one to `Relaxed` is a real race that type-checks fine.
//!
//! A violation that is actually sound can be waived with an inline marker
//! on the same or the immediately preceding line —
//! `// lint:allow(<rule>): <reason>` — which the lint treats as reviewed
//! and deliberate. `--self-test` runs the rules against seeded bad
//! fixtures and fails if any rule has gone blind.

use std::fmt;
use std::path::{Path, PathBuf};

/// Serve-crate files that execute on the request path: a panic here takes
/// a connection or a worker down. The bins (process entry points, where
/// exiting loudly is correct) are deliberately absent.
const SERVE_REQUEST_PATH_FILES: &[&str] = &[
    "crates/serve/src/server.rs",
    "crates/serve/src/reactor.rs",
    "crates/serve/src/protocol.rs",
    "crates/serve/src/cache.rs",
    "crates/serve/src/lockfree.rs",
    "crates/serve/src/metrics.rs",
    "crates/serve/src/lib.rs",
];

/// The file whose decode paths must not truncate.
const CONTAINER_FILE: &str = "crates/graph/src/container.rs";

/// Function-name fragments that mark a `container.rs` function as a decode
/// path (it consumes untrusted on-disk bytes).
const DECODE_FN_MARKERS: &[&str] = &["read", "decode", "open", "from_bytes", "parse", "validate"];

/// Publication fields: a `.store(_, Ordering::Relaxed)` on a field with one
/// of these names is flagged, because another thread's acquire load
/// synchronises with exactly that store. The table is the lint's shipped
/// knowledge of the workspace's lock-free protocols:
///
/// | field         | protocol                                              |
/// |---------------|-------------------------------------------------------|
/// | `seq`         | seqlock word (serve cache table): the even re-publish |
/// |               | must be `Release` or readers can see torn data        |
/// | `published`   | generation-swap epoch mirror (`EpochMirror`): must be |
/// |               | `Release`-published before the new generation swaps in|
/// | `cache_epoch` | historical name of the same mirror                    |
/// | `engine_failed` | update-engine kill switch: gates whether a damaged  |
/// |               | engine is reachable, so it pairs with acquire loads   |
/// | `shutdown`    | serve-loop stop flag: drains and connection teardown  |
/// |               | synchronise on it                                     |
const PUBLICATION_FIELDS: &[&str] = &[
    "seq",
    "published",
    "cache_epoch",
    "engine_failed",
    "shutdown",
];

/// Directories walked for lintable sources, relative to the workspace
/// root. `vendor/` (offline stand-ins for external crates) and `target/`
/// are not first-party code.
const LINT_ROOTS: &[&str] = &["crates", "src", "tests", "examples", "xtask/src"];

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    pub file: String,
    pub line: usize,
    pub rule: &'static str,
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

pub fn run(args: &[String]) -> i32 {
    let mut self_test = false;
    let mut root = PathBuf::from(".");
    for a in args {
        match a.as_str() {
            "--self-test" => self_test = true,
            other => root = PathBuf::from(other),
        }
    }
    if self_test {
        return run_self_test();
    }
    let mut files = Vec::new();
    for sub in LINT_ROOTS {
        collect_rs_files(&root.join(sub), &mut files);
    }
    files.sort();
    let mut violations = Vec::new();
    let mut scanned = 0usize;
    for path in &files {
        let Ok(source) = std::fs::read_to_string(path) else {
            continue;
        };
        scanned += 1;
        let rel = path
            .strip_prefix(&root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        violations.extend(lint_source(&rel, &source));
    }
    for v in &violations {
        println!("{v}");
    }
    println!(
        "xtask lint: {} file(s) scanned, {} violation(s)",
        scanned,
        violations.len()
    );
    if violations.is_empty() {
        0
    } else {
        1
    }
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name == "vendor" || name.starts_with('.') {
                continue;
            }
            collect_rs_files(&path, out);
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
}

// ---------------------------------------------------------------------------
// Source model: byte mask + lines
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Region {
    Code,
    Comment,
    Str,
}

/// A parsed source file: the raw text, a per-byte code/comment/string mask,
/// line offsets, and the `#[cfg(test)]` line ranges.
struct SourceFile<'a> {
    path: &'a str,
    text: &'a str,
    mask: Vec<Region>,
    /// Byte offset of each line start.
    line_starts: Vec<usize>,
    /// `true` for lines inside a `#[cfg(test)]` module.
    test_lines: Vec<bool>,
}

/// Classifies every byte as code, comment or string. Handles line and
/// (nested) block comments, string/byte-string literals with escapes, raw
/// strings with hash guards, char literals, and the char-vs-lifetime
/// ambiguity.
fn build_mask(text: &str) -> Vec<Region> {
    let b = text.as_bytes();
    let mut mask = vec![Region::Code; b.len()];
    let mut i = 0;
    while i < b.len() {
        match b[i] {
            b'/' if i + 1 < b.len() && b[i + 1] == b'/' => {
                let end = text[i..].find('\n').map_or(b.len(), |n| i + n);
                mask[i..end].fill(Region::Comment);
                i = end;
            }
            b'/' if i + 1 < b.len() && b[i + 1] == b'*' => {
                let mut depth = 1;
                let mut j = i + 2;
                while j < b.len() && depth > 0 {
                    if b[j] == b'/' && j + 1 < b.len() && b[j + 1] == b'*' {
                        depth += 1;
                        j += 2;
                    } else if b[j] == b'*' && j + 1 < b.len() && b[j + 1] == b'/' {
                        depth -= 1;
                        j += 2;
                    } else {
                        j += 1;
                    }
                }
                mask[i..j].fill(Region::Comment);
                i = j;
            }
            b'"' => {
                let mut j = i + 1;
                while j < b.len() {
                    if b[j] == b'\\' {
                        j += 2;
                    } else if b[j] == b'"' {
                        j += 1;
                        break;
                    } else {
                        j += 1;
                    }
                }
                let j = j.min(b.len());
                mask[i..j].fill(Region::Str);
                i = j;
            }
            b'r' if i + 1 < b.len() && (b[i + 1] == b'"' || b[i + 1] == b'#') => {
                // Raw string r"..." / r#"..."# (also br" via the b branch
                // below falling through to here next byte).
                let mut hashes = 0;
                let mut j = i + 1;
                while j < b.len() && b[j] == b'#' {
                    hashes += 1;
                    j += 1;
                }
                if j < b.len() && b[j] == b'"' {
                    let closer: String = std::iter::once('"')
                        .chain("#".repeat(hashes).chars())
                        .collect();
                    let end = text[j + 1..]
                        .find(&closer)
                        .map_or(b.len(), |n| j + 1 + n + closer.len());
                    mask[i..end].fill(Region::Str);
                    i = end;
                } else {
                    i += 1; // identifier starting with r
                }
            }
            b'\'' => {
                // Char literal or lifetime. 'x' / '\n' / '\u{..}' are
                // literals; 'ident (no closing quote nearby) is a lifetime.
                if i + 1 < b.len() && b[i + 1] == b'\\' {
                    let mut j = i + 2;
                    while j < b.len() && b[j] != b'\'' {
                        j += 1;
                    }
                    let j = (j + 1).min(b.len());
                    mask[i..j].fill(Region::Str);
                    i = j;
                } else if i + 2 < b.len() && b[i + 2] == b'\'' {
                    mask[i..i + 3].fill(Region::Str);
                    i += 3;
                } else {
                    i += 1; // lifetime
                }
            }
            _ => i += 1,
        }
    }
    mask
}

impl<'a> SourceFile<'a> {
    fn parse(path: &'a str, text: &'a str) -> Self {
        let mask = build_mask(text);
        let mut line_starts = vec![0usize];
        for (i, c) in text.bytes().enumerate() {
            if c == b'\n' {
                line_starts.push(i + 1);
            }
        }
        let mut sf = SourceFile {
            path,
            text,
            mask,
            line_starts,
            test_lines: Vec::new(),
        };
        sf.test_lines = sf.find_test_lines();
        sf
    }

    fn line_of(&self, offset: usize) -> usize {
        match self.line_starts.binary_search(&offset) {
            Ok(i) => i + 1,
            Err(i) => i,
        }
    }

    fn line_span(&self, line: usize) -> (usize, usize) {
        let start = self.line_starts[line - 1];
        let end = self
            .line_starts
            .get(line)
            .map_or(self.text.len(), |&s| s.saturating_sub(1));
        (start, end.max(start))
    }

    fn num_lines(&self) -> usize {
        self.line_starts.len()
    }

    /// The line's text with string/comment bytes replaced by spaces.
    fn code_of_line(&self, line: usize) -> String {
        let (s, e) = self.line_span(line);
        self.text[s..e]
            .bytes()
            .enumerate()
            .map(|(i, c)| {
                if self.mask[s + i] == Region::Code {
                    c as char
                } else {
                    ' '
                }
            })
            .collect()
    }

    /// The line's comment text (only bytes masked as comment).
    fn comment_of_line(&self, line: usize) -> String {
        let (s, e) = self.line_span(line);
        self.text[s..e]
            .bytes()
            .enumerate()
            .map(|(i, c)| {
                if self.mask[s + i] == Region::Comment {
                    c as char
                } else {
                    ' '
                }
            })
            .collect()
    }

    fn raw_line(&self, line: usize) -> &str {
        let (s, e) = self.line_span(line);
        &self.text[s..e]
    }

    /// Marks every line inside a `#[cfg(test)]`-attributed item (module or
    /// function) by brace-matching from the attribute.
    fn find_test_lines(&self) -> Vec<bool> {
        let mut test = vec![false; self.num_lines() + 1];
        let mut search = 0;
        while let Some(found) = self.text[search..].find("#[cfg(test)]") {
            let at = search + found;
            search = at + 1;
            if self.mask[at] != Region::Code {
                continue;
            }
            // Find the item's opening brace and its match.
            let Some(open_rel) = self.text[at..].find('{') else {
                break;
            };
            let open = at + open_rel;
            let close = self.match_brace(open);
            let (from, to) = (self.line_of(at), self.line_of(close));
            for line in test.iter_mut().take(to + 1).skip(from) {
                *line = true;
            }
        }
        test
    }

    /// Byte offset of the `}` matching the `{` at `open` (code bytes only).
    fn match_brace(&self, open: usize) -> usize {
        let b = self.text.as_bytes();
        let mut depth = 0usize;
        for (i, &ch) in b.iter().enumerate().skip(open) {
            if self.mask[i] != Region::Code {
                continue;
            }
            match ch {
                b'{' => depth += 1,
                b'}' => {
                    depth -= 1;
                    if depth == 0 {
                        return i;
                    }
                }
                _ => {}
            }
        }
        self.text.len().saturating_sub(1)
    }

    fn is_test_line(&self, line: usize) -> bool {
        self.test_lines.get(line).copied().unwrap_or(false)
    }

    /// Whether `line` (or the line above) carries a `lint:allow(<rule>)`
    /// waiver comment.
    fn allowed(&self, line: usize, rule: &str) -> bool {
        let marker = format!("lint:allow({rule})");
        if self.comment_of_line(line).contains(&marker) {
            return true;
        }
        line > 1 && self.comment_of_line(line - 1).contains(&marker)
    }

    /// All code-region byte offsets where `needle` occurs with identifier
    /// boundaries on both sides.
    fn code_occurrences(&self, needle: &str) -> Vec<usize> {
        let is_ident = |c: u8| c.is_ascii_alphanumeric() || c == b'_';
        let b = self.text.as_bytes();
        let mut out = Vec::new();
        let mut search = 0;
        while let Some(found) = self.text[search..].find(needle) {
            let at = search + found;
            search = at + 1;
            if self.mask[at] != Region::Code {
                continue;
            }
            if at > 0 && is_ident(b[at - 1]) {
                continue;
            }
            let end = at + needle.len();
            if end < b.len() && needle.bytes().next_back().is_some_and(is_ident) && is_ident(b[end])
            {
                continue;
            }
            out.push(at);
        }
        out
    }
}

// ---------------------------------------------------------------------------
// The rules
// ---------------------------------------------------------------------------

/// Lints one file; the unit the self-test and the unit tests drive.
pub fn lint_source(path: &str, text: &str) -> Vec<Violation> {
    let sf = SourceFile::parse(path, text);
    let mut out = Vec::new();
    rule_safety_comment(&sf, &mut out);
    if SERVE_REQUEST_PATH_FILES.iter().any(|f| path.ends_with(f)) {
        rule_no_panic(&sf, &mut out);
    }
    if path.ends_with(CONTAINER_FILE) {
        rule_truncating_cast(&sf, &mut out);
    }
    rule_relaxed_publish(&sf, &mut out);
    out
}

/// `safety-comment`: every `unsafe` must carry its proof obligation next to
/// it.
fn rule_safety_comment(sf: &SourceFile<'_>, out: &mut Vec<Violation>) {
    for at in sf.code_occurrences("unsafe") {
        let line = sf.line_of(at);
        // What follows the keyword decides which documentation shapes count.
        let rest = sf.text[at + "unsafe".len()..].trim_start().as_bytes();
        let is_decl =
            rest.starts_with(b"fn") || rest.starts_with(b"trait") || rest.starts_with(b"extern");
        if has_safety_comment(sf, line) {
            continue;
        }
        if is_decl && has_safety_doc(sf, line) {
            continue;
        }
        let kind = if is_decl {
            "declaration"
        } else if rest.starts_with(b"impl") {
            "impl"
        } else {
            "block"
        };
        out.push(Violation {
            file: sf.path.to_owned(),
            line,
            rule: "safety-comment",
            message: format!(
                "unsafe {kind} without an immediately preceding `// SAFETY:` comment{}",
                if is_decl {
                    " (or a `# Safety` doc section)"
                } else {
                    ""
                }
            ),
        });
    }
}

/// Scans the unsafe site's own line, then upward through comment and
/// attribute lines — and through the current statement's continuation
/// lines — for a `SAFETY:` comment. Stops at a statement boundary (a code
/// line ending in `;`, `{` or `}`) or a blank line, capped at 8 lines.
fn has_safety_comment(sf: &SourceFile<'_>, line: usize) -> bool {
    if sf.comment_of_line(line).contains("SAFETY:") {
        return true;
    }
    let mut l = line;
    for _ in 0..8 {
        if l <= 1 {
            return false;
        }
        l -= 1;
        if sf.comment_of_line(l).contains("SAFETY:") {
            return true;
        }
        let code = sf.code_of_line(l);
        let code = code.trim_end();
        if code.ends_with(';') || code.ends_with('{') || code.ends_with('}') {
            return false; // previous statement: the search is over
        }
        if code.trim().is_empty() && sf.raw_line(l).trim().is_empty() {
            return false; // blank line: not "immediately preceding"
        }
    }
    false
}

/// Accepts a `/// # Safety` section in the doc block directly above an
/// `unsafe fn` / `unsafe trait` declaration (attributes may intervene).
fn has_safety_doc(sf: &SourceFile<'_>, line: usize) -> bool {
    let mut l = line;
    while l > 1 {
        l -= 1;
        let raw = sf.raw_line(l).trim();
        if raw.starts_with("///") || raw.starts_with("//!") {
            if raw.contains("# Safety") {
                return true;
            }
        } else if raw.starts_with("#[") || raw.starts_with("//") {
            // attributes and plain comments between doc and decl are fine
        } else {
            return false;
        }
    }
    false
}

/// `no-panic`: request-path files must not contain `.unwrap()`, `.expect(`
/// or `panic!` outside `#[cfg(test)]` code.
fn rule_no_panic(sf: &SourceFile<'_>, out: &mut Vec<Violation>) {
    let patterns: &[(&str, &str)] = &[
        (".unwrap()", "`.unwrap()`"),
        (".expect(", "`.expect(..)`"),
        ("panic!", "`panic!`"),
    ];
    for (needle, label) in patterns {
        let mut found = Vec::new();
        let mut search = 0;
        while let Some(rel) = sf.text[search..].find(needle) {
            let at = search + rel;
            search = at + 1;
            if sf.mask[at] != Region::Code {
                continue;
            }
            // `.expect(` must not match `.expect_err(` — it cannot, since
            // the needle includes the paren; but `panic!` must not match
            // inside identifiers like `catch_panic!`.
            if *needle == "panic!" {
                let b = sf.text.as_bytes();
                if at > 0 && (b[at - 1].is_ascii_alphanumeric() || b[at - 1] == b'_') {
                    continue;
                }
            }
            found.push(at);
        }
        for at in found {
            let line = sf.line_of(at);
            if sf.is_test_line(line) || sf.allowed(line, "no-panic") {
                continue;
            }
            out.push(Violation {
                file: sf.path.to_owned(),
                line,
                rule: "no-panic",
                message: format!(
                    "{label} on a serve request path: return a typed error instead \
                     (or waive with `// lint:allow(no-panic): <why it cannot fire>`)"
                ),
            });
        }
    }
}

/// `truncating-cast`: decode-path functions in container.rs must `try_into`
/// instead of `as`-narrowing untrusted values.
fn rule_truncating_cast(sf: &SourceFile<'_>, out: &mut Vec<Violation>) {
    // Collect decode-path function spans: `fn <name>` where the name
    // contains a decode marker.
    let mut decode_spans: Vec<(usize, usize)> = Vec::new();
    for at in sf.code_occurrences("fn") {
        let after = &sf.text[at + 2..];
        let name: String = after
            .trim_start()
            .chars()
            .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
            .collect();
        if !DECODE_FN_MARKERS.iter().any(|m| name.contains(m)) {
            continue;
        }
        // Find the body's opening brace (skip `;`-terminated trait sigs).
        let b = sf.text.as_bytes();
        let mut j = at;
        let open = loop {
            if j >= b.len() {
                break None;
            }
            if sf.mask[j] == Region::Code {
                if b[j] == b'{' {
                    break Some(j);
                }
                if b[j] == b';' {
                    break None;
                }
            }
            j += 1;
        };
        if let Some(open) = open {
            decode_spans.push((open, sf.match_brace(open)));
        }
    }
    for at in sf.code_occurrences("as") {
        let target: String = sf.text[at + 2..]
            .trim_start()
            .chars()
            .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
            .collect();
        if !matches!(target.as_str(), "u8" | "u16" | "u32" | "usize") {
            continue;
        }
        if !decode_spans.iter().any(|&(s, e)| at > s && at < e) {
            continue;
        }
        let line = sf.line_of(at);
        if sf.is_test_line(line) || sf.allowed(line, "truncating-cast") {
            continue;
        }
        out.push(Violation {
            file: sf.path.to_owned(),
            line,
            rule: "truncating-cast",
            message: format!(
                "`as {target}` in a container decode path: use `try_into` so a \
                 truncated on-disk value is a typed error, not a silent wrap \
                 (or waive with `// lint:allow(truncating-cast): <why lossless>`)"
            ),
        });
    }
}

/// `relaxed-publish`: `.store(_, Ordering::Relaxed)` on a publication field.
fn rule_relaxed_publish(sf: &SourceFile<'_>, out: &mut Vec<Violation>) {
    let b = sf.text.as_bytes();
    for field in PUBLICATION_FIELDS {
        let needle = format!(".{field}.store(");
        let mut search = 0;
        while let Some(rel) = sf.text[search..].find(&needle) {
            let at = search + rel;
            search = at + 1;
            if sf.mask[at] != Region::Code {
                continue;
            }
            // The call's argument list: match parens from the `(`.
            let open = at + needle.len() - 1;
            let mut depth = 0usize;
            let mut close = open;
            for (i, &ch) in b.iter().enumerate().skip(open) {
                if sf.mask[i] != Region::Code {
                    continue;
                }
                match ch {
                    b'(' => depth += 1,
                    b')' => {
                        depth -= 1;
                        if depth == 0 {
                            close = i;
                            break;
                        }
                    }
                    _ => {}
                }
            }
            let args = &sf.text[open..=close.min(b.len() - 1)];
            if !args.contains("Relaxed") {
                continue;
            }
            let line = sf.line_of(at);
            if sf.is_test_line(line) || sf.allowed(line, "relaxed-publish") {
                continue;
            }
            out.push(Violation {
                file: sf.path.to_owned(),
                line,
                rule: "relaxed-publish",
                message: format!(
                    "`Relaxed` store on publication field `{field}`: other threads' \
                     acquire loads synchronise with this store, it must be `Release` \
                     (or stronger); waive with `// lint:allow(relaxed-publish): <proof>`"
                ),
            });
        }
    }
}

// ---------------------------------------------------------------------------
// Self-test: the lint must fail on seeded bad fixtures
// ---------------------------------------------------------------------------

/// Bad fixtures, one per rule; `--self-test` asserts each fires and that a
/// clean fixture stays clean. A lint that stops seeing its own seeded bugs
/// fails CI before it can wave real ones through.
fn run_self_test() -> i32 {
    struct Case {
        name: &'static str,
        path: &'static str,
        source: &'static str,
        expect_rule: &'static str,
        expect_count: usize,
    }
    let cases = [
        Case {
            name: "undocumented unsafe block",
            path: "crates/graph/src/fixture.rs",
            source: "fn f(p: *const u8) -> u8 {\n    unsafe { *p }\n}\n",
            expect_rule: "safety-comment",
            expect_count: 1,
        },
        Case {
            name: "documented unsafe passes",
            path: "crates/graph/src/fixture.rs",
            source: "fn f(p: *const u8) -> u8 {\n    // SAFETY: caller guarantees p is valid.\n    unsafe { *p }\n}\n",
            expect_rule: "safety-comment",
            expect_count: 0,
        },
        Case {
            name: "unwrap on the request path",
            path: "crates/serve/src/server.rs",
            source: "fn handle() -> u64 {\n    let v: Option<u64> = None;\n    v.unwrap()\n}\n",
            expect_rule: "no-panic",
            expect_count: 1,
        },
        Case {
            name: "panic! in request-path helper",
            path: "crates/serve/src/reactor.rs",
            source: "fn handle(x: bool) {\n    if x {\n        panic!(\"boom\");\n    }\n}\n",
            expect_rule: "no-panic",
            expect_count: 1,
        },
        Case {
            name: "unwrap under cfg(test) passes",
            path: "crates/serve/src/server.rs",
            source: "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n        Some(1).unwrap();\n    }\n}\n",
            expect_rule: "no-panic",
            expect_count: 0,
        },
        Case {
            name: "truncating cast in a decode path",
            path: "crates/graph/src/container.rs",
            source: "fn read_header(len: u64) -> u32 {\n    len as u32\n}\n",
            expect_rule: "truncating-cast",
            expect_count: 1,
        },
        Case {
            name: "cast outside decode paths passes",
            path: "crates/graph/src/container.rs",
            source: "fn shard_index(len: u64) -> u32 {\n    len as u32\n}\n",
            expect_rule: "truncating-cast",
            expect_count: 0,
        },
        Case {
            name: "relaxed store on a publication field",
            path: "crates/serve/src/anywhere.rs",
            source: "fn publish(s: &Slot) {\n    s.seq.store(2, Ordering::Relaxed);\n}\n",
            expect_rule: "relaxed-publish",
            expect_count: 1,
        },
        Case {
            name: "release store on a publication field passes",
            path: "crates/serve/src/anywhere.rs",
            source: "fn publish(s: &Slot) {\n    s.seq.store(2, Ordering::Release);\n}\n",
            expect_rule: "relaxed-publish",
            expect_count: 0,
        },
    ];
    let mut failures = 0;
    for case in &cases {
        let got = lint_source(case.path, case.source)
            .into_iter()
            .filter(|v| v.rule == case.expect_rule)
            .count();
        if got == case.expect_count {
            println!("self-test PASS: {}", case.name);
        } else {
            println!(
                "self-test FAIL: {} (expected {} {} violation(s), got {})",
                case.name, case.expect_count, case.expect_rule, got
            );
            failures += 1;
        }
    }
    if failures == 0 {
        println!("xtask lint --self-test: all {} cases pass", cases.len());
        0
    } else {
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mask_classifies_strings_and_comments() {
        let src = "let s = \"unsafe\"; // unsafe in comment\nlet c = 'u';\n";
        let sf = SourceFile::parse("x.rs", src);
        assert!(sf.code_occurrences("unsafe").is_empty());
    }

    #[test]
    fn raw_strings_and_nested_comments_are_masked() {
        let src = "let s = r#\"panic! \"inner\" \"#;\n/* outer /* panic! */ still comment */\n";
        let sf = SourceFile::parse("crates/serve/src/server.rs", src);
        let v = lint_source("crates/serve/src/server.rs", src);
        assert!(v.is_empty(), "{v:?}");
        assert!(sf.code_occurrences("panic").is_empty());
    }

    #[test]
    fn safety_comment_reaches_through_attributes_and_continuations() {
        let src = "\
// SAFETY: proven above.
#[cfg(target_arch = \"x86_64\")]
let dst =
    unsafe { core::mem::transmute(x) };
";
        assert!(lint_source("crates/graph/src/x.rs", src).is_empty());
        let src_bad = "\
let unrelated = 3;
let dst =
    unsafe { core::mem::transmute(x) };
";
        let v = lint_source("crates/graph/src/x.rs", src_bad);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "safety-comment");
        assert_eq!(v[0].line, 3);
    }

    #[test]
    fn safety_doc_section_satisfies_unsafe_fn() {
        let src = "\
/// Does things.
///
/// # Safety
/// Caller must uphold the thing.
#[inline]
pub unsafe fn danger() {}
";
        assert!(lint_source("crates/graph/src/x.rs", src).is_empty());
    }

    #[test]
    fn unsafe_impl_requires_safety_comment() {
        let bad = "unsafe impl Send for X {}\n";
        let v = lint_source("crates/graph/src/x.rs", bad);
        assert_eq!(v.len(), 1, "{v:?}");
        let good = "// SAFETY: X owns no thread-affine state.\nunsafe impl Send for X {}\n";
        assert!(lint_source("crates/graph/src/x.rs", good).is_empty());
    }

    #[test]
    fn no_panic_waiver_and_scoping() {
        // expect() with a waiver on the preceding line passes...
        let src = "fn f() {\n    // lint:allow(no-panic): fresh mutex, cannot be poisoned\n    m.lock().expect(\"poisoned\");\n}\n";
        assert!(lint_source("crates/serve/src/protocol.rs", src).is_empty());
        // ...and the same file outside the request-path list is unscoped.
        let src2 = "fn f() {\n    m.lock().expect(\"poisoned\");\n}\n";
        assert!(lint_source("crates/serve/src/bin/serve.rs", src2).is_empty());
        assert_eq!(lint_source("crates/serve/src/protocol.rs", src2).len(), 1);
    }

    #[test]
    fn truncating_cast_allows_waiver_and_widening() {
        let src = "fn read_len(x: u64) -> u64 {\n    let w = x as u64;\n    // lint:allow(truncating-cast): x was bounds-checked above\n    let n = x as u32;\n    w + n as u64\n}\n";
        assert!(lint_source("crates/graph/src/container.rs", src).is_empty());
    }

    #[test]
    fn relaxed_publish_spots_multiline_calls() {
        let src = "fn f(s: &S) {\n    s.cache_epoch.store(\n        1,\n        Ordering::Relaxed,\n    );\n}\n";
        let v = lint_source("crates/serve/src/server.rs", src);
        assert!(v.iter().any(|v| v.rule == "relaxed-publish"), "{v:?}");
    }

    #[test]
    fn self_test_passes() {
        assert_eq!(run_self_test(), 0);
    }
}
