//! **steer-audit**: the repository's source-hygiene gate, replacing the
//! inline `grep` chains CI used to carry. Each historical gate keeps
//! its exact intent, but matching happens on *lexed Rust tokens* — string
//! literals, char literals, and comments are scrubbed first — so a banned
//! pattern quoted in a doc comment or an error message can never produce
//! a false hit, and a real violation split across whitespace or lines can
//! never hide.
//!
//! The four checks:
//!
//! 1. `unbounded-queue` — no unbounded channels or grow-forever queues in
//!    the serving layer (`crates/core/src/serve.rs`). Admission control is
//!    a ceiling-checked `BinaryHeap`; anything else regresses the
//!    overload-bounded-allocation invariant.
//! 2. `panicking-float-cmp` — no `partial_cmp(..).unwrap()/.expect()`
//!    comparators; use `f64::total_cmp` or the `nan_{last,first}_cmp`
//!    orderings.
//! 3. `rule-vec-hot-path` — no `Vec<RuleId>` materialization in the
//!    explore/implement hot path (`search.rs`/`transform.rs`/`memo.rs`);
//!    iterate `RuleSet` masks. `classic.rs` keeps the old shape on
//!    purpose — it is the frozen differential oracle — and is simply not
//!    in the checked file set.
//! 4. `raw-cost-compare` — no raw `.cost <` / `.cost >` scalar
//!    comparisons anywhere: ranking a candidate must go through
//!    `CostWeights::scalarize` / `CostModel::scalar` so weight configs
//!    and promoted runtime corrections apply at every comparison point.
//!    (Token matching makes this precise: post-migration sites such as
//!    `candidate_cost < w.cost` keep `.cost` on the right-hand side and
//!    never match; `>=`/`<=` lex with a leading `>`/`<` and do.)
//!
//! Zero dependencies beyond `std`.
//!
//! Run from the repo root: `cargo run -p scope-steer-bench --release --bin steer_audit`

use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};

/// Which files a check scans.
#[derive(Clone, Copy)]
enum Scope {
    /// Exactly one file (repo-relative, forward slashes).
    File(&'static str),
    /// Every `.rs` file under the walked roots.
    All,
    /// Any file whose repo-relative path ends with one of these suffixes.
    Suffixes(&'static [&'static str]),
}

/// A token sequence to forbid: identifiers match whole lexed words,
/// single-character strings match punctuation verbatim.
type Seq = &'static [&'static str];

struct Check {
    id: &'static str,
    scope: Scope,
    /// Plain forbidden token sequences (any match is a violation).
    seqs: &'static [Seq],
    /// Also run the `partial_cmp(..).unwrap()/.expect()` matcher, which
    /// needs balanced-paren skipping a fixed sequence can't express.
    panicking_float_cmp: bool,
    message: &'static str,
}

const CHECKS: &[Check] = &[
    Check {
        id: "unbounded-queue",
        scope: Scope::File("crates/core/src/serve.rs"),
        seqs: &[
            &["mpsc", ":", ":", "channel", "("],
            &["channel", ":", ":", "<"],
            &["VecDeque", ":", ":", "new", "("],
            &["LinkedList", ":", ":", "new", "("],
        ],
        panicking_float_cmp: false,
        message: "unbounded queue/channel in the serving layer — use a bounded structure checked against ServiceConfig::max_inflight",
    },
    Check {
        id: "panicking-float-cmp",
        scope: Scope::All,
        seqs: &[],
        panicking_float_cmp: true,
        message: "partial_cmp(..).unwrap()/expect() comparator — use f64::total_cmp or scope_ir::stats::nan_{last,first}_cmp",
    },
    Check {
        id: "rule-vec-hot-path",
        scope: Scope::Suffixes(&[
            "crates/scope-optimizer/src/search.rs",
            "crates/scope-optimizer/src/transform.rs",
            "crates/scope-optimizer/src/memo.rs",
        ]),
        seqs: &[
            &["Vec", "<", "RuleId", ">"],
            &["Vec", "<", "ruleset", ":", ":", "RuleId", ">"],
        ],
        panicking_float_cmp: false,
        message: "Vec<RuleId> in the explore hot path — iterate a RuleSet mask instead",
    },
    Check {
        id: "raw-cost-compare",
        scope: Scope::All,
        seqs: &[&[".", "cost", "<"], &[".", "cost", ">"]],
        panicking_float_cmp: false,
        message: "raw scalar .cost comparison — rank through CostWeights::scalarize / CostModel::scalar so weights and corrections apply",
    },
];

/// Replace comments, string literals, and char literals with spaces,
/// preserving byte-for-byte line structure so token line numbers survive.
/// Handles line and (nested) block comments, plain/byte strings with
/// escapes, raw strings with any `#` count, and the lifetime-vs-char-
/// literal ambiguity (`<'a>` is code, `'a'` is scrubbed).
fn scrub(src: &str) -> String {
    let b = src.as_bytes();
    let mut out = Vec::with_capacity(b.len());
    let mut i = 0;
    // Emit one scrubbed byte: newlines survive so line numbers hold.
    let blank = |out: &mut Vec<u8>, c: u8| out.push(if c == b'\n' { b'\n' } else { b' ' });
    while i < b.len() {
        let c = b[i];
        // Line comment.
        if c == b'/' && b.get(i + 1) == Some(&b'/') {
            while i < b.len() && b[i] != b'\n' {
                blank(&mut out, b[i]);
                i += 1;
            }
            continue;
        }
        // Block comment (Rust block comments nest).
        if c == b'/' && b.get(i + 1) == Some(&b'*') {
            let mut depth = 0usize;
            while i < b.len() {
                if b[i] == b'/' && b.get(i + 1) == Some(&b'*') {
                    depth += 1;
                    blank(&mut out, b[i]);
                    blank(&mut out, b[i + 1]);
                    i += 2;
                } else if b[i] == b'*' && b.get(i + 1) == Some(&b'/') {
                    depth -= 1;
                    blank(&mut out, b[i]);
                    blank(&mut out, b[i + 1]);
                    i += 2;
                    if depth == 0 {
                        break;
                    }
                } else {
                    blank(&mut out, b[i]);
                    i += 1;
                }
            }
            continue;
        }
        // Raw (byte) string: r"..." / r#"..."# / br##"..."##.
        let raw_start = if c == b'r' {
            Some(i + 1)
        } else if c == b'b' && b.get(i + 1) == Some(&b'r') {
            Some(i + 2)
        } else {
            None
        };
        if let Some(mut j) = raw_start {
            // Only if preceded by a non-identifier byte (so `attr` ∌ `r"`).
            let boundary = i == 0 || !(b[i - 1].is_ascii_alphanumeric() || b[i - 1] == b'_');
            let mut hashes = 0usize;
            while b.get(j) == Some(&b'#') {
                hashes += 1;
                j += 1;
            }
            if boundary && b.get(j) == Some(&b'"') {
                // Scrub from i through the closing `"` + hashes.
                j += 1;
                loop {
                    if j >= b.len() {
                        break;
                    }
                    if b[j] == b'"'
                        && b[j + 1..]
                            .iter()
                            .take(hashes)
                            .filter(|&&h| h == b'#')
                            .count()
                            == hashes
                    {
                        j += 1 + hashes;
                        break;
                    }
                    j += 1;
                }
                while i < j.min(b.len()) {
                    blank(&mut out, b[i]);
                    i += 1;
                }
                continue;
            }
        }
        // Plain (byte) string with escapes.
        if c == b'"' || (c == b'b' && b.get(i + 1) == Some(&b'"')) {
            if c == b'b' {
                blank(&mut out, c);
                i += 1;
            }
            blank(&mut out, b[i]);
            i += 1;
            while i < b.len() {
                if b[i] == b'\\' && i + 1 < b.len() {
                    blank(&mut out, b[i]);
                    blank(&mut out, b[i + 1]);
                    i += 2;
                } else if b[i] == b'"' {
                    blank(&mut out, b[i]);
                    i += 1;
                    break;
                } else {
                    blank(&mut out, b[i]);
                    i += 1;
                }
            }
            continue;
        }
        // Char literal vs lifetime: `'x'`/`'\n'` scrub, `'a` (lifetime)
        // passes through as code.
        if c == b'\'' {
            let is_char = match b.get(i + 1) {
                Some(b'\\') => true,
                Some(_) => b.get(i + 2) == Some(&b'\''),
                None => false,
            };
            if is_char {
                blank(&mut out, b[i]);
                i += 1;
                if b.get(i) == Some(&b'\\') {
                    blank(&mut out, b[i]);
                    i += 1;
                }
                while i < b.len() && b[i] != b'\'' {
                    blank(&mut out, b[i]);
                    i += 1;
                }
                if i < b.len() {
                    blank(&mut out, b[i]);
                    i += 1;
                }
                continue;
            }
        }
        out.push(c);
        i += 1;
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// A lexed token: an identifier/number word or a single punctuation byte,
/// with its 1-based source line.
struct Token<'a> {
    text: &'a str,
    line: usize,
}

fn lex(scrubbed: &str) -> Vec<Token<'_>> {
    let b = scrubbed.as_bytes();
    let mut tokens = Vec::new();
    let mut line = 1usize;
    let mut i = 0;
    while i < b.len() {
        let c = b[i];
        if c == b'\n' {
            line += 1;
            i += 1;
        } else if c.is_ascii_whitespace() {
            i += 1;
        } else if c.is_ascii_alphanumeric() || c == b'_' {
            let start = i;
            while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
                i += 1;
            }
            tokens.push(Token {
                text: &scrubbed[start..i],
                line,
            });
        } else {
            tokens.push(Token {
                text: &scrubbed[i..i + 1],
                line,
            });
            i += 1;
        }
    }
    tokens
}

/// Find every occurrence of a token sequence. Identifier elements must
/// match whole tokens, so `my_channel(` never matches `channel(`.
fn find_seq(tokens: &[Token<'_>], seq: Seq) -> Vec<usize> {
    let mut hits = Vec::new();
    if tokens.len() < seq.len() {
        return hits;
    }
    for start in 0..=tokens.len() - seq.len() {
        if seq
            .iter()
            .zip(&tokens[start..])
            .all(|(want, tok)| tok.text == *want)
        {
            hits.push(start);
        }
    }
    hits
}

/// `partial_cmp ( <balanced> ) . unwrap|expect (` — the balanced-paren
/// skip catches nested calls and line breaks the old per-line grep never
/// could.
fn find_panicking_float_cmp(tokens: &[Token<'_>]) -> Vec<usize> {
    let mut hits = Vec::new();
    for start in 0..tokens.len() {
        if tokens[start].text != "partial_cmp" {
            continue;
        }
        let Some(open) = tokens.get(start + 1) else {
            continue;
        };
        if open.text != "(" {
            continue;
        }
        let mut depth = 1usize;
        let mut j = start + 2;
        while j < tokens.len() && depth > 0 {
            match tokens[j].text {
                "(" => depth += 1,
                ")" => depth -= 1,
                _ => {}
            }
            j += 1;
        }
        if depth != 0 {
            continue;
        }
        if tokens.get(j).map(|t| t.text) == Some(".")
            && matches!(tokens.get(j + 1).map(|t| t.text), Some("unwrap" | "expect"))
            && tokens.get(j + 2).map(|t| t.text) == Some("(")
        {
            hits.push(start);
        }
    }
    hits
}

struct Violation {
    check: &'static str,
    file: String,
    line: usize,
    message: &'static str,
}

/// Run every applicable check over one file's source text.
fn audit_source(rel_path: &str, src: &str) -> Vec<Violation> {
    let scrubbed = scrub(src);
    let tokens = lex(&scrubbed);
    let mut out = Vec::new();
    for check in CHECKS {
        let in_scope = match check.scope {
            Scope::File(f) => rel_path == f,
            Scope::All => true,
            Scope::Suffixes(sfx) => sfx.iter().any(|s| rel_path.ends_with(s)),
        };
        if !in_scope {
            continue;
        }
        let mut starts: Vec<usize> = check
            .seqs
            .iter()
            .flat_map(|seq| find_seq(&tokens, seq))
            .collect();
        if check.panicking_float_cmp {
            starts.extend(find_panicking_float_cmp(&tokens));
        }
        starts.sort_unstable();
        starts.dedup();
        for s in starts {
            out.push(Violation {
                check: check.id,
                file: rel_path.to_string(),
                line: tokens[s].line,
                message: check.message,
            });
        }
    }
    out
}

/// Collect every `.rs` file under the walked roots, repo-relative with
/// forward slashes, in sorted order for stable output.
fn rust_files(root: &Path) -> Vec<(String, PathBuf)> {
    let mut out = Vec::new();
    let mut stack: Vec<PathBuf> = ["crates", "src"]
        .iter()
        .map(|d| root.join(d))
        .filter(|p| p.is_dir())
        .collect();
    while let Some(dir) = stack.pop() {
        let Ok(entries) = fs::read_dir(&dir) else {
            continue;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                // Build output never holds sources we own.
                if path.file_name().is_some_and(|n| n == "target") {
                    continue;
                }
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                let rel = path
                    .strip_prefix(root)
                    .unwrap_or(&path)
                    .to_string_lossy()
                    .replace('\\', "/");
                out.push((rel, path));
            }
        }
    }
    out.sort();
    out
}

fn main() {
    let root = std::env::current_dir().expect("cwd");
    let files = rust_files(&root);
    if files.is_empty() {
        eprintln!(
            "steer-audit: no Rust sources found under crates/ or src/ — run from the repo root"
        );
        std::process::exit(2);
    }
    let mut violations = Vec::new();
    for (rel, path) in &files {
        let Ok(src) = fs::read_to_string(path) else {
            continue;
        };
        violations.extend(audit_source(rel, &src));
    }
    if violations.is_empty() {
        println!(
            "steer-audit: {} files clean across {} checks",
            files.len(),
            CHECKS.len()
        );
        return;
    }
    let mut report = String::new();
    for v in &violations {
        // `::error` annotations surface in the GitHub Actions UI exactly
        // like the old grep steps' did.
        let _ = writeln!(
            report,
            "::error file={},line={}::[{}] {}",
            v.file, v.line, v.check, v.message
        );
    }
    eprint!("{report}");
    eprintln!("steer-audit: {} violations", violations.len());
    std::process::exit(1);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_ids(rel: &str, src: &str) -> Vec<&'static str> {
        audit_source(rel, src)
            .into_iter()
            .map(|v| v.check)
            .collect()
    }

    /// Every violation class the surviving historical grep gates caught,
    /// seeded as source fixtures: the lexer must reproduce each hit.
    #[test]
    fn reproduces_every_historical_grep_violation() {
        let serve = "crates/core/src/serve.rs";
        let cases: &[(&str, &str, &str)] = &[
            ("unbounded-queue", serve, "let (tx, rx) = mpsc::channel();"),
            (
                "unbounded-queue",
                serve,
                "let (tx, rx) = channel::<Request>();",
            ),
            ("unbounded-queue", serve, "let mut q = VecDeque::new();"),
            ("unbounded-queue", serve, "let mut l = LinkedList::new();"),
            (
                "panicking-float-cmp",
                "crates/core/src/report.rs",
                "xs.sort_by(|a, b| a.partial_cmp(b).unwrap());",
            ),
            (
                "panicking-float-cmp",
                "crates/core/src/report.rs",
                "xs.sort_by(|a, b| a.partial_cmp(b).expect(\"nan\"));",
            ),
            (
                "rule-vec-hot-path",
                "crates/scope-optimizer/src/search.rs",
                "let rules: Vec<RuleId> = Vec::new();",
            ),
            (
                "rule-vec-hot-path",
                "crates/scope-optimizer/src/memo.rs",
                "fn f(v: Vec< ruleset::RuleId >) {}",
            ),
        ];
        for (id, rel, src) in cases {
            assert_eq!(
                check_ids(rel, src),
                vec![*id],
                "fixture not caught: {src:?}"
            );
        }
    }

    /// The lexer catches what per-line grep structurally could not:
    /// whitespace, line breaks, and nested parens inside the pattern.
    #[test]
    fn catches_what_grep_missed() {
        assert_eq!(
            check_ids(
                "crates/core/src/report.rs",
                "let o = a.partial_cmp(f(b, c))\n    .unwrap();"
            ),
            vec!["panicking-float-cmp"]
        );
        assert_eq!(
            check_ids(
                "crates/scope-optimizer/src/search.rs",
                "let rules: Vec<\n    RuleId\n> = Vec::new();"
            ),
            vec!["rule-vec-hot-path"]
        );
    }

    /// Banned patterns quoted in strings, comments, or doc comments are
    /// not violations — the whole point of lexing over grepping.
    #[test]
    fn no_false_hits_in_strings_or_comments() {
        let quiet: &[(&str, &str)] = &[
            (
                "crates/core/src/serve.rs",
                "// mpsc::channel( is banned here",
            ),
            (
                "crates/core/src/serve.rs",
                "/* VecDeque::new() */ let x = 1;",
            ),
            (
                "crates/core/src/serve.rs",
                "let msg = \"don't use channel::<T>() or LinkedList::new()\";",
            ),
            (
                "crates/core/src/serve.rs",
                "let doc = r#\"VecDeque::new()\"#;",
            ),
            (
                "crates/core/src/serve.rs",
                "/// Never call `mpsc::channel()` in the serving layer.\nfn f() {}",
            ),
            (
                "crates/core/src/report.rs",
                "let s = \"partial_cmp(b).unwrap()\";",
            ),
            (
                "crates/scope-optimizer/src/search.rs",
                "// Vec<RuleId> was the old shape.",
            ),
        ];
        for (rel, src) in quiet {
            assert!(
                check_ids(rel, src).is_empty(),
                "false hit on scrubbed text: {src:?}"
            );
        }
    }

    /// Identifier boundaries, non-panicking continuations, and file scope
    /// all suppress matches exactly as the grep pipelines did.
    #[test]
    fn boundaries_and_scope_hold() {
        // `my_channel` is not `channel`: identifiers match whole tokens.
        assert!(check_ids("crates/core/src/serve.rs", "let c = my_channel::<u8>();").is_empty());
        // partial_cmp followed by a non-panicking method is fine.
        assert!(check_ids(
            "crates/core/src/x.rs",
            "a.partial_cmp(b).unwrap_or(core::cmp::Ordering::Equal);"
        )
        .is_empty());
        // Scope: unbounded-queue only fires in serve.rs; rule-vec only in
        // the three hot-path files (classic.rs keeps the old shape).
        assert!(check_ids("crates/core/src/pipeline.rs", "let q = VecDeque::new();").is_empty());
        assert!(check_ids(
            "crates/scope-optimizer/src/classic.rs",
            "let rules: Vec<RuleId> = Vec::new();"
        )
        .is_empty());
    }

    /// The cost-model migration gate: any `.cost` on the *left* of a
    /// scalar comparison is a bypass of the weight/correction scalarizer;
    /// the blessed shapes (scalarize first, or `.cost` on the right-hand
    /// side of an already-scalarized value) pass untouched.
    #[test]
    fn raw_cost_compare_catches_bypasses_and_spares_scalarized_sites() {
        for src in [
            "if a.cost < b.cost { swap(a, b); }",
            "if oc.cost > threshold { return None; }",
            "while best.cost >= cand.cost {}",
            "let worse = x.cost\n    > y;",
        ] {
            assert!(
                check_ids("crates/scope-optimizer/src/search.rs", src)
                    .contains(&"raw-cost-compare"),
                "bypass not caught: {src:?}"
            );
        }
        for src in [
            "if model.scalar(&oc.cost) < best { best = model.scalar(&oc.cost); }",
            "if candidate_cost < w.cost { w.cost = candidate_cost; }",
            "let total = a.cost.add(&b.cost);",
            "// a.cost < b.cost is the banned shape",
            "let s = \"a.cost > b.cost\";",
        ] {
            assert!(
                check_ids("crates/scope-optimizer/src/search.rs", src).is_empty(),
                "false hit: {src:?}"
            );
        }
    }

    /// The scrubber preserves line structure, so reported line numbers
    /// point at the real source line.
    #[test]
    fn line_numbers_survive_scrubbing() {
        let src = "// comment line\nlet s = \"text\";\nif a.cost < b.cost {}\n";
        let v = audit_source("crates/core/src/x.rs", src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].line, 3);
    }

    /// Lifetimes are code, char literals are not: `<'a>` must lex through
    /// while `'(' ` must scrub (else a stray quote could unbalance the
    /// paren matcher).
    #[test]
    fn lifetime_vs_char_literal() {
        let src = "fn f<'a>(x: &'a f64, y: char) -> bool {\n    y == '(' && x.partial_cmp(x).unwrap().is_eq()\n}";
        assert_eq!(
            check_ids("crates/core/src/x.rs", src),
            vec!["panicking-float-cmp"]
        );
    }
}
