//! `GAA6xx`: static source-code lints for the concurrent serving core.
//!
//! The symbolic tiers (`GAA1xx`–`GAA5xx`) verify *policies*; this tier
//! verifies the *implementation* hygiene rules that the `gaa-race` model
//! checker relies on, so CI catches regressions before any schedule is
//! explored:
//!
//! | code | severity | meaning |
//! |---|---|---|
//! | `GAA601` | error | `unwrap`/`expect`/`panic!`/`unreachable!`/`todo!` on the request path — a malformed request must never kill a worker |
//! | `GAA602` | error | raw `std::sync`/`parking_lot` primitive in a shim-migrated file — the model checker cannot schedule what it cannot see |
//! | `GAA603` | warning | an `Err` match arm in the front end / glue whose body neither audits, degrades, propagates, nor exits — silently swallowed failure |
//! | `GAA604` | warning | an `Ordering::` use without a nearby `// ordering:` rationale comment — every memory-ordering choice must be argued |
//!
//! The rules are deliberately line-based heuristics (no syntax tree, no
//! new dependencies): precise enough to hold the current codebase at zero
//! findings, honest enough to be suppressible where they misfire — a
//! `// gaa-lint: allow(GAA6xx)` comment on the offending line or the line
//! directly above silences one finding. Test modules (everything from the
//! first `#[cfg(test)]` onward) are exempt.
//!
//! File scope is part of the rule definitions below: `GAA601` guards the
//! request path, `GAA602`/`GAA604` guard the files migrated onto
//! `gaa_race::sync`, `GAA603` guards the error funnels in `conn.rs`,
//! `reactor.rs` and `glue.rs`.

use crate::lint::{Lint, LintSeverity};
use std::path::{Path, PathBuf};

/// Files forming the request path: a panic here turns one bad request
/// into a dead worker (a DoS primitive), so all failures must be `Result`s.
const REQUEST_PATH_FILES: &[&str] = &[
    "crates/httpd/src/conn.rs",
    "crates/httpd/src/reactor.rs",
    "crates/httpd/src/timer.rs",
    "crates/httpd/src/glue.rs",
    "crates/httpd/src/server.rs",
    "crates/core/src/cache.rs",
];

/// Files migrated onto the `gaa_race::sync` shim: raw primitives here are
/// invisible to the model checker (and to the race detector's
/// happens-before analysis).
const SHIM_MIGRATED_FILES: &[&str] = &[
    "crates/core/src/cache.rs",
    "crates/ids/src/threat.rs",
    "crates/audit/src/degrade.rs",
    "crates/audit/src/notify.rs",
    "crates/audit/src/export.rs",
    "crates/conditions/src/identity.rs",
    "crates/conditions/src/regex.rs",
    "crates/conditions/src/multipattern.rs",
    "crates/ids/src/matcher.rs",
    "crates/ids/src/signatures.rs",
    "crates/httpd/src/conn.rs",
    "crates/httpd/src/reactor.rs",
    "crates/httpd/src/timer.rs",
    "crates/swarm/src/node.rs",
    "crates/swarm/src/transport.rs",
];

/// Files whose `Err` arms must reach the audit/degradation funnel.
const ERR_AUDIT_FILES: &[&str] = &[
    "crates/httpd/src/conn.rs",
    "crates/httpd/src/reactor.rs",
    "crates/httpd/src/glue.rs",
];

/// How many lines after an `Err(` arm may contain its handling.
const ERR_WINDOW: usize = 10;

/// `std::sync` names that are fine in migrated files: ownership and
/// channel types carry no scheduling decisions, and `Ordering` is the
/// *argument* to the shim's atomics.
const ALLOWED_SYNC_TOKENS: &[&str] = &["Arc", "Weak", "mpsc", "Ordering", "OnceLock", "LazyLock"];

/// Lints one source file's text. `relative` is the workspace-relative
/// path (used both for rule scoping and as the finding's source label).
pub fn lint_code(relative: &str, text: &str) -> Vec<Lint> {
    let mut lints = Vec::new();
    let lines: Vec<&str> = text.lines().collect();
    let request_path = REQUEST_PATH_FILES.contains(&relative);
    let migrated = SHIM_MIGRATED_FILES.contains(&relative);
    let err_audited = ERR_AUDIT_FILES.contains(&relative);

    for (index, raw) in lines.iter().enumerate() {
        if raw.trim_start().starts_with("#[cfg(test)]") {
            break; // test modules are exempt from all GAA6xx rules
        }
        let line = strip_comment(raw);
        let code_text = line.trim();
        if code_text.is_empty() {
            continue;
        }
        let allowed = |code: &str| is_allowed(&lines, index, code);
        let lineno = index + 1;

        if request_path && !allowed("GAA601") {
            for needle in [".unwrap(", ".expect(", "panic!(", "unreachable!(", "todo!("] {
                if code_text.contains(needle) {
                    lints.push(code_lint(
                        "GAA601",
                        LintSeverity::Error,
                        relative,
                        format!(
                            "{relative}:{lineno}: `{}` on the request path — one malformed \
                             request must not kill a worker; return a Result and let the \
                             front end answer 4xx/5xx",
                            needle.trim_matches(['.', '('])
                        ),
                    ));
                }
            }
        }

        if migrated && !allowed("GAA602") {
            if code_text.contains("parking_lot") {
                lints.push(code_lint(
                    "GAA602",
                    LintSeverity::Error,
                    relative,
                    format!(
                        "{relative}:{lineno}: raw `parking_lot` primitive in a shim-migrated \
                         file — use `gaa_race::sync` so the model checker can schedule it"
                    ),
                ));
            } else if code_text.contains("std::sync") && has_forbidden_sync_token(code_text) {
                lints.push(code_lint(
                    "GAA602",
                    LintSeverity::Error,
                    relative,
                    format!(
                        "{relative}:{lineno}: raw `std::sync` primitive in a shim-migrated \
                         file — use `gaa_race::sync` so the model checker can schedule it"
                    ),
                ));
            }
        }

        if err_audited
            && !allowed("GAA603")
            && code_text.contains("Err(")
            && code_text.contains("=>")
            && !err_arm_is_handled(&lines, index)
        {
            lints.push(code_lint(
                "GAA603",
                LintSeverity::Warning,
                relative,
                format!(
                    "{relative}:{lineno}: `Err` arm neither audits, degrades, propagates, \
                     nor exits within {ERR_WINDOW} lines — failures on this path must \
                     reach the audit/degradation funnel"
                ),
            ));
        }

        if migrated
            && !allowed("GAA604")
            && code_text.contains("Ordering::")
            && !has_ordering_rationale(&lines, index)
        {
            lints.push(code_lint(
                "GAA604",
                LintSeverity::Warning,
                relative,
                format!(
                    "{relative}:{lineno}: `Ordering::` use without a nearby `// ordering:` \
                     comment — state the required ordering and why it is the weakest \
                     correct one"
                ),
            ));
        }
    }
    lints
}

/// Lints every scoped file under `root` (the workspace checkout). Missing
/// files are themselves findings: the rule tables must track the tree.
pub fn lint_workspace_code(root: &Path) -> Vec<Lint> {
    let mut all: Vec<&str> = REQUEST_PATH_FILES
        .iter()
        .chain(SHIM_MIGRATED_FILES)
        .chain(ERR_AUDIT_FILES)
        .copied()
        .collect();
    all.sort_unstable();
    all.dedup();
    let mut lints = Vec::new();
    for relative in all {
        let path: PathBuf = root.join(relative);
        match std::fs::read_to_string(&path) {
            Ok(text) => lints.extend(lint_code(relative, &text)),
            Err(e) => lints.push(code_lint(
                "GAA602",
                LintSeverity::Error,
                relative,
                format!("{relative}: scoped file unreadable ({e}) — fix the GAA6xx rule tables"),
            )),
        }
    }
    lints
}

fn code_lint(code: &'static str, severity: LintSeverity, source: &str, message: String) -> Lint {
    Lint::new(code, severity, source, message)
}

/// Strips a trailing `//` comment (good enough: string literals containing
/// `//` are rare in this codebase and only risk false *negatives*).
fn strip_comment(line: &str) -> &str {
    match line.find("//") {
        Some(at) => &line[..at],
        None => line,
    }
}

fn is_allowed(lines: &[&str], index: usize, code: &str) -> bool {
    let marker = "gaa-lint: allow(";
    for probe in [Some(index), index.checked_sub(1)].into_iter().flatten() {
        if let Some(at) = lines[probe].find(marker) {
            let rest = &lines[probe][at + marker.len()..];
            if let Some(end) = rest.find(')') {
                if rest[..end].split(',').any(|c| c.trim() == code) {
                    return true;
                }
            }
        }
    }
    false
}

fn has_forbidden_sync_token(line: &str) -> bool {
    for token in ["Mutex", "RwLock", "Condvar", "Barrier"] {
        if line.contains(token) {
            return true;
        }
    }
    // Atomic types (`AtomicU64`, …) but not the lowercase `atomic` module
    // path itself — importing `std::sync::atomic::Ordering` is allowed.
    if line.contains("Atomic") {
        return true;
    }
    // A bare module import (`use std::sync::atomic;`) smuggles everything.
    let mentions_allowed = ALLOWED_SYNC_TOKENS.iter().any(|t| line.contains(t));
    !mentions_allowed
}

/// An `Err` arm counts as handled when its window reaches the audit or
/// degradation funnel, propagates the error, or exits the loop/function —
/// or when it is a single-line classification arm (`Err(_) => value,`)
/// whose meaning the surrounding `match` assigns.
fn err_arm_is_handled(lines: &[&str], index: usize) -> bool {
    let first = strip_comment(lines[index]);
    // Single-line expression arm: the error is mapped to a value.
    if !first.contains('{') && first.trim_end().ends_with(',') {
        return true;
    }
    let end = (index + ERR_WINDOW).min(lines.len());
    lines[index..end].iter().any(|line| {
        let line = strip_comment(line);
        [
            "audit", "degrad", "record", "rejected", "note_", "break", "return", "?;",
        ]
        .iter()
        .any(|token| line.contains(token))
    })
}

/// Looks for a `// ordering:` rationale on the same line or above it,
/// scanning upward through comment blocks and at most six code lines (a
/// multi-line statement, or one comment covering a short run of loads).
fn has_ordering_rationale(lines: &[&str], index: usize) -> bool {
    let mut code_lines = 0;
    let mut i = index;
    loop {
        if lines[i].contains("// ordering:") || lines[i].contains("//! ordering:") {
            return true;
        }
        if i == 0 {
            return false;
        }
        i -= 1;
        if !lines[i].trim_start().starts_with("//") {
            code_lines += 1;
            if code_lines > 6 {
                return false;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const REQUEST_FILE: &str = "crates/httpd/src/conn.rs";
    const MIGRATED_ONLY: &str = "crates/ids/src/threat.rs";

    #[test]
    fn unwrap_on_request_path_is_gaa601() {
        let lints = lint_code(REQUEST_FILE, "fn f() { x.unwrap(); }\n");
        assert!(lints.iter().any(|l| l.code == "GAA601"), "{lints:?}");
        // Same text outside the request path is fine.
        assert!(lint_code("crates/eacl/src/parse.rs", "fn f() { x.unwrap(); }\n").is_empty());
    }

    #[test]
    fn raw_sync_in_migrated_file_is_gaa602() {
        for bad in [
            "use parking_lot::Mutex;",
            "use std::sync::Mutex;",
            "use std::sync::atomic::{AtomicU64, Ordering};",
            "use std::sync::atomic;",
        ] {
            let lints = lint_code(MIGRATED_ONLY, bad);
            assert!(
                lints.iter().any(|l| l.code == "GAA602"),
                "`{bad}` must be flagged: {lints:?}"
            );
        }
        for good in [
            "use std::sync::Arc;",
            "use std::sync::atomic::Ordering;",
            "use std::sync::mpsc::sync_channel;",
            "use gaa_race::sync::Mutex;",
        ] {
            assert!(
                lint_code(MIGRATED_ONLY, good).is_empty(),
                "`{good}` must pass"
            );
        }
    }

    #[test]
    fn swallowed_err_arm_is_gaa603_and_funnel_reaching_arms_pass() {
        let swallowed =
            "match r {\n    Err(e) => {\n        let x = 1;\n        let _ = x;\n    }\n}\n";
        let lints = lint_code(REQUEST_FILE, swallowed);
        assert!(lints.iter().any(|l| l.code == "GAA603"), "{lints:?}");
        let audited = "match r {\n    Err(e) => {\n        audit.record(e);\n    }\n}\n";
        assert!(lint_code(REQUEST_FILE, audited).is_empty());
        let classification = "let ok = match r {\n    Err(_) => true,\n};\n";
        assert!(lint_code(REQUEST_FILE, classification).is_empty());
    }

    #[test]
    fn undocumented_ordering_is_gaa604() {
        let bare = "fn f(c: &AtomicU64) { c.load(Ordering::Relaxed); }";
        // gaa-lint's own fixture: suppress the GAA602 the type name trips.
        let text = format!("// gaa-lint: allow(GAA602)\n{bare}");
        let lints = lint_code(MIGRATED_ONLY, &text);
        assert!(lints.iter().any(|l| l.code == "GAA604"), "{lints:?}");
        let documented =
            format!("// gaa-lint: allow(GAA602)\n// ordering: Relaxed — statistic.\n{bare}");
        assert!(lint_code(MIGRATED_ONLY, &documented).is_empty());
    }

    #[test]
    fn allow_comment_suppresses_and_test_modules_are_exempt() {
        let allowed = "x.unwrap(); // gaa-lint: allow(GAA601)\n";
        assert!(lint_code(REQUEST_FILE, allowed).is_empty());
        let in_tests = "#[cfg(test)]\nmod tests {\n    fn f() { x.unwrap(); }\n}\n";
        assert!(lint_code(REQUEST_FILE, in_tests).is_empty());
    }

    /// The real workspace holds at zero findings — this is the same check
    /// `gaa-lint code` runs in CI, enforced here so `cargo test` alone
    /// catches regressions.
    #[test]
    fn workspace_is_clean() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let lints = lint_workspace_code(&root);
        assert!(
            lints.is_empty(),
            "GAA6xx findings in the workspace:\n{}",
            lints
                .iter()
                .map(|l| format!("{} [{}] {}", l.code, l.severity, l.message))
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
}
