//! `lint_sync`: the facade-bypass linter.
//!
//! Scans every `.rs` file in the workspace for direct `std::sync` / `std::thread`
//! usage. All concurrency primitives must go through `kpg_sync` — that is what makes
//! the deterministic model checker (`kpg_sync::model`) and the lock-order/blocking
//! analyses see every operation. A `std::sync::Mutex` smuggled in anywhere is
//! invisible to both, so CI runs this scanner and fails on any hit outside the
//! allowlist.
//!
//! The allowlist is `crates/bench/lint_sync_allow.txt`: one path prefix per line
//! (relative to the workspace root, `/`-separated), `#` comments. `crates/sync/` is
//! allowlisted there — the facade is the one place std primitives belong.
//!
//! A second pass audits `unsafe`: the workspace is `#![forbid(unsafe_code)]`
//! everywhere except the sites enumerated in `crates/bench/lint_unsafe_allow.txt`
//! (the readiness-syscall module, the server binary's signal handler, the
//! kill-based recovery test). The attribute already stops unsafe inside each
//! forbidding crate; this pass stops a *new crate or module* from quietly opting
//! out — growing the audited inventory requires editing the allowlist in the same
//! diff, which is the review hook.
//!
//! A third pass does the same for `allow_blocking(`, against
//! `crates/bench/lint_blocking_allow.txt` (the facade, `crates/server/src/commit.rs`):
//! a new standing exemption anywhere else — test code included — is an allowlist edit.
//!
//! Usage: `cargo run -p kpg_bench --bin lint_sync` from anywhere in the workspace.
//! Exits 0 on a clean tree, 1 with a `file:line` listing otherwise.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Substrings that indicate a facade bypass. Matched against comment- and
/// string-stripped source, so prose mentioning `std::sync` is fine.
const FORBIDDEN: &[&str] = &["std::sync", "std::thread"];

const ALLOWLIST: &str = "crates/bench/lint_sync_allow.txt";
const UNSAFE_ALLOWLIST: &str = "crates/bench/lint_unsafe_allow.txt";
const BLOCKING_ALLOWLIST: &str = "crates/bench/lint_blocking_allow.txt";

fn main() -> ExitCode {
    let root = workspace_root();
    let allow = load_allowlist(&root, ALLOWLIST, &["crates/sync/"]);
    let unsafe_allow = load_allowlist(&root, UNSAFE_ALLOWLIST, &[]);
    let blocking_allow = load_allowlist(&root, BLOCKING_ALLOWLIST, &["crates/sync/"]);
    let mut files = Vec::new();
    collect_rs_files(&root, &root, &mut files);
    files.sort();

    let mut violations = Vec::new();
    let mut unsafe_violations = Vec::new();
    let mut blocking_violations = Vec::new();
    let allowed =
        |allow: &[String], relative: &str| allow.iter().any(|prefix| relative.starts_with(prefix));
    for relative in &files {
        let source = match fs::read_to_string(root.join(relative)) {
            Ok(source) => source,
            Err(error) => {
                eprintln!("lint_sync: cannot read {relative}: {error}");
                return ExitCode::FAILURE;
            }
        };
        if !allowed(&allow, relative) {
            scan(FORBIDDEN, relative, &source, &mut violations);
        }
        if !allowed(&unsafe_allow, relative) {
            scan_unsafe(relative, &source, &mut unsafe_violations);
        }
        if !allowed(&blocking_allow, relative) {
            scan(
                &["allow_blocking("],
                relative,
                &source,
                &mut blocking_violations,
            );
        }
    }

    if violations.is_empty() && unsafe_violations.is_empty() && blocking_violations.is_empty() {
        println!("lint_sync: {} files clean", files.len());
        ExitCode::SUCCESS
    } else {
        let all = violations.iter().chain(&unsafe_violations);
        for violation in all.chain(&blocking_violations) {
            eprintln!("{violation}");
        }
        if !violations.is_empty() {
            eprintln!(
                "lint_sync: {} direct std::sync/std::thread use(s); route them through \
                 kpg_sync (or, exceptionally, add a prefix to {ALLOWLIST})",
                violations.len()
            );
        }
        if !unsafe_violations.is_empty() {
            eprintln!(
                "lint_sync: {} `unsafe` use(s) outside the audited inventory; keep the \
                 code safe, or extend the audit in {UNSAFE_ALLOWLIST} with a SAFETY \
                 argument in the same change",
                unsafe_violations.len()
            );
        }
        if !blocking_violations.is_empty() {
            eprintln!(
                "lint_sync: {} `allow_blocking` scope(s) outside the audited inventory; \
                 move the syscall out from under the lock, or extend {BLOCKING_ALLOWLIST} \
                 in the same change",
                blocking_violations.len()
            );
        }
        ExitCode::FAILURE
    }
}

/// Finds the workspace root: the nearest ancestor of the current directory holding a
/// `Cargo.toml` with a `[workspace]` table (falls back to `CARGO_MANIFEST_DIR`'s
/// grandparent, which is the root when run via `cargo run -p kpg_bench`).
fn workspace_root() -> PathBuf {
    let mut dir = std::env::current_dir().expect("current directory unreadable");
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return dir;
            }
        }
        if !dir.pop() {
            break;
        }
    }
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("bench crate has a workspace grandparent")
        .to_path_buf()
}

fn load_allowlist(root: &Path, file: &str, fallback: &[&str]) -> Vec<String> {
    let Ok(text) = fs::read_to_string(root.join(file)) else {
        return fallback.iter().map(|prefix| prefix.to_string()).collect();
    };
    text.lines()
        .map(str::trim)
        .filter(|line| !line.is_empty() && !line.starts_with('#'))
        .map(str::to_string)
        .collect()
}

fn collect_rs_files(root: &Path, dir: &Path, files: &mut Vec<String>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            // Build output and VCS metadata are not source.
            if name == "target" || name.starts_with('.') {
                continue;
            }
            collect_rs_files(root, &path, files);
        } else if name.ends_with(".rs") {
            let relative = path
                .strip_prefix(root)
                .expect("walked paths stay under the root")
                .components()
                .map(|component| component.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/");
            files.push(relative);
        }
    }
}

/// Appends a `file:line: text` entry for every line of `source` holding one of
/// `tokens`, ignoring comments and string literals.
fn scan(tokens: &[&str], relative: &str, source: &str, violations: &mut Vec<String>) {
    let stripped = strip_comments_and_strings(source);
    for (index, (line, original)) in stripped.lines().zip(source.lines()).enumerate() {
        if tokens.iter().any(|token| line.contains(token)) {
            violations.push(format!("{relative}:{}: {}", index + 1, original.trim()));
        }
    }
}

/// Appends a `file:line: text` entry for every word-boundary `unsafe` token in
/// `source`, ignoring comments and string literals. `unsafe_code` — the token every
/// crate's `#![forbid(unsafe_code)]` / `#![deny(unsafe_code)]` attribute contains —
/// is not a use of unsafe and is skipped.
fn scan_unsafe(relative: &str, source: &str, violations: &mut Vec<String>) {
    let stripped = strip_comments_and_strings(source);
    for (index, (line, original)) in stripped.lines().zip(source.lines()).enumerate() {
        let mut rest = line;
        let mut hit = false;
        while let Some(at) = rest.find("unsafe") {
            let before_ok = at == 0
                || !rest[..at]
                    .chars()
                    .next_back()
                    .is_some_and(|c| c.is_alphanumeric() || c == '_');
            let after = &rest[at + "unsafe".len()..];
            let after_ok = !after
                .chars()
                .next()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
            if before_ok && after_ok {
                hit = true;
                break;
            }
            rest = &rest[at + "unsafe".len()..];
        }
        if hit {
            violations.push(format!("{relative}:{}: {}", index + 1, original.trim()));
        }
    }
}

/// Replaces the contents of comments and string literals with spaces, preserving line
/// structure. A small state machine — enough for real Rust source; raw strings with
/// `#` fences are treated as plain strings, which errs toward over-reporting (fine
/// for a linter whose escape hatch is the allowlist).
fn strip_comments_and_strings(source: &str) -> String {
    #[derive(PartialEq)]
    enum State {
        Code,
        LineComment,
        BlockComment(u32),
        Str,
        Char,
    }
    let mut state = State::Code;
    let mut out = String::with_capacity(source.len());
    let mut chars = source.chars().peekable();
    while let Some(current) = chars.next() {
        let next = chars.peek().copied();
        match state {
            State::Code => match (current, next) {
                ('/', Some('/')) => {
                    state = State::LineComment;
                    out.push(' ');
                }
                ('/', Some('*')) => {
                    state = State::BlockComment(1);
                    out.push(' ');
                }
                ('"', _) => {
                    state = State::Str;
                    out.push(' ');
                }
                // A lifetime (`'a`) is not a char literal; only treat `'` as one when
                // it closes within two characters (`'x'`, `'\n'`).
                ('\'', Some(peeked)) if peeked != '\\' && chars.clone().nth(1) == Some('\'') => {
                    state = State::Char;
                    out.push(' ');
                }
                ('\'', Some('\\')) => {
                    state = State::Char;
                    out.push(' ');
                }
                _ => out.push(current),
            },
            State::LineComment => {
                if current == '\n' {
                    state = State::Code;
                    out.push('\n');
                } else {
                    out.push(' ');
                }
            }
            State::BlockComment(depth) => {
                match (current, next) {
                    ('*', Some('/')) => {
                        chars.next();
                        out.push_str("  ");
                        state = if depth == 1 {
                            State::Code
                        } else {
                            State::BlockComment(depth - 1)
                        };
                        continue;
                    }
                    ('/', Some('*')) => {
                        chars.next();
                        out.push_str("  ");
                        state = State::BlockComment(depth + 1);
                        continue;
                    }
                    _ => {}
                }
                out.push(if current == '\n' { '\n' } else { ' ' });
            }
            State::Str => match current {
                '\\' => {
                    chars.next();
                    out.push_str("  ");
                }
                '"' => {
                    state = State::Code;
                    out.push(' ');
                }
                '\n' => out.push('\n'),
                _ => out.push(' '),
            },
            State::Char => match current {
                '\\' => {
                    chars.next();
                    out.push_str("  ");
                }
                '\'' => {
                    state = State::Code;
                    out.push(' ');
                }
                _ => out.push(' '),
            },
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::{scan, strip_comments_and_strings, FORBIDDEN};

    #[test]
    fn flags_injected_std_sync_mutex() {
        let source = "use std::sync::Mutex;\nfn main() { let _ = Mutex::new(0); }\n";
        let mut violations = Vec::new();
        scan(FORBIDDEN, "injected.rs", source, &mut violations);
        assert_eq!(violations.len(), 1);
        assert!(violations[0].starts_with("injected.rs:1:"));
    }

    /// The facade has no `RwLock` (nothing used it); a direct std one is still a bypass.
    #[test]
    fn flags_std_sync_rwlock() {
        let source = "fn main() {\n    let _ = std::sync::RwLock::new(0);\n}\n";
        let mut violations = Vec::new();
        scan(FORBIDDEN, "rwlock.rs", source, &mut violations);
        assert_eq!(violations.len(), 1);
        assert!(violations[0].starts_with("rwlock.rs:2:"));
    }

    #[test]
    fn flags_std_thread_spawn() {
        let source = "fn main() { std::thread::spawn(|| {}); }\n";
        let mut violations = Vec::new();
        scan(FORBIDDEN, "spawned.rs", source, &mut violations);
        assert_eq!(violations.len(), 1);
    }

    #[test]
    fn ignores_comments_strings_and_the_facade() {
        let source = concat!(
            "// std::sync::Mutex in a comment\n",
            "/* std::thread::spawn in a block\n   spanning lines */\n",
            "/// Doc prose about std::sync.\n",
            "fn main() { let _ = \"std::sync::Mutex\"; }\n",
            "use kpg_sync::Mutex;\n",
        );
        let mut violations = Vec::new();
        scan(FORBIDDEN, "clean.rs", source, &mut violations);
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn stripping_preserves_line_numbers() {
        let source = "a /* x\n y */ b\n\"s\ntr\" c\n";
        let stripped = strip_comments_and_strings(source);
        assert_eq!(stripped.lines().count(), source.lines().count());
    }

    #[test]
    fn flags_unsafe_blocks_but_not_the_forbid_attribute() {
        let source = concat!(
            "#![forbid(unsafe_code)]\n",
            "// unsafe in prose is fine\n",
            "fn main() { let _ = \"unsafe\"; }\n",
            "fn smuggled() { unsafe { core::hint::unreachable_unchecked() } }\n",
            "unsafe extern \"C\" fn hook() {}\n",
        );
        let mut violations = Vec::new();
        super::scan_unsafe("audited.rs", source, &mut violations);
        assert_eq!(violations.len(), 2, "{violations:?}");
        assert!(violations[0].starts_with("audited.rs:4:"));
        assert!(violations[1].starts_with("audited.rs:5:"));
    }

    #[test]
    fn flags_allow_blocking_calls_but_not_prose_or_imports() {
        let source = concat!(
            "use kpg_sync::blocking::allow_blocking;\n",
            "// allow_blocking(\"in prose\") is fine\n",
            "fn f() { let _scope = allow_blocking(\"a fifth exemption\"); }\n",
        );
        let mut violations = Vec::new();
        scan(&["allow_blocking("], "fifth.rs", source, &mut violations);
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(violations[0].starts_with("fifth.rs:3:"));
    }

    #[test]
    fn lifetimes_do_not_open_char_literals() {
        let source = "fn f<'a>(x: &'a str) -> &'a str { x } // std::sync here is prose\n";
        let mut violations = Vec::new();
        scan(FORBIDDEN, "lifetimes.rs", source, &mut violations);
        assert!(violations.is_empty(), "{violations:?}");
    }
}
