//! The rule engine: five token-level rules over [`SourceFile`]s.
//!
//! Each rule encodes one of the workspace's load-bearing contracts (see
//! [`crate::config`] for the scoping). Rules are deliberately syntactic —
//! they match the token stream, never type information — so they run on
//! every push in milliseconds and cannot be wrong about *where* something
//! is, only (rarely) about *what* it means; the suppression grammar
//! exists for exactly those rare cases.

use crate::config::{
    ATOMIC_FILES, DURABLE_MODULES, READ_PATH_MODULES, RULE_ATOMIC_ORDERING_JUSTIFIED,
    RULE_NO_LOCK_IN_READ_PATH, RULE_NO_PANIC_IN_DURABLE, RULE_REPORT_HAS_SCHEMA_VERSION,
    RULE_UNSAFE_NEEDS_SAFETY, VERSIONED_CHILDREN,
};
use crate::lexer::TokenKind;
use crate::source::SourceFile;

/// One diagnostic: rule, position, human message, and the offending line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    pub rule: &'static str,
    pub path: String,
    pub line: u32,
    pub col: u32,
    pub message: String,
    pub excerpt: String,
}

impl Finding {
    fn at(rule: &'static str, file: &SourceFile, line: u32, col: u32, message: String) -> Finding {
        Finding {
            rule,
            path: file.rel_path.clone(),
            line,
            col,
            message,
            excerpt: file.line_text(line).trim_end().to_string(),
        }
    }
}

/// Runs every rule over the workspace; findings come back sorted by
/// (path, line, col, rule) with exact duplicates removed.
pub fn run_rules(files: &[SourceFile]) -> Vec<Finding> {
    let mut findings = Vec::new();
    for file in files {
        findings.extend(unsafe_needs_safety(file));
        findings.extend(no_panic_in_durable(file));
        findings.extend(atomic_ordering_justified(file));
        findings.extend(no_lock_in_read_path(file));
    }
    findings.extend(report_has_schema_version(files));
    findings
        .sort_by(|a, b| (&a.path, a.line, a.col, a.rule).cmp(&(&b.path, b.line, b.col, b.rule)));
    findings.dedup();
    findings
}

/// Does the justification text for `line` (trailing comment, statement
/// continuation comments, or the comment block above the statement —
/// see [`SourceFile::justification_for`]) contain `marker`?
fn covered_by_comment(file: &SourceFile, line: u32, marker: &str) -> bool {
    file.justification_for(line).contains(marker)
}

/// R1 `unsafe-needs-safety`: every `unsafe` token — block, fn, impl, or
/// trait — must sit under a `// SAFETY:` comment (or a `/// # Safety`
/// doc section; either marker is accepted for any form). Applies to test
/// code too: an unsound test is still unsound.
fn unsafe_needs_safety(file: &SourceFile) -> Vec<Finding> {
    let mut out = Vec::new();
    for idx in 0..file.tokens.len() {
        let t = file.tokens[idx];
        if t.kind != TokenKind::Ident || file.token_text(idx) != "unsafe" {
            continue;
        }
        let line = t.line;
        if covered_by_comment(file, line, "SAFETY:") || covered_by_comment(file, line, "# Safety") {
            continue;
        }
        let form = match file.next_code_token(idx).map(|j| file.token_text(j)) {
            Some("fn") => "unsafe fn",
            Some("impl") => "unsafe impl",
            Some("trait") => "unsafe trait",
            _ => "unsafe block",
        };
        let hint = if form == "unsafe fn" {
            "document the caller contract with a `/// # Safety` section or a `// SAFETY:` comment"
        } else {
            "state why the invariants hold in a `// SAFETY:` comment immediately above"
        };
        out.push(Finding::at(
            RULE_UNSAFE_NEEDS_SAFETY,
            file,
            line,
            t.col,
            format!("{form} without a SAFETY comment — {hint}"),
        ));
    }
    out
}

const PANIC_MACROS: &[&str] = &[
    "panic",
    "assert",
    "assert_eq",
    "assert_ne",
    "unreachable",
    "todo",
    "unimplemented",
];

/// R2 `no-panic-in-durable`: in the fail-closed modules, corruption must
/// surface as a typed error — `.unwrap()`, `.expect(…)`, and the panic
/// macro family (but not `debug_assert!`) are forbidden outside
/// `#[cfg(test)]`.
fn no_panic_in_durable(file: &SourceFile) -> Vec<Finding> {
    if !DURABLE_MODULES.contains(&file.rel_path.as_str()) {
        return Vec::new();
    }
    let mut out = Vec::new();
    for idx in 0..file.tokens.len() {
        let t = file.tokens[idx];
        if t.kind != TokenKind::Ident || file.in_test(t.start) {
            continue;
        }
        let text = file.token_text(idx);
        let method_call = matches!(text, "unwrap" | "expect")
            && file.prev_code_token(idx).map(|j| file.token_text(j)) == Some(".")
            && file.next_code_token(idx).map(|j| file.token_text(j)) == Some("(");
        let panic_macro = PANIC_MACROS.contains(&text)
            && file.next_code_token(idx).map(|j| file.token_text(j)) == Some("!");
        if method_call {
            out.push(Finding::at(
                RULE_NO_PANIC_IN_DURABLE,
                file,
                t.line,
                t.col,
                format!(
                    "`.{text}()` in a fail-closed durable module — return the module's typed \
                     error instead (FORMATS.md §2: corrupt input must fail closed, not panic)"
                ),
            ));
        } else if panic_macro {
            out.push(Finding::at(
                RULE_NO_PANIC_IN_DURABLE,
                file,
                t.line,
                t.col,
                format!(
                    "`{text}!` in a fail-closed durable module — return the module's typed \
                     error instead (FORMATS.md §2); `debug_assert!` is allowed"
                ),
            ));
        }
    }
    out
}

/// R3 `atomic-ordering-justified`: every line using `Ordering::` in the
/// lock-free scheduler files carries an `// ordering:` comment — trailing
/// on the line or in the comment block above it. One finding per line.
fn atomic_ordering_justified(file: &SourceFile) -> Vec<Finding> {
    if !ATOMIC_FILES.contains(&file.rel_path.as_str()) {
        return Vec::new();
    }
    let mut out = Vec::new();
    let mut last_line = 0u32;
    for idx in 0..file.tokens.len() {
        let t = file.tokens[idx];
        if t.kind != TokenKind::Ident
            || file.token_text(idx) != "Ordering"
            || file.in_test(t.start)
            || t.line == last_line
        {
            continue;
        }
        // Require the `::` — a bare `Ordering` (import lists, type
        // positions) picks no ordering and needs no justification.
        let colon1 = file.next_code_token(idx);
        let colon2 = colon1.and_then(|j| file.next_code_token(j));
        let is_use = colon1.map(|j| file.token_text(j)) == Some(":")
            && colon2.map(|j| file.token_text(j)) == Some(":");
        if !is_use {
            continue;
        }
        if covered_by_comment(file, t.line, "ordering:") {
            last_line = t.line;
            continue;
        }
        last_line = t.line;
        out.push(Finding::at(
            RULE_ATOMIC_ORDERING_JUSTIFIED,
            file,
            t.line,
            t.col,
            "atomic `Ordering::` use without an `// ordering:` justification — state why \
             this ordering is sufficient (Lê et al. PPoPP '13 is the reference for the \
             deque's fence placement)"
                .to_string(),
        ));
    }
    out
}

const LOCK_METHODS: &[&str] = &["lock", "read", "write", "try_lock", "try_read", "try_write"];

/// R4 `no-lock-in-read-path`: the snapshot read-path modules answer
/// queries from immutable published state — no lock acquisition of any
/// kind may appear there, so `EngineSnapshot` readers provably never
/// block a writer or each other.
fn no_lock_in_read_path(file: &SourceFile) -> Vec<Finding> {
    if !READ_PATH_MODULES.contains(&file.rel_path.as_str()) {
        return Vec::new();
    }
    let mut out = Vec::new();
    for idx in 0..file.tokens.len() {
        let t = file.tokens[idx];
        if t.kind != TokenKind::Ident {
            continue;
        }
        let text = file.token_text(idx);
        if LOCK_METHODS.contains(&text)
            && file.prev_code_token(idx).map(|j| file.token_text(j)) == Some(".")
            && file.next_code_token(idx).map(|j| file.token_text(j)) == Some("(")
        {
            out.push(Finding::at(
                RULE_NO_LOCK_IN_READ_PATH,
                file,
                t.line,
                t.col,
                format!(
                    "`.{text}()` in a snapshot read-path module — readers must stay \
                     lock-free; move the acquisition to the engine's write/publish path"
                ),
            ));
        }
    }
    out
}

/// A struct declaration R5 cares about.
#[derive(Debug)]
struct StructDecl {
    name: String,
    file_idx: usize,
    line: u32,
    col: u32,
    is_pub: bool,
    has_serialize: bool,
    has_schema_version: bool,
}

/// R5 `report-has-schema-version`: every `Serialize`-derived
/// `pub struct *Report` / `*Row` declares a `schema_version` field, or is
/// listed in [`VERSIONED_CHILDREN`] under a parent that both exists and
/// is itself versioned. Manifest entries are checked from both ends: a
/// listed child whose parent is missing or unversioned is a finding, and
/// a parent that exists while its listed child has vanished marks the
/// manifest stale.
fn report_has_schema_version(files: &[SourceFile]) -> Vec<Finding> {
    let mut decls: Vec<StructDecl> = Vec::new();
    for (file_idx, file) in files.iter().enumerate() {
        decls.extend(collect_structs(file, file_idx));
    }
    let mut out = Vec::new();
    for d in &decls {
        let interesting = d.is_pub
            && d.has_serialize
            && (d.name.ends_with("Report") || d.name.ends_with("Row"))
            && !d.has_schema_version;
        if !interesting {
            continue;
        }
        let file = &files[d.file_idx];
        match VERSIONED_CHILDREN
            .iter()
            .find(|(child, _)| *child == d.name)
        {
            None => out.push(Finding::at(
                RULE_REPORT_HAS_SCHEMA_VERSION,
                file,
                d.line,
                d.col,
                format!(
                    "serialized `pub struct {}` has no `schema_version` field and is not \
                     listed under a versioned parent in the lint manifest \
                     (crates/lint/src/config.rs) — downstream tooling cannot dispatch on \
                     its documents",
                    d.name
                ),
            )),
            Some((_, parent)) => {
                let ok = decls
                    .iter()
                    .any(|p| p.name == *parent && p.has_schema_version);
                if !ok {
                    out.push(Finding::at(
                        RULE_REPORT_HAS_SCHEMA_VERSION,
                        file,
                        d.line,
                        d.col,
                        format!(
                            "`{}` relies on manifest parent `{parent}`, but no such struct \
                             with a `schema_version` field exists in this tree — fix the \
                             manifest or version the parent",
                            d.name
                        ),
                    ));
                }
            }
        }
    }
    // Staleness sweep: a parent that exists while its listed child does
    // not means the manifest has rotted (child renamed or deleted).
    for (child, parent) in VERSIONED_CHILDREN {
        if decls.iter().any(|d| d.name == *child) {
            continue;
        }
        if let Some(p) = decls.iter().find(|d| d.name == *parent) {
            let file = &files[p.file_idx];
            out.push(Finding::at(
                RULE_REPORT_HAS_SCHEMA_VERSION,
                file,
                p.line,
                p.col,
                format!(
                    "stale lint manifest: `{child}` is listed under `{parent}` but no \
                     struct of that name exists — update VERSIONED_CHILDREN in \
                     crates/lint/src/config.rs"
                ),
            ));
        }
    }
    out
}

/// Collects struct declarations with their derive and field facts.
fn collect_structs(file: &SourceFile, file_idx: usize) -> Vec<StructDecl> {
    let mut out = Vec::new();
    for idx in 0..file.tokens.len() {
        let t = file.tokens[idx];
        if t.kind != TokenKind::Ident || file.token_text(idx) != "struct" || file.in_test(t.start) {
            continue;
        }
        let Some(name_idx) = file.next_code_token(idx) else {
            continue;
        };
        if file.tokens[name_idx].kind != TokenKind::Ident {
            continue;
        }
        let name = file.token_text(name_idx).to_string();
        // `pub struct` only — a visibility-restricted report is not API.
        let is_pub = file.prev_code_token(idx).map(|j| file.token_text(j)) == Some("pub");
        let decl_start = if is_pub {
            file.prev_code_token(idx).expect("pub token exists")
        } else {
            idx
        };
        let has_serialize = attrs_above(file, decl_start)
            .iter()
            .any(|a| a.contains("derive") && a.contains("Serialize"));
        out.push(StructDecl {
            name,
            file_idx,
            line: t.line,
            col: t.col,
            is_pub,
            has_serialize,
            has_schema_version: struct_has_field(file, name_idx, "schema_version"),
        });
    }
    out
}

/// Texts of the attribute groups (`#[…]`) directly above the declaration
/// starting at code token `decl_start`, walking backward over any number
/// of attributes (doc comments are transparent — they are comment
/// tokens).
fn attrs_above(file: &SourceFile, decl_start: usize) -> Vec<String> {
    let mut out = Vec::new();
    let mut k = decl_start;
    while let Some(close) = file.prev_code_token(k) {
        if file.token_text(close) != "]" {
            break;
        }
        // Scan back to the matching `[`.
        let mut depth = 0usize;
        let mut j = close;
        let open = loop {
            match file.token_text(j) {
                "]" => depth += 1,
                "[" => {
                    depth -= 1;
                    if depth == 0 {
                        break j;
                    }
                }
                _ => {}
            }
            let Some(prev) = file.prev_code_token(j) else {
                return out;
            };
            j = prev;
        };
        let Some(hash) = file.prev_code_token(open) else {
            return out;
        };
        if file.token_text(hash) != "#" {
            break;
        }
        let lo = file.tokens[hash].start;
        let hi = file.tokens[close].end;
        out.push(file.text[lo..hi].to_string());
        k = hash;
    }
    out
}

/// Does the struct whose name token is `name_idx` declare `field` at its
/// top level? Scans forward to the body (`{…}`); tuple and unit structs
/// have no named fields.
fn struct_has_field(file: &SourceFile, name_idx: usize, field: &str) -> bool {
    // Find the opening `{`, stopping at `;` (unit) or `(` (tuple).
    let mut k = name_idx;
    let body_open = loop {
        let Some(next) = file.next_code_token(k) else {
            return false;
        };
        match file.token_text(next) {
            "{" => break next,
            ";" | "(" => return false,
            _ => k = next,
        }
    };
    let mut depth = 1usize;
    let mut k = body_open;
    while let Some(next) = file.next_code_token(k) {
        k = next;
        match file.token_text(k) {
            "{" | "(" | "[" => depth += 1,
            "}" | ")" | "]" => {
                depth -= 1;
                if depth == 0 {
                    return false;
                }
            }
            text if depth == 1
                && text == field
                && file.next_code_token(k).map(|j| file.token_text(j)) == Some(":") =>
            {
                return true;
            }
            _ => {}
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SourceFile;

    fn file_at(path: &str, src: &str) -> SourceFile {
        SourceFile::parse(path.into(), src.to_string())
    }

    fn rules_on(path: &str, src: &str) -> Vec<Finding> {
        run_rules(&[file_at(path, src)])
    }

    #[test]
    fn r1_flags_uncommented_unsafe_block() {
        let f = rules_on("src/a.rs", "fn f() {\n    unsafe { danger() };\n}\n");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, RULE_UNSAFE_NEEDS_SAFETY);
        assert_eq!((f[0].line, f[0].col), (2, 5));
        assert!(f[0].message.contains("unsafe block"));
    }

    #[test]
    fn r1_accepts_safety_comment_and_doc_section() {
        let src = "// SAFETY: sound because X.\nunsafe fn g() {}\n\n/// Does things.\n///\n/// # Safety\n/// Caller must Y.\npub unsafe fn h() {}\n\n// SAFETY: covered block.\nfn f() {\n    // SAFETY: local reason.\n    unsafe { danger() };\n}\n";
        assert!(rules_on("src/a.rs", src).is_empty());
    }

    #[test]
    fn r1_attr_between_comment_and_item_is_transparent() {
        let src = "// SAFETY: fine.\n#[inline]\nunsafe fn g() {}\n";
        assert!(rules_on("src/a.rs", src).is_empty());
    }

    #[test]
    fn r1_blank_line_breaks_the_association() {
        let src = "// SAFETY: too far away.\n\nunsafe fn g() {}\n";
        let f = rules_on("src/a.rs", src);
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("unsafe fn"));
    }

    #[test]
    fn r1_applies_inside_tests_too() {
        let src = "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n        unsafe { d.push(1) };\n    }\n}\n";
        assert_eq!(rules_on("src/a.rs", src).len(), 1);
    }

    #[test]
    fn r1_ignores_unsafe_in_strings_and_comments() {
        let src = "// unsafe unsafe unsafe\nconst S: &str = \"unsafe { }\";\n";
        assert!(rules_on("src/a.rs", src).is_empty());
    }

    #[test]
    fn r2_flags_panics_only_in_durable_modules_outside_tests() {
        let src = "fn f(x: Option<u32>) -> u32 {\n    x.unwrap()\n}\nfn g() {\n    panic!(\"boom\");\n    debug_assert!(true);\n}\n#[cfg(test)]\nmod tests {\n    fn t(x: Option<u32>) { x.unwrap(); assert!(true); }\n}\n";
        let durable = rules_on("crates/core/src/wal.rs", src);
        assert_eq!(durable.len(), 2, "{durable:?}");
        assert!(durable.iter().all(|f| f.rule == RULE_NO_PANIC_IN_DURABLE));
        assert!(durable[0].message.contains("unwrap"));
        assert!(durable[1].message.contains("panic"));
        // The same source elsewhere is not R2's business (the unsafe-free
        // file produces nothing at all).
        assert!(rules_on("crates/core/src/peel.rs", src).is_empty());
    }

    #[test]
    fn r2_scope_covers_the_serve_protocol() {
        // The serve module decodes bytes from untrusted socket clients, so
        // it is held to the same fail-closed rule as the durable formats.
        let src = "fn read(x: Option<u32>) -> u32 {\n    x.expect(\"frame\")\n}\n";
        let f = rules_on("crates/cli/src/serve.rs", src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, RULE_NO_PANIC_IN_DURABLE);
        assert!(rules_on("crates/cli/src/lib.rs", src).is_empty());
        assert_eq!(
            DURABLE_MODULES,
            [
                "crates/core/src/wal.rs",
                "crates/core/src/version.rs",
                "crates/bigraph/src/binfmt.rs",
                "crates/cli/src/serve.rs",
            ]
        );
    }

    #[test]
    fn r2_does_not_flag_unwrap_or_else_or_expect_err() {
        let src = "fn f(x: Result<u32, E>) -> u32 {\n    x.unwrap_or_else(|_| 0)\n}\nfn g(x: Result<u32, E>) -> E {\n    x.expect_err_helper()\n}\n";
        assert!(rules_on("crates/core/src/wal.rs", src).is_empty());
    }

    #[test]
    fn r3_requires_ordering_justifications() {
        let src = "fn f(a: &AtomicUsize) {\n    a.load(Ordering::Relaxed);\n    a.store(1, Ordering::SeqCst); // ordering: commit point, totally ordered\n    // ordering: publication; pairs with the Acquire in steal.\n    a.store(2, Ordering::Release);\n}\n";
        let f = rules_on("vendor/rayon/src/deque.rs", src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, RULE_ATOMIC_ORDERING_JUSTIFIED);
        assert_eq!(f[0].line, 2);
        // Same file content outside the configured files: silent.
        assert!(rules_on("vendor/rayon/src/iter.rs", src).is_empty());
    }

    #[test]
    fn r3_one_finding_per_line_and_bare_ordering_is_fine() {
        let src = "use std::sync::atomic::Ordering;\nfn f(a: &AtomicUsize, o: Ordering) {\n    a.compare_exchange(0, 1, Ordering::SeqCst, Ordering::Relaxed);\n}\n";
        let f = rules_on("vendor/rayon/src/pool.rs", src);
        assert_eq!(f.len(), 1, "{f:?}");
    }

    #[test]
    fn r4_flags_lock_acquisitions_in_read_path() {
        let src = "fn f(m: &Mutex<u32>, r: &RwLock<u32>) {\n    let a = m.lock();\n    let b = r.read();\n    let c = r.write();\n}\n";
        let f = rules_on("crates/core/src/snapshot.rs", src);
        assert_eq!(f.len(), 3);
        assert!(f.iter().all(|x| x.rule == RULE_NO_LOCK_IN_READ_PATH));
        assert!(rules_on("crates/core/src/engine.rs", src).is_empty());
    }

    #[test]
    fn r5_missing_schema_version_is_flagged() {
        let src =
            "#[derive(Debug, Serialize)]\npub struct OrphanReport {\n    pub rows: Vec<u32>,\n}\n";
        let f = rules_on("crates/core/src/report.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, RULE_REPORT_HAS_SCHEMA_VERSION);
        assert!(f[0].message.contains("OrphanReport"));
    }

    #[test]
    fn r5_versioned_or_manifest_covered_structs_pass() {
        let src = "#[derive(Serialize)]\npub struct FineReport {\n    pub schema_version: u32,\n}\n\n#[derive(Serialize)]\npub struct LintReport {\n    pub schema_version: u32,\n}\n\n#[derive(Serialize)]\npub struct FindingRow {\n    pub rule: String,\n}\n";
        assert!(rules_on("crates/core/src/report.rs", src).is_empty());
    }

    #[test]
    fn r5_manifest_child_with_missing_parent_is_flagged() {
        let src = "#[derive(Serialize)]\npub struct FindingRow {\n    pub rule: String,\n}\n";
        let f = rules_on("crates/core/src/report.rs", src);
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("LintReport"), "{}", f[0].message);
    }

    #[test]
    fn r5_stale_manifest_child_is_flagged_when_parent_exists() {
        let src =
            "#[derive(Serialize)]\npub struct LintReport {\n    pub schema_version: u32,\n}\n";
        let f = rules_on("crates/core/src/report.rs", src);
        assert_eq!(f.len(), 1);
        assert!(
            f[0].message.contains("stale lint manifest"),
            "{}",
            f[0].message
        );
        assert!(f[0].message.contains("FindingRow"));
    }

    #[test]
    fn r5_ignores_unserialized_private_and_test_structs() {
        let src = "pub struct PlainReport { pub x: u32 }\n#[derive(Serialize)]\nstruct HiddenReport { x: u32 }\n#[derive(Serialize)]\npub(crate) struct ScopedReport { x: u32 }\n#[cfg(test)]\nmod tests {\n    #[derive(Serialize)]\n    pub struct TestOnlyReport { x: u32 }\n}\n";
        assert!(rules_on("crates/core/src/report.rs", src).is_empty());
    }
}
