//! The workspace contract, as data: which files carry which invariant.
//!
//! `receipt-lint` is not a general-purpose linter — its rules encode
//! *this repository's* load-bearing contracts, so the scoping lives here
//! as checked-in configuration rather than CLI flags. Paths are relative
//! to the scan root, forward-slash separated; the fixture tree under
//! `tests/fixtures/lint/` mirrors these shapes so file-scoped rules fire
//! there too.

/// Rule identifiers, also the `allow(…)` names of the suppression
/// grammar. Order here is the order rules run and report.
pub const RULE_IDS: &[&str] = &[
    RULE_UNSAFE_NEEDS_SAFETY,
    RULE_NO_PANIC_IN_DURABLE,
    RULE_ATOMIC_ORDERING_JUSTIFIED,
    RULE_NO_LOCK_IN_READ_PATH,
    RULE_REPORT_HAS_SCHEMA_VERSION,
];

/// R1: every `unsafe` block / fn / impl / trait must carry a `// SAFETY:`
/// comment (or a `/// # Safety` doc section for unsafe fns).
pub const RULE_UNSAFE_NEEDS_SAFETY: &str = "unsafe-needs-safety";
/// R2: no `unwrap`/`expect`/`panic!`/`assert!` family outside
/// `#[cfg(test)]` in the fail-closed modules ([`DURABLE_MODULES`]).
pub const RULE_NO_PANIC_IN_DURABLE: &str = "no-panic-in-durable";
/// R3: every `Ordering::` use in the lock-free scheduler files carries an
/// `// ordering:` justification comment.
pub const RULE_ATOMIC_ORDERING_JUSTIFIED: &str = "atomic-ordering-justified";
/// R4: no `.lock()` / `.read()` / `.write()` calls in the snapshot
/// read-path modules.
pub const RULE_NO_LOCK_IN_READ_PATH: &str = "no-lock-in-read-path";
/// R5: every `Serialize`-derived `pub struct *Report` / `*Row` declares
/// `schema_version` or sits under a versioned parent in
/// [`VERSIONED_CHILDREN`].
pub const RULE_REPORT_HAS_SCHEMA_VERSION: &str = "report-has-schema-version";

/// Meta rule: a suppression comment without a `-- justification` tail.
pub const RULE_SUPPRESSION_NEEDS_JUSTIFICATION: &str = "suppression-needs-justification";
/// Meta rule: a suppression naming a rule id that does not exist.
pub const RULE_SUPPRESSION_UNKNOWN_RULE: &str = "suppression-unknown-rule";

/// Fail-closed modules: a corrupt or hostile byte must surface as a
/// typed error, never a panic. The durable formats (FORMATS.md §2,
/// VERSIONING.md §2) keep torn inputs from crashing recovery half-way
/// through a replay; the serve protocol keeps an untrusted socket client
/// from taking the server down.
pub const DURABLE_MODULES: &[&str] = &[
    "crates/core/src/wal.rs",
    "crates/core/src/version.rs",
    "crates/bigraph/src/binfmt.rs",
    "crates/cli/src/serve.rs",
];

/// The lock-free scheduler sources whose every atomic ordering must be
/// justified in place — the Chase–Lev/Lê-et-al. fence placement is a
/// machine-checked contract, not folklore.
pub const ATOMIC_FILES: &[&str] = &["vendor/rayon/src/deque.rs", "vendor/rayon/src/pool.rs"];

/// Snapshot read-path modules: everything an `EngineSnapshot` reader
/// executes after cloning the `Arc`. Readers never block, so no lock
/// acquisition of any kind may appear here.
pub const READ_PATH_MODULES: &[&str] = &["crates/core/src/snapshot.rs"];

/// The versioned-parent manifest for R5: `(child struct, versioned
/// ancestor struct)`. A child listed here may omit `schema_version`
/// because it is only ever serialized embedded in its ancestor's
/// document. The manifest itself is checked: a stale child (struct gone
/// or renamed) or an unversioned ancestor is a finding.
pub const VERSIONED_CHILDREN: &[(&str, &str)] = &[
    // receipt::report — rows embedded in StreamReport / VersionReport.
    ("StreamBatchReport", "StreamReport"),
    ("VersionEntryReport", "VersionReport"),
    ("VersionDiffReport", "VersionReport"),
    ("TimeTravelReport", "VersionReport"),
    // receipt_bench::report — every experiment section and row is only
    // ever emitted inside the top-level ReproReport document.
    ("Table2Row", "ReproReport"),
    ("Table3Row", "ReproReport"),
    ("WingRow", "ReproReport"),
    ("DynamicRow", "ReproReport"),
    ("ServeExperimentReport", "ReproReport"),
    ("ServeBatchRow", "ReproReport"),
    ("RecoverExperimentReport", "ReproReport"),
    ("CrashRow", "ReproReport"),
    ("CheckpointFoldRow", "ReproReport"),
    ("LoadCostRow", "ReproReport"),
    ("VersionsExperimentReport", "ReproReport"),
    ("VersionTagRow", "ReproReport"),
    ("TimeTravelRow", "ReproReport"),
    ("DiffLawRow", "ReproReport"),
    ("DeriveChecksRow", "ReproReport"),
    ("SmokeReport", "ReproReport"),
    // receipt_lint::report — findings ride inside the LintReport.
    ("FindingRow", "LintReport"),
];

/// Does `rule` exist (core rules only — meta rules cannot be allowed)?
pub fn is_known_rule(rule: &str) -> bool {
    RULE_IDS.contains(&rule)
}
