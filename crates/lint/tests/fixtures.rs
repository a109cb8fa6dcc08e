//! Fixture tests: every rule fires on a minimal positive case, stays quiet on
//! the corresponding sound pattern, and is suppressed by a well-formed
//! `sigfim-lint: allow(...)` annotation.
//!
//! Fixtures are inline strings, so the lint's own scan of this file can never
//! be confused by them: string-literal contents are blanked out of the code
//! channel by the lexer.

use sigfim_lint::{lint_sources, Diagnostic, JsonReport, LintConfig, JSON_SCHEMA_VERSION};

fn lint_one(path: &str, source: &str) -> Vec<Diagnostic> {
    lint_sources(
        &[(path.to_string(), source.to_string())],
        &LintConfig::default(),
    )
}

fn rules_of(diagnostics: &[Diagnostic]) -> Vec<&str> {
    diagnostics.iter().map(|d| d.rule.as_str()).collect()
}

// ---------------------------------------------------------------- nondet

const NONDET_POSITIVE: &str = r#"
use std::collections::HashMap;
fn f() -> Vec<u32> {
    let m: HashMap<u32, u32> = HashMap::new();
    let mut out = Vec::new();
    for key in m.keys() {
        out.push(*key);
    }
    out
}
"#;

#[test]
fn nondet_fires_on_unsorted_hash_iteration() {
    let diagnostics = lint_one("crates/core/src/fake.rs", NONDET_POSITIVE);
    assert_eq!(rules_of(&diagnostics), ["nondet-iteration"]);
    assert_eq!(diagnostics[0].line, 6);
}

#[test]
fn nondet_scoped_to_result_producing_crates() {
    // The same source in a non-result crate is out of scope.
    assert!(lint_one("crates/service/src/fake.rs", NONDET_POSITIVE).is_empty());
    assert!(lint_one("crates/lint/src/fake.rs", NONDET_POSITIVE).is_empty());
}

#[test]
fn nondet_quiet_when_sorted_or_order_insensitive() {
    let sorted = r#"
use std::collections::HashMap;
fn f() -> Vec<u32> {
    let m: HashMap<u32, u32> = HashMap::new();
    let mut out: Vec<u32> = m.keys().copied().collect();
    out.sort_unstable();
    out
}
"#;
    assert!(lint_one("crates/core/src/fake.rs", sorted).is_empty());

    let counted = r#"
use std::collections::HashSet;
fn f(wanted: u32) -> usize {
    let s: HashSet<u32> = HashSet::new();
    s.iter().filter(|&&x| x == wanted).count()
}
"#;
    assert!(lint_one("crates/core/src/fake.rs", counted).is_empty());
}

#[test]
fn nondet_quiet_in_test_regions() {
    let in_tests = r#"
use std::collections::HashMap;
#[cfg(test)]
mod tests {
    fn f() {
        let m: HashMap<u32, u32> = HashMap::new();
        for key in m.keys() {
            let _ = key;
        }
    }
}
"#;
    assert!(lint_one("crates/core/src/fake.rs", in_tests).is_empty());
}

#[test]
fn nondet_suppressed_by_allow() {
    let allowed = r#"
use std::collections::HashMap;
fn f() -> u64 {
    let m: HashMap<u32, u64> = HashMap::new();
    let mut total = 0;
    // sigfim-lint: allow(nondet-iteration, reason = "integer sum is order-independent")
    for value in m.values() {
        total += *value;
    }
    total
}
"#;
    assert!(lint_one("crates/core/src/fake.rs", allowed).is_empty());
}

// ---------------------------------------------------------------- unsafety

#[test]
fn unsafety_fires_without_safety_comment() {
    let source = r#"
pub fn f(p: *const u8) -> u8 {
    unsafe { *p }
}
"#;
    let diagnostics = lint_one("crates/exec/src/fake.rs", source);
    assert_eq!(rules_of(&diagnostics), ["unsafe-needs-safety"]);
}

#[test]
fn unsafety_quiet_with_safety_comment() {
    let source = r#"
pub fn f(p: *const u8) -> u8 {
    // SAFETY: callers guarantee `p` is valid for reads.
    unsafe { *p }
}
"#;
    assert!(lint_one("crates/exec/src/fake.rs", source).is_empty());
}

#[test]
fn unsafety_fires_on_mmap_style_syscall_block() {
    // The spill module's mmap wrapper is the archetype: a raw syscall behind
    // `unsafe` with no SAFETY contract is exactly what the rule must catch.
    let source = r#"
fn map(len: usize, fd: i32) -> *mut u8 {
    unsafe { mmap(std::ptr::null_mut(), len, 1, 2, fd, 0) as *mut u8 }
}
"#;
    let diagnostics = lint_one("crates/datasets/src/fake.rs", source);
    assert_eq!(rules_of(&diagnostics), ["unsafe-needs-safety"]);
}

#[test]
fn unsafety_quiet_on_safety_documented_mmap() {
    let source = r#"
fn map(len: usize, fd: i32) -> *mut u8 {
    // SAFETY: `fd` is a live spill file of at least `len` bytes; the mapping
    // is read-only and unmapped before the file is truncated or removed.
    unsafe { mmap(std::ptr::null_mut(), len, 1, 2, fd, 0) as *mut u8 }
}
"#;
    assert!(lint_one("crates/datasets/src/fake.rs", source).is_empty());
}

#[test]
fn unsafety_comment_survives_intervening_attributes() {
    let source = r#"
// SAFETY: sound only through the detected vtable.
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn fast() {}
fn gate() -> bool {
    std::arch::is_x86_feature_detected!("avx2")
}
"#;
    assert!(lint_one("crates/datasets/src/fake.rs", source).is_empty());
}

#[test]
fn unsafety_suppressed_by_allow() {
    let source = r#"
pub fn f(p: *const u8) -> u8 {
    // sigfim-lint: allow(unsafe-needs-safety, reason = "fixture")
    unsafe { *p }
}
"#;
    assert!(lint_one("crates/exec/src/fake.rs", source).is_empty());
}

// ---------------------------------------------------------------- dispatch

const DISPATCH_MODULE: &str = r#"
mod simd {
    // SAFETY: unsafe only because of #[target_feature]; gated below.
    #[target_feature(enable = "avx2")]
    unsafe fn fast() -> u64 { 1 }

    pub fn dispatch() -> u64 {
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: detected on the line above.
            unsafe { fast() }
        } else {
            0
        }
    }
}
"#;

#[test]
fn dispatch_quiet_when_confined_to_module() {
    assert!(lint_one("crates/datasets/src/fake.rs", DISPATCH_MODULE).is_empty());
}

#[test]
fn dispatch_fires_on_mention_outside_module() {
    let source = format!(
        "{DISPATCH_MODULE}\npub fn rogue() -> u64 {{\n    // SAFETY: none, this is the violation fixture.\n    unsafe {{ simd::fast() }}\n}}\n"
    );
    let diagnostics = lint_one("crates/datasets/src/fake.rs", &source);
    assert_eq!(rules_of(&diagnostics), ["target-feature-dispatch"]);
    assert!(diagnostics[0].message.contains("fast"));
}

#[test]
fn dispatch_fires_when_file_has_no_detection_gate() {
    let source = r#"
// SAFETY: unsafe only because of #[target_feature].
#[target_feature(enable = "avx2")]
unsafe fn fast() -> u64 { 1 }
"#;
    let diagnostics = lint_one("crates/datasets/src/fake.rs", source);
    assert!(rules_of(&diagnostics).contains(&"target-feature-dispatch"));
    assert!(diagnostics
        .iter()
        .any(|d| d.message.contains("no `is_x86_feature_detected!` gate")));
}

#[test]
fn dispatch_suppressed_by_allow() {
    let source = format!(
        "{DISPATCH_MODULE}\npub fn rogue() -> u64 {{\n    // SAFETY: fixture.\n    // sigfim-lint: allow(target-feature-dispatch, reason = \"fixture\")\n    unsafe {{ simd::fast() }}\n}}\n"
    );
    assert!(lint_one("crates/datasets/src/fake.rs", &source).is_empty());
}

// ---------------------------------------------------------------- envread

const ENVREAD_POSITIVE: &str = r#"
pub fn sneaky() -> Option<String> {
    std::env::var("SIGFIM_KERNELS").ok()
}
"#;

#[test]
fn envread_fires_outside_config_modules() {
    let diagnostics = lint_one("crates/core/src/fake.rs", ENVREAD_POSITIVE);
    assert_eq!(rules_of(&diagnostics), ["env-read-centralized"]);
    assert!(diagnostics[0].message.contains("SIGFIM_KERNELS"));
}

#[test]
fn envread_quiet_in_designated_files_and_for_other_vars() {
    assert!(lint_one("crates/datasets/src/sampler.rs", ENVREAD_POSITIVE).is_empty());
    // The former tuner modules read no configuration any more, so they are
    // no longer config seams: a `SIGFIM_*` read there is reported.
    for former_seam in ["crates/datasets/src/tune.rs", "crates/mining/src/tune.rs"] {
        let diagnostics = lint_one(former_seam, ENVREAD_POSITIVE);
        assert_eq!(
            rules_of(&diagnostics),
            ["env-read-centralized"],
            "{former_seam}"
        );
    }
    let other_var = r#"
pub fn home() -> Option<String> {
    std::env::var("HOME").ok()
}
"#;
    assert!(lint_one("crates/core/src/fake.rs", other_var).is_empty());
}

#[test]
fn envread_spill_module_is_not_a_config_seam() {
    // Shard residency is a per-engine value, so the spill module reads no
    // configuration any more: a `SIGFIM_*` read there is reported, as it is
    // anywhere outside the kernel and sampler modules.
    let diagnostics = lint_one("crates/datasets/src/spill.rs", ENVREAD_POSITIVE);
    assert_eq!(rules_of(&diagnostics), ["env-read-centralized"]);
    assert!(diagnostics[0].message.contains("SIGFIM_"));
}

#[test]
fn envread_suppressed_by_allow() {
    let source = r#"
pub fn sneaky() -> Option<String> {
    // sigfim-lint: allow(env-read-centralized, reason = "fixture")
    std::env::var("SIGFIM_KERNELS").ok()
}
"#;
    assert!(lint_one("crates/core/src/fake.rs", source).is_empty());
}

// ---------------------------------------------------------------- wire

#[test]
fn wire_fires_on_new_field_without_default() {
    let source = r#"
pub const PROTOCOL_VERSION: u32 = 1;
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TunerTiming {
    pub subject: String,
    pub median_ns: u64,
    pub samples: u64,
}
"#;
    let diagnostics = lint_one("crates/service/src/protocol.rs", source);
    assert_eq!(rules_of(&diagnostics), ["wire-additivity"]);
    assert!(diagnostics[0].message.contains("samples"));
}

#[test]
fn wire_quiet_on_defaulted_or_baseline_fields() {
    let source = r#"
pub const PROTOCOL_VERSION: u32 = 1;
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TunerTiming {
    pub subject: String,
    pub median_ns: u64,
    #[serde(default)]
    pub samples: u64,
}
"#;
    assert!(lint_one("crates/service/src/protocol.rs", source).is_empty());
}

#[test]
fn wire_new_struct_needs_all_fields_defaulted() {
    let bare = r#"
#[derive(Serialize, Deserialize)]
pub struct BrandNew {
    pub value: u64,
}
"#;
    let diagnostics = lint_one("crates/service/src/protocol.rs", bare);
    assert_eq!(rules_of(&diagnostics), ["wire-additivity"]);
    assert!(diagnostics[0].message.contains("not in the v1 baseline"));

    let defaulted = r#"
#[derive(Serialize, Deserialize)]
pub struct BrandNew {
    #[serde(default)]
    pub value: u64,
}
"#;
    assert!(lint_one("crates/service/src/protocol.rs", defaulted).is_empty());
}

#[test]
fn wire_scoped_to_protocol_file_and_suppressed_by_allow() {
    let source = r#"
#[derive(Serialize, Deserialize)]
pub struct BrandNew {
    pub value: u64,
}
"#;
    assert!(lint_one("crates/service/src/fake.rs", source).is_empty());

    let allowed = r#"
#[derive(Serialize, Deserialize)]
pub struct BrandNew {
    // sigfim-lint: allow(wire-additivity, reason = "fixture")
    pub value: u64,
}
"#;
    assert!(lint_one("crates/service/src/protocol.rs", allowed).is_empty());
}

// ---------------------------------------------------------------- locks

#[test]
fn locks_fire_on_nested_acquisition() {
    let source = r#"
use std::sync::Mutex;
fn f(a: &Mutex<u32>, b: &Mutex<u32>) -> u32 {
    *a.lock().expect("a") + *b.lock().expect("b")
}
"#;
    let diagnostics = lint_one("crates/service/src/fake.rs", source);
    assert_eq!(rules_of(&diagnostics), ["lock-hygiene"]);
    assert!(diagnostics[0]
        .message
        .contains("multiple lock acquisitions"));
}

#[test]
fn locks_fire_on_undocumented_unwrap() {
    let source = r#"
use std::sync::Mutex;
fn f(a: &Mutex<u32>) -> u32 {
    *a.lock().unwrap()
}
"#;
    let diagnostics = lint_one("crates/service/src/fake.rs", source);
    assert_eq!(rules_of(&diagnostics), ["lock-hygiene"]);
    assert!(diagnostics[0].message.contains("unwrap"));
}

#[test]
fn locks_quiet_with_poison_comment_recovery_or_in_tests() {
    let documented = r#"
use std::sync::Mutex;
fn f(a: &Mutex<u32>) -> u32 {
    // A poisoned mutex means a sibling panicked; propagate the panic.
    *a.lock().unwrap()
}
"#;
    assert!(lint_one("crates/service/src/fake.rs", documented).is_empty());

    let recovering = r#"
use std::sync::Mutex;
fn f(a: &Mutex<u32>) -> u32 {
    *a.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}
"#;
    assert!(lint_one("crates/service/src/fake.rs", recovering).is_empty());

    let in_tests = r#"
use std::sync::Mutex;
#[cfg(test)]
mod tests {
    fn f(a: &std::sync::Mutex<u32>) -> u32 {
        *a.lock().unwrap()
    }
}
"#;
    assert!(lint_one("crates/service/src/fake.rs", in_tests).is_empty());
}

#[test]
fn locks_suppressed_by_allow() {
    let source = r#"
use std::sync::Mutex;
fn f(a: &Mutex<u32>) -> u32 {
    // sigfim-lint: allow(lock-hygiene, reason = "fixture")
    *a.lock().unwrap()
}
"#;
    assert!(lint_one("crates/service/src/fake.rs", source).is_empty());
}

// ---------------------------------------------------------------- storeio

const STOREIO_POSITIVE: &str = r#"
use std::io::Write;
// This writer frames every payload behind a CRC32 before it hits the disk.
fn append(file: &mut std::fs::File, frame: &[u8]) {
    let _ = file.write_all(frame);
}
"#;

#[test]
fn storeio_fires_on_discarded_write_result() {
    let diagnostics = lint_one("crates/store/src/fake.rs", STOREIO_POSITIVE);
    assert_eq!(rules_of(&diagnostics), ["store-io-checked"]);
    assert!(diagnostics[0].message.contains("write_all"));
    assert!(diagnostics[0].message.contains("io::Result"));
}

#[test]
fn storeio_fires_on_each_discarded_durability_call() {
    let source = r#"
// CRC framing is documented at the module level.
fn teardown(file: &std::fs::File, dir: &std::path::Path) {
    let _ = file.sync_all();
    let _ = std::fs::remove_file(dir.join("seg-000000.log"));
}
"#;
    let diagnostics = lint_one("crates/store/src/fake.rs", source);
    assert_eq!(
        rules_of(&diagnostics),
        ["store-io-checked", "store-io-checked"]
    );
    assert!(diagnostics[0].message.contains("sync_all"));
    assert!(diagnostics[1].message.contains("remove_file"));
}

#[test]
fn storeio_fires_on_raw_write_without_crc_mention() {
    let source = r#"
use std::io::Write;
fn append(file: &mut std::fs::File, frame: &[u8]) -> std::io::Result<()> {
    file.write_all(frame)
}
"#;
    let diagnostics = lint_one("crates/store/src/fake.rs", source);
    assert_eq!(rules_of(&diagnostics), ["store-io-checked"]);
    assert!(diagnostics[0].message.contains("CRC"));
}

#[test]
fn storeio_quiet_on_propagated_writes_builders_and_other_crates() {
    // Propagating the result with a CRC mention is the sound pattern.
    let sound = r#"
use std::io::Write;
// Frames are [crc32][len][payload]; the caller fsyncs.
fn append(file: &mut std::fs::File, frame: &[u8]) -> std::io::Result<()> {
    file.write_all(frame)?;
    file.sync_data()
}
"#;
    assert!(lint_one("crates/store/src/fake.rs", sound).is_empty());

    // `OpenOptions::write(true)` is a builder flag, not a write.
    let builder = r#"
fn open(path: &std::path::Path) -> std::io::Result<std::fs::File> {
    let _ = std::fs::OpenOptions::new().write(true).open(path);
    std::fs::OpenOptions::new().read(true).open(path)
}
"#;
    assert!(lint_one("crates/store/src/fake.rs", builder).is_empty());

    // The rule is scoped to the store crate; elsewhere `let _ =` on a write
    // is someone else's judgment call.
    assert!(lint_one("crates/service/src/fake.rs", STOREIO_POSITIVE).is_empty());

    // Test regions may discard freely (fixtures clean up best-effort).
    let in_tests = r#"
// CRC framing note for the scanner.
#[cfg(test)]
mod tests {
    fn cleanup(dir: &std::path::Path) {
        let _ = std::fs::remove_file(dir.join("x"));
    }
}
"#;
    assert!(lint_one("crates/store/src/fake.rs", in_tests).is_empty());
}

#[test]
fn storeio_suppressed_by_allow() {
    let source = r#"
use std::io::Write;
// CRC framing is handled by the caller.
fn append(file: &mut std::fs::File, frame: &[u8]) {
    // sigfim-lint: allow(store-io-checked, reason = "fixture")
    let _ = file.write_all(frame);
}
"#;
    assert!(lint_one("crates/store/src/fake.rs", source).is_empty());
}

// ---------------------------------------------------------------- meta

#[test]
fn malformed_allow_is_itself_reported() {
    let source = r#"
fn f() {
    // sigfim-lint: allow(lock-hygiene)
}
"#;
    let diagnostics = lint_one("crates/service/src/fake.rs", source);
    assert_eq!(rules_of(&diagnostics), ["malformed-allow"]);
}

#[test]
fn disabled_rules_are_skipped() {
    let config = LintConfig {
        disabled: vec!["nondet-iteration".to_string()],
    };
    let diagnostics = lint_sources(
        &[(
            "crates/core/src/fake.rs".to_string(),
            NONDET_POSITIVE.to_string(),
        )],
        &config,
    );
    assert!(diagnostics.is_empty());
}

#[test]
fn diagnostics_are_sorted_and_display_as_grep_lines() {
    let sources = vec![
        (
            "crates/core/src/fake.rs".to_string(),
            NONDET_POSITIVE.to_string(),
        ),
        (
            "crates/core/src/earlier.rs".to_string(),
            ENVREAD_POSITIVE.to_string(),
        ),
    ];
    let diagnostics = lint_sources(&sources, &LintConfig::default());
    assert_eq!(diagnostics.len(), 2);
    assert_eq!(diagnostics[0].file, "crates/core/src/earlier.rs");
    let rendered = diagnostics[0].to_string();
    assert!(rendered.starts_with("crates/core/src/earlier.rs:3: env-read-centralized:"));
}

#[test]
fn json_report_round_trips_through_schema() {
    let diagnostics = lint_one("crates/core/src/fake.rs", NONDET_POSITIVE);
    let report = JsonReport::new(1, diagnostics);
    let json = report.to_json();
    let parsed: JsonReport = serde_json::from_str(&json).expect("schema round-trip");
    assert_eq!(parsed, report);
    assert_eq!(parsed.schema_version, JSON_SCHEMA_VERSION);
    assert_eq!(parsed.files_scanned, 1);
    assert_eq!(parsed.diagnostics.len(), 1);
}
