//! Workspace automation. Run as `cargo xtask <command>` (the alias is
//! defined in `.cargo/config.toml`).
//!
//! `cargo xtask lint` is the repo's static hygiene gate (a merge gate —
//! see CONTRIBUTING.md). It enforces, textually and without nightly
//! tooling:
//!
//! 1. every library crate root carries `#![forbid(unsafe_code)]`;
//! 2. no `unwrap()` / `expect()` / `panic!` in non-test library code,
//!    ratcheted down through `crates/xtask/lint-allowlist.txt` — a file
//!    whose budget drops as call sites are removed, and which fails the
//!    gate when it is *stale* (over **or** under budget) so the count
//!    only ever shrinks;
//! 3. no `println!` outside the bench crate and xtask itself (library
//!    code reports through return values, not stdout);
//! 4. the root manifest defines a `[workspace.lints]` table and every
//!    workspace crate inherits it via `[lints] workspace = true`;
//! 5. **budget-poll**: in `bgi-core` and `bgi-search`, every loop in a
//!    function that takes a `&Budget` must consult or forward that
//!    budget (a budgeted evaluation that spins without polling can
//!    never be cancelled);
//! 6. **failpoint-consistency**: the failpoint catalog (the doc table
//!    in `crates/store/src/fsio.rs`), the labels the store code
//!    actually fires, and the labels the store's tests exercise must
//!    agree in every direction — no phantom labels, no unexercised
//!    crash points;
//! 7. **atomics-ordering**: `Ordering::Relaxed` is forbidden in
//!    library code unless the site carries a `// relaxed:`
//!    justification comment *and* its file is budgeted in
//!    `crates/xtask/relaxed-allowlist.txt` (same ratchet semantics as
//!    gate 2);
//! 8. **lock-scope**: no mutex/rwlock guard may be live across an
//!    fsync (`sync_all` / `sync_data`) — a lock held across a blocking
//!    disk flush stalls every other thread for the device's latency.
//!
//! Setting `BGI_LINT_INJECT=<pass>` (one of `budget-poll`,
//! `failpoint-consistency`, `atomics-ordering`, `lock-scope`, or
//! `all`) feeds that pass a planted violation; the run must then fail.
//! CI uses this to prove each detector actually fires.

#![forbid(unsafe_code)]

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    match args.next().as_deref() {
        Some("lint") => lint(),
        Some(cmd) => {
            eprintln!("unknown xtask command `{cmd}`\n\nusage: cargo xtask lint");
            ExitCode::FAILURE
        }
        None => {
            eprintln!("usage: cargo xtask lint");
            ExitCode::FAILURE
        }
    }
}

/// Repository root, derived from this crate's manifest dir
/// (`crates/xtask` → two levels up).
fn repo_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(Path::parent)
        .expect("crates/xtask has a grandparent")
        .to_path_buf()
}

/// Library crates subject to all gates. `compat/*` shims are exempt
/// from the panic/println rules (they mirror external crates' APIs,
/// including panicking contracts) but still must forbid unsafe code.
const LIB_CRATES: &[&str] = &[
    "crates/graph",
    "crates/bisim",
    "crates/search",
    "crates/core",
    "crates/datasets",
    "crates/verify",
    "crates/store",
    "crates/shard",
    "crates/service",
    "crates/ingest",
];

const COMPAT_CRATES: &[&str] = &[
    "compat/rustc-hash",
    "compat/rand",
    "compat/proptest",
    "compat/criterion",
];

/// Test-harness crates: must forbid unsafe code and stay off stdout,
/// but are exempt from the panic budget — panicking with a replayable
/// diagnosis is `bgi-check`'s *reporting mechanism*, not a bug.
const HARNESS_CRATES: &[&str] = &["crates/check"];

fn lint() -> ExitCode {
    let root = repo_root();
    let inject = std::env::var("BGI_LINT_INJECT").ok();
    let inject = inject.as_deref();
    let mut errors: Vec<String> = Vec::new();

    check_forbid_unsafe(&root, &mut errors);
    check_panic_budget(&root, &mut errors);
    check_println(&root, &mut errors);
    check_workspace_lints(&root, &mut errors);
    check_budget_poll(&root, inject, &mut errors);
    check_failpoint_consistency(&root, inject, &mut errors);
    check_atomics_ordering(&root, inject, &mut errors);
    check_lock_scope(&root, inject, &mut errors);

    if errors.is_empty() {
        println!("xtask lint: all gates passed");
        ExitCode::SUCCESS
    } else {
        eprintln!("xtask lint: {} problem(s)\n", errors.len());
        for e in &errors {
            eprintln!("  - {e}");
        }
        ExitCode::FAILURE
    }
}

fn injecting(inject: Option<&str>, pass: &str) -> bool {
    matches!(inject, Some(v) if v == pass || v == "all")
}

// ---------------------------------------------------------------------------
// Gate 1: #![forbid(unsafe_code)] in every library crate root
// ---------------------------------------------------------------------------

fn check_forbid_unsafe(root: &Path, errors: &mut Vec<String>) {
    let mut roots: Vec<PathBuf> = vec![root.join("src/lib.rs")];
    for c in LIB_CRATES.iter().chain(COMPAT_CRATES).chain(HARNESS_CRATES) {
        roots.push(root.join(c).join("src/lib.rs"));
    }
    for path in roots {
        let rel = rel_str(root, &path);
        match fs::read_to_string(&path) {
            Ok(text) if text.contains("#![forbid(unsafe_code)]") => {}
            Ok(_) => errors.push(format!("{rel}: missing `#![forbid(unsafe_code)]`")),
            Err(e) => errors.push(format!("{rel}: unreadable ({e})")),
        }
    }
}

// ---------------------------------------------------------------------------
// Allowlist machinery shared by the panic and relaxed-ordering ratchets
// ---------------------------------------------------------------------------

/// Parses a `path count` allowlist, rejecting malformed lines,
/// duplicate paths, and out-of-order entries (sorted files keep diffs
/// one-line when a budget ratchets).
fn parse_allowlist(root: &Path, rel: &str, errors: &mut Vec<String>) -> BTreeMap<String, usize> {
    let mut budget: BTreeMap<String, usize> = BTreeMap::new();
    let mut prev: Option<String> = None;
    let text = match fs::read_to_string(root.join(rel)) {
        Ok(t) => t,
        Err(e) => {
            errors.push(format!("{rel}: unreadable ({e})"));
            return budget;
        }
    };
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut it = line.split_whitespace();
        match (it.next(), it.next().and_then(|n| n.parse().ok())) {
            (Some(p), Some(n)) => {
                if budget.insert(p.to_string(), n).is_some() {
                    errors.push(format!("{rel}:{}: duplicate entry `{p}`", i + 1));
                }
                if prev.as_deref().is_some_and(|q| q >= p) {
                    errors.push(format!(
                        "{rel}:{}: entry `{p}` out of order — keep the list sorted",
                        i + 1
                    ));
                }
                prev = Some(p.to_string());
            }
            _ => errors.push(format!("{rel}:{}: malformed line `{line}`", i + 1)),
        }
    }
    budget
}

/// Compares actual per-file counts against a budget with strict
/// ratchet semantics: over budget fails, under budget fails (so the
/// committed numbers only ever shrink), and stale entries fail with a
/// message that says whether the file is clean or gone.
fn enforce_ratchet(
    root: &Path,
    list_rel: &str,
    what: &str,
    actual: &BTreeMap<String, usize>,
    budget: &BTreeMap<String, usize>,
    errors: &mut Vec<String>,
) {
    for (file, &n) in actual {
        match budget.get(file) {
            None => errors.push(format!(
                "{file}: {n} {what} site(s) in library code but no allowlist entry — \
                 remove the site(s) or add `{file} {n}` to {list_rel}"
            )),
            Some(&b) if n > b => errors.push(format!(
                "{file}: {n} {what} site(s), allowlist budget is {b} — \
                 the budget only ratchets down"
            )),
            Some(&b) if n < b => errors.push(format!(
                "{file}: {n} {what} site(s), allowlist budget is {b} — \
                 ratchet the budget down to {n} in {list_rel}"
            )),
            Some(_) => {}
        }
    }
    for file in budget.keys() {
        if !actual.contains_key(file) {
            let state = if root.join(file).exists() {
                "the file is clean"
            } else {
                "the file is gone"
            };
            errors.push(format!(
                "{list_rel}: stale entry `{file}` — {state}; remove the entry"
            ));
        }
    }
}

// ---------------------------------------------------------------------------
// Gate 2: ratcheting unwrap/expect/panic budget in library code
// ---------------------------------------------------------------------------

const ALLOWLIST: &str = "crates/xtask/lint-allowlist.txt";

fn check_panic_budget(root: &Path, errors: &mut Vec<String>) {
    // Count call sites per file in non-test library code.
    let mut actual: BTreeMap<String, usize> = BTreeMap::new();
    let mut files: Vec<PathBuf> = Vec::new();
    collect_rs(&root.join("src"), &mut files);
    for c in LIB_CRATES {
        collect_rs(&root.join(c).join("src"), &mut files);
    }
    for path in &files {
        let rel = rel_str(root, path);
        let Ok(text) = fs::read_to_string(path) else {
            errors.push(format!("{rel}: unreadable"));
            continue;
        };
        let code = non_test_code(&text);
        let n = count_occurrences(&code, ".unwrap()")
            + count_occurrences(&code, ".expect(")
            + count_occurrences(&code, "panic!(")
            + count_occurrences(&code, ".unwrap_err()")
            + count_occurrences(&code, ".expect_err(");
        if n > 0 {
            actual.insert(rel, n);
        }
    }

    let budget = parse_allowlist(root, ALLOWLIST, errors);
    enforce_ratchet(
        root,
        ALLOWLIST,
        "unwrap/expect/panic",
        &actual,
        &budget,
        errors,
    );
}

// ---------------------------------------------------------------------------
// Gate 3: println! stays out of library code
// ---------------------------------------------------------------------------

fn check_println(root: &Path, errors: &mut Vec<String>) {
    let mut files: Vec<PathBuf> = Vec::new();
    collect_rs(&root.join("src"), &mut files);
    for c in LIB_CRATES.iter().chain(HARNESS_CRATES) {
        collect_rs(&root.join(c).join("src"), &mut files);
    }
    for path in &files {
        let Ok(text) = fs::read_to_string(path) else {
            continue; // already reported by the panic gate
        };
        let code = non_test_code(&text);
        let n = count_occurrences(&code, "println!(") + count_occurrences(&code, "print!(");
        if n > 0 {
            errors.push(format!(
                "{}: {n} print site(s) — library code must not write to stdout \
                 (bench and xtask are the only printing crates)",
                rel_str(root, path)
            ));
        }
    }
}

// ---------------------------------------------------------------------------
// Gate 4: [workspace.lints] defined and inherited everywhere
// ---------------------------------------------------------------------------

fn check_workspace_lints(root: &Path, errors: &mut Vec<String>) {
    match fs::read_to_string(root.join("Cargo.toml")) {
        Ok(text) if text.contains("[workspace.lints") => {}
        Ok(_) => errors.push("Cargo.toml: missing `[workspace.lints]` table".to_string()),
        Err(e) => errors.push(format!("Cargo.toml: unreadable ({e})")),
    }
    let mut manifests: Vec<PathBuf> = vec![root.join("Cargo.toml")];
    for c in LIB_CRATES
        .iter()
        .chain(COMPAT_CRATES)
        .chain(HARNESS_CRATES)
        .chain(&["crates/bench", "crates/xtask"])
    {
        manifests.push(root.join(c).join("Cargo.toml"));
    }
    for path in manifests {
        let rel = rel_str(root, &path);
        match fs::read_to_string(&path) {
            Ok(text) => {
                let inherits = text
                    .lines()
                    .skip_while(|l| l.trim() != "[lints]")
                    .nth(1)
                    .is_some_and(|l| l.trim().starts_with("workspace") && l.contains("true"));
                if !inherits {
                    errors.push(format!(
                        "{rel}: missing `[lints]\\nworkspace = true` (workspace lint inheritance)"
                    ));
                }
            }
            Err(e) => errors.push(format!("{rel}: unreadable ({e})")),
        }
    }
}

// ---------------------------------------------------------------------------
// Gate 5: budgeted loops must poll (or forward) their Budget
// ---------------------------------------------------------------------------

const INJECT_BUDGET_POLL: &str = "fn bad(budget: &Budget) -> usize {
    let mut n = 0;
    for i in 0..1000 {
        n += i;
    }
    n
}
";

fn check_budget_poll(root: &Path, inject: Option<&str>, errors: &mut Vec<String>) {
    let mut files: Vec<PathBuf> = Vec::new();
    collect_rs(&root.join("crates/core/src"), &mut files);
    collect_rs(&root.join("crates/search/src"), &mut files);
    for path in &files {
        let Ok(text) = fs::read_to_string(path) else {
            continue;
        };
        errors.extend(budget_poll_violations(&rel_str(root, path), &text));
    }
    if injecting(inject, "budget-poll") {
        let found = budget_poll_violations("<inject:budget-poll>", INJECT_BUDGET_POLL);
        assert!(
            !found.is_empty(),
            "BGI_LINT_INJECT self-test: the budget-poll detector failed to fire"
        );
        errors.extend(found);
    }
}

/// Every *outermost* loop inside a function that takes a `&Budget`
/// must mention the budget parameter — either `budget.check()?`
/// directly, or by forwarding `budget` into a budgeted callee. A loop
/// may opt out with a `// budget-exempt: <reason>` comment on the loop
/// header or the line above (for loops with a small static trip count).
fn budget_poll_violations(rel: &str, text: &str) -> Vec<String> {
    let mut out = Vec::new();
    let lines = non_test_lines(text);
    let mut i = 0;
    while i < lines.len() {
        // Find a fn signature; accumulate it until the body opens.
        if !has_token(&lines[i].stripped, "fn") {
            i += 1;
            continue;
        }
        let mut sig = String::new();
        let mut j = i;
        let body_open = loop {
            if j >= lines.len() {
                break None;
            }
            let s = &lines[j].stripped;
            let _ = write!(sig, "{s} ");
            if s.contains('{') {
                break Some(j);
            }
            if s.contains(';') {
                break None; // trait method declaration — no body
            }
            j += 1;
        };
        let Some(body_open) = body_open else {
            i = j + 1;
            continue;
        };
        let Some(param) = budget_param(&sig) else {
            i = body_open + 1;
            continue;
        };
        let fn_name = sig
            .split("fn ")
            .nth(1)
            .and_then(|r| r.split(['(', '<', ' ']).next())
            .unwrap_or("?")
            .to_string();

        // Walk the body, collecting outermost loop regions.
        let mut depth: i64 = 0;
        let mut k = body_open;
        let mut loop_start: Option<(usize, i64, bool)> = None; // (line idx, depth, exempt)
        let mut loop_text = String::new();
        let mut body_entered = false;
        while k < lines.len() {
            let s = &lines[k].stripped;
            let opens = s.matches('{').count() as i64;
            let closes = s.matches('}').count() as i64;
            if let Some((start, at_depth, exempt)) = loop_start {
                let _ = writeln!(loop_text, "{s}");
                let after = depth + opens - closes;
                if after <= at_depth {
                    let polled = loop_text.contains(&param);
                    if !polled && !exempt {
                        out.push(format!(
                            "{rel}:{}: loop in budgeted fn `{fn_name}` never reaches \
                             `{param}.check()` (nor forwards `{param}`) — an expired \
                             budget cannot interrupt it",
                            lines[start].number
                        ));
                    }
                    loop_start = None;
                    loop_text.clear();
                }
            } else if body_entered
                && (has_token(s, "for") || has_token(s, "while") || has_token(s, "loop"))
            {
                let exempt = lines[k].raw.contains("// budget-exempt:")
                    || (k > 0 && lines[k - 1].raw.contains("// budget-exempt:"));
                loop_start = Some((k, depth, exempt));
                let _ = writeln!(loop_text, "{s}");
            }
            depth += opens - closes;
            if opens > 0 {
                body_entered = true;
            }
            if body_entered && depth <= 0 {
                break; // function body closed
            }
            k += 1;
        }
        i = k + 1;
    }
    out
}

/// Extracts the parameter name bound to `&Budget` in a signature, if
/// any (`budget: &Budget` → `budget`).
fn budget_param(sig: &str) -> Option<String> {
    let idx = sig.find(": &Budget")?;
    let name: String = sig[..idx]
        .chars()
        .rev()
        .take_while(|c| c.isalnum_or_underscore())
        .collect::<Vec<_>>()
        .into_iter()
        .rev()
        .collect();
    (!name.is_empty()).then_some(name)
}

trait IdentChar {
    fn isalnum_or_underscore(self) -> bool;
}
impl IdentChar for char {
    fn isalnum_or_underscore(self) -> bool {
        self.is_ascii_alphanumeric() || self == '_'
    }
}

/// True when `kw` appears in `line` as a standalone word.
fn has_token(line: &str, kw: &str) -> bool {
    let mut rest = line;
    while let Some(pos) = rest.find(kw) {
        let before_ok = pos == 0
            || !rest[..pos]
                .chars()
                .next_back()
                .is_some_and(|c| c.isalnum_or_underscore() || c == '.');
        let after = rest[pos + kw.len()..].chars().next();
        let after_ok = !after.is_some_and(IdentChar::isalnum_or_underscore);
        if before_ok && after_ok {
            return true;
        }
        rest = &rest[pos + kw.len()..];
    }
    false
}

// ---------------------------------------------------------------------------
// Gate 6: failpoint catalog ↔ code ↔ crash tests, all directions
// ---------------------------------------------------------------------------

const FSIO: &str = "crates/store/src/fsio.rs";

fn check_failpoint_consistency(root: &Path, inject: Option<&str>, errors: &mut Vec<String>) {
    let catalog = match fs::read_to_string(root.join(FSIO)) {
        Ok(text) => catalog_labels(&text),
        Err(e) => {
            errors.push(format!("{FSIO}: unreadable ({e})"));
            return;
        }
    };
    if catalog.is_empty() {
        errors.push(format!(
            "{FSIO}: failpoint catalog table is empty or missing"
        ));
        return;
    }

    // Labels the store code fires (non-test, skipping `const` file-name
    // declarations like `wal.log`).
    let mut src_labels: BTreeMap<String, String> = BTreeMap::new();
    let mut files: Vec<PathBuf> = Vec::new();
    collect_rs(&root.join("crates/store/src"), &mut files);
    for path in &files {
        let Ok(text) = fs::read_to_string(path) else {
            continue;
        };
        let rel = rel_str(root, path);
        for line in non_test_lines(&text) {
            if line.stripped.contains("const ") {
                continue;
            }
            for label in label_literals(&strip_comments(line.raw)) {
                src_labels
                    .entry(label)
                    .or_insert_with(|| format!("{rel}:{}", line.number));
            }
        }
    }
    if injecting(inject, "failpoint-consistency") {
        src_labels.insert(
            "save.injected_phantom".to_string(),
            "<inject:failpoint-consistency>".to_string(),
        );
    }

    // Labels the store's tests exercise.
    let mut test_labels: BTreeMap<String, String> = BTreeMap::new();
    let mut tests: Vec<PathBuf> = Vec::new();
    collect_rs(&root.join("crates/store/tests"), &mut tests);
    for path in &tests {
        let Ok(text) = fs::read_to_string(path) else {
            continue;
        };
        let rel = rel_str(root, path);
        for (n, raw) in text.lines().enumerate() {
            for label in label_literals(&strip_comments(raw)) {
                test_labels
                    .entry(label)
                    .or_insert_with(|| format!("{rel}:{}", n + 1));
            }
        }
    }

    for (label, site) in &src_labels {
        if !catalog.contains(label) {
            errors.push(format!(
                "{site}: failpoint `{label}` is not in the {FSIO} catalog table — \
                 document it there"
            ));
        }
    }
    for (label, site) in &test_labels {
        if !catalog.contains(label) {
            errors.push(format!(
                "{site}: test references failpoint `{label}` which is not in the \
                 {FSIO} catalog — stale label?"
            ));
        }
    }
    for label in &catalog {
        if !src_labels.contains_key(label) {
            errors.push(format!(
                "{FSIO}: catalog lists `{label}` but no store code fires it — \
                 remove the row or restore the site"
            ));
        }
        if !test_labels.contains_key(label) {
            errors.push(format!(
                "failpoint `{label}` is never exercised by crates/store/tests — \
                 add it to the crash matrix (or a targeted failpoint test)"
            ));
        }
    }
}

/// Parses the fsio doc table: lines shaped `//! | `label` | ... |`.
fn catalog_labels(fsio_text: &str) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    for line in fsio_text.lines() {
        let t = line.trim();
        if !t.starts_with("//!") || !t.contains('|') {
            continue;
        }
        if let Some(start) = t.find('`') {
            if let Some(len) = t[start + 1..].find('`') {
                let label = &t[start + 1..start + 1 + len];
                if is_label(label) {
                    out.insert(label.to_string());
                }
            }
        }
    }
    out
}

/// Extracts `"save.x"` / `"load.x"` / `"wal.x"` string literals.
fn label_literals(line: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut rest = line;
    while let Some(open) = rest.find('"') {
        let tail = &rest[open + 1..];
        let Some(close) = tail.find('"') else { break };
        let lit = &tail[..close];
        if is_label(lit) {
            out.push(lit.to_string());
        }
        rest = &tail[close + 1..];
    }
    out
}

fn is_label(s: &str) -> bool {
    let Some((ns, op)) = s.split_once('.') else {
        return false;
    };
    matches!(ns, "save" | "load" | "wal")
        && !op.is_empty()
        && op.chars().all(|c| c.is_ascii_lowercase() || c == '_')
}

// ---------------------------------------------------------------------------
// Gate 7: Ordering::Relaxed needs a justification and a budget
// ---------------------------------------------------------------------------

const RELAXED_ALLOWLIST: &str = "crates/xtask/relaxed-allowlist.txt";

const INJECT_RELAXED: &str = "fn bad(n: &AtomicU64) {
    n.fetch_add(1, Ordering::Relaxed);
}
";

fn check_atomics_ordering(root: &Path, inject: Option<&str>, errors: &mut Vec<String>) {
    let mut actual: BTreeMap<String, usize> = BTreeMap::new();
    let mut files: Vec<PathBuf> = Vec::new();
    for c in LIB_CRATES.iter().chain(HARNESS_CRATES) {
        collect_rs(&root.join(c).join("src"), &mut files);
    }
    for path in &files {
        let Ok(text) = fs::read_to_string(path) else {
            continue;
        };
        let rel = rel_str(root, path);
        let (count, unjustified) = relaxed_sites(&text);
        if count > 0 {
            actual.insert(rel.clone(), count);
        }
        for line_no in unjustified {
            errors.push(format!(
                "{rel}:{line_no}: `Ordering::Relaxed` without a `// relaxed:` \
                 justification on the same or a preceding line — say why no \
                 ordering is needed, or use Acquire/Release"
            ));
        }
    }
    if injecting(inject, "atomics-ordering") {
        let (count, unjustified) = relaxed_sites(INJECT_RELAXED);
        assert!(
            count == 1 && !unjustified.is_empty(),
            "BGI_LINT_INJECT self-test: the atomics-ordering detector failed to fire"
        );
        errors.push(format!(
            "<inject:atomics-ordering>:{}: planted unjustified `Ordering::Relaxed`",
            unjustified[0]
        ));
    }

    let budget = parse_allowlist(root, RELAXED_ALLOWLIST, errors);
    enforce_ratchet(
        root,
        RELAXED_ALLOWLIST,
        "Ordering::Relaxed",
        &actual,
        &budget,
        errors,
    );
}

/// Returns (total Relaxed sites, line numbers lacking justification)
/// for one file's non-test code. A justification is a `// relaxed:`
/// comment on the site's line or either of the two lines above it.
fn relaxed_sites(text: &str) -> (usize, Vec<usize>) {
    let all: Vec<&str> = text.lines().collect();
    let mut count = 0;
    let mut unjustified = Vec::new();
    for line in non_test_lines(text) {
        let n = line.stripped.matches("Ordering::Relaxed").count();
        if n == 0 {
            continue;
        }
        count += n;
        let idx = line.number - 1;
        let justified = (idx.saturating_sub(2)..=idx)
            .any(|i| all.get(i).is_some_and(|l| l.contains("// relaxed:")));
        if !justified {
            unjustified.push(line.number);
        }
    }
    (count, unjustified)
}

// ---------------------------------------------------------------------------
// Gate 8: no lock guard held across an fsync
// ---------------------------------------------------------------------------

const INJECT_LOCK_SCOPE: &str = "fn bad(m: &Mutex<File>) {
    let f = m.lock();
    f.sync_all();
}
";

fn check_lock_scope(root: &Path, inject: Option<&str>, errors: &mut Vec<String>) {
    let mut files: Vec<PathBuf> = Vec::new();
    for c in LIB_CRATES.iter().chain(HARNESS_CRATES) {
        collect_rs(&root.join(c).join("src"), &mut files);
    }
    for path in &files {
        let Ok(text) = fs::read_to_string(path) else {
            continue;
        };
        errors.extend(lock_scope_violations(&rel_str(root, path), &text));
    }
    if injecting(inject, "lock-scope") {
        let found = lock_scope_violations("<inject:lock-scope>", INJECT_LOCK_SCOPE);
        assert!(
            !found.is_empty(),
            "BGI_LINT_INJECT self-test: the lock-scope detector failed to fire"
        );
        errors.extend(found);
    }
}

/// Tracks `let guard = ….lock()` / `….write()` bindings by brace depth
/// and flags any direct fsync (`sync_all` / `sync_data`) while one is
/// live. `drop(guard)` releases it early; a guard dies when its block
/// closes. Textual: only same-function, direct sync calls are seen.
fn lock_scope_violations(rel: &str, text: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut depth: i64 = 0;
    // (alive while depth >= this, binding name, acquired at line)
    let mut guards: Vec<(i64, Option<String>, usize)> = Vec::new();
    for line in non_test_lines(text) {
        let s = &line.stripped;
        let opens = s.matches('{').count() as i64;
        let closes = s.matches('}').count() as i64;
        let after = depth + opens - closes;

        if s.contains(".sync_all(") || s.contains(".sync_data(") {
            if let Some((_, name, at)) = guards.last() {
                let who = name.as_deref().unwrap_or("a lock guard");
                out.push(format!(
                    "{rel}:{}: fsync while `{who}` (acquired at line {at}) is still \
                     held — flush outside the critical section or drop the guard first",
                    line.number
                ));
            }
        }
        if s.contains("let ") && (s.contains(".lock()") || s.contains(".write()")) {
            guards.push((after, guard_name(s), line.number));
        }
        if s.contains("drop(") {
            guards.retain(|(_, name, _)| {
                !name
                    .as_deref()
                    .is_some_and(|n| s.contains(&format!("drop({n})")))
            });
        }
        depth = after;
        guards.retain(|&(d, _, _)| depth >= d);
    }
    out
}

/// Best-effort binding name from a `let` line (`let mut g = …` → `g`).
fn guard_name(line: &str) -> Option<String> {
    let after_let = line.split("let ").nth(1)?;
    let pat = after_let.split(['=', ':']).next()?.trim();
    let pat = pat.trim_start_matches("mut ").trim();
    let inner = pat
        .split_once('(')
        .map_or(pat, |(_, rest)| rest.trim_end_matches([')', ' ']));
    let name: String = inner
        .chars()
        .take_while(|c| c.isalnum_or_underscore())
        .collect();
    (!name.is_empty()).then_some(name)
}

// ---------------------------------------------------------------------------
// Text utilities
// ---------------------------------------------------------------------------

fn rel_str(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    let mut paths: Vec<PathBuf> = entries.flatten().map(|e| e.path()).collect();
    paths.sort();
    for p in paths {
        if p.is_dir() {
            collect_rs(&p, out);
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
}

/// One surviving line of non-test code: its 1-based source line
/// number, the raw text (comments intact, for justification checks),
/// and the stripped text (comments and literal contents removed, for
/// substring matching).
struct CodeLine<'a> {
    number: usize,
    raw: &'a str,
    stripped: String,
}

/// The lines of a source file the gates should see: `//` comments and
/// string/char literal contents removed, and everything inside
/// `#[cfg(test)]`-attributed items dropped (tracked by brace
/// matching). The result is not valid Rust — it exists only to be
/// substring-matched.
fn non_test_lines(text: &str) -> Vec<CodeLine<'_>> {
    let mut out = Vec::new();
    // Depth of the brace nesting at which a #[cfg(test)] item started;
    // while inside, lines are dropped.
    let mut skip_from: Option<usize> = None;
    let mut depth: usize = 0;
    let mut pending_test_attr = false;

    for (i, line) in text.lines().enumerate() {
        let stripped = strip_line(line);
        let trimmed = stripped.trim();

        if skip_from.is_none()
            && (trimmed.starts_with("#[cfg(test)]") || pending_test_attr)
            && !trimmed.is_empty()
        {
            // The attribute may sit on its own line above the item.
            if trimmed.starts_with("#[") && !trimmed.contains('{') {
                pending_test_attr = true;
                continue;
            }
            pending_test_attr = false;
            skip_from = Some(depth);
        }

        let opens = stripped.matches('{').count();
        let closes = stripped.matches('}').count();
        let new_depth = (depth + opens).saturating_sub(closes);

        match skip_from {
            Some(base) => {
                // The skipped item ends when its braces close back to
                // the depth it started at (works for `mod tests { ... }`
                // and single-line items alike).
                if new_depth <= base && (closes > 0 || opens == 0) {
                    skip_from = None;
                }
            }
            None => out.push(CodeLine {
                number: i + 1,
                raw: line,
                stripped,
            }),
        }
        depth = new_depth;
    }
    out
}

fn non_test_code(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for line in non_test_lines(text) {
        let _ = writeln!(out, "{}", line.stripped);
    }
    out
}

/// Remove `//` comments and blank out string/char literal contents from
/// one line so `unwrap()` inside a doc comment or format string is not
/// counted.
fn strip_line(line: &str) -> String {
    let mut out = String::with_capacity(line.len());
    let mut chars = line.chars().peekable();
    let mut in_str = false;
    while let Some(c) = chars.next() {
        if in_str {
            match c {
                '\\' => {
                    chars.next(); // skip the escaped char
                }
                '"' => {
                    in_str = false;
                    out.push('"');
                }
                _ => {}
            }
            continue;
        }
        match c {
            '"' => {
                in_str = true;
                out.push('"');
            }
            '/' if chars.peek() == Some(&'/') => break,
            _ => out.push(c),
        }
    }
    out
}

/// Remove `//` comments but keep string literal contents (for label
/// extraction, where the literal itself is the signal).
fn strip_comments(line: &str) -> String {
    let mut out = String::with_capacity(line.len());
    let mut chars = line.chars().peekable();
    let mut in_str = false;
    while let Some(c) = chars.next() {
        if in_str {
            out.push(c);
            match c {
                '\\' => {
                    if let Some(next) = chars.next() {
                        out.push(next);
                    }
                }
                '"' => in_str = false,
                _ => {}
            }
            continue;
        }
        match c {
            '"' => {
                in_str = true;
                out.push('"');
            }
            '/' if chars.peek() == Some(&'/') => break,
            _ => out.push(c),
        }
    }
    out
}

fn count_occurrences(haystack: &str, needle: &str) -> usize {
    haystack.matches(needle).count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strip_line_removes_comments_and_strings() {
        assert_eq!(strip_line("let x = 1; // x.unwrap()"), "let x = 1; ");
        assert_eq!(strip_line(r#"let s = "a.unwrap()";"#), r#"let s = "";"#);
    }

    #[test]
    fn non_test_code_drops_test_modules() {
        let src = "fn a() { x.unwrap(); }\n#[cfg(test)]\nmod tests {\n  fn b() { y.unwrap(); }\n}\nfn c() {}\n";
        let code = non_test_code(src);
        assert_eq!(count_occurrences(&code, ".unwrap()"), 1);
        assert!(code.contains("fn c()"));
    }

    #[test]
    fn budget_poll_flags_an_unpolled_loop() {
        let found = budget_poll_violations("t.rs", INJECT_BUDGET_POLL);
        assert_eq!(found.len(), 1);
        assert!(found[0].contains("t.rs:3"), "{found:?}");
        assert!(found[0].contains("`bad`"), "{found:?}");
    }

    #[test]
    fn budget_poll_accepts_checked_and_forwarding_loops() {
        let src = "fn good(budget: &Budget) -> Result<(), Interrupted> {
    for _ in 0..10 {
        budget.check()?;
    }
    while more() {
        step(budget)?;
    }
    Ok(())
}
fn unbudgeted() {
    for _ in 0..10 {
        spin();
    }
}
";
        assert!(budget_poll_violations("t.rs", src).is_empty());
    }

    #[test]
    fn budget_poll_honors_exemption_comments() {
        let src = "fn mixed(budget: &Budget) {
    // budget-exempt: four semantics, statically bounded
    for s in SEMANTICS {
        table(s);
    }
}
";
        assert!(budget_poll_violations("t.rs", src).is_empty());
    }

    #[test]
    fn budget_poll_handles_multiline_signatures() {
        let src = "fn long(
    base: &Graph,
    budget: &Budget,
) -> usize {
    loop {
        if done() { break; }
    }
    0
}
";
        let found = budget_poll_violations("t.rs", src);
        assert_eq!(found.len(), 1);
        assert!(found[0].contains("`long`"), "{found:?}");
    }

    #[test]
    fn catalog_and_label_extraction() {
        let fsio = "//! | `save.write_file` | write |\n//! | `wal.fsync` | sync |\n";
        let cat = catalog_labels(fsio);
        assert!(cat.contains("save.write_file") && cat.contains("wal.fsync"));
        assert_eq!(
            label_literals(r#"fp.check("wal.append") ; x("not.a.label")"#),
            vec!["wal.append".to_string()]
        );
        assert!(label_literals(r#"const WAL_FILE: &str = "wal.log";"#) == vec!["wal.log"]);
        assert!(!is_label("wal."));
        assert!(!is_label("warn.append"));
    }

    #[test]
    fn relaxed_requires_nearby_justification() {
        let bad = "fn f() {\n    n.fetch_add(1, Ordering::Relaxed);\n}\n";
        let (count, unjustified) = relaxed_sites(bad);
        assert_eq!((count, unjustified), (1, vec![2]));
        let good =
            "fn f() {\n    // relaxed: pure counter\n    n.fetch_add(1, Ordering::Relaxed);\n}\n";
        let (count, unjustified) = relaxed_sites(good);
        assert_eq!((count, unjustified.len()), (1, 0));
    }

    #[test]
    fn lock_scope_flags_guard_held_across_fsync() {
        let found = lock_scope_violations("t.rs", INJECT_LOCK_SCOPE);
        assert_eq!(found.len(), 1);
        assert!(found[0].contains("`f`"), "{found:?}");
    }

    #[test]
    fn lock_scope_accepts_dropped_and_scoped_guards() {
        let src = "fn good(m: &Mutex<Vec<u8>>, f: &File) {
    {
        let g = m.lock();
        g.push(1);
    }
    f.sync_all();
    let h = m.lock();
    drop(h);
    f.sync_all();
}
";
        assert!(lock_scope_violations("t.rs", src).is_empty());
    }

    #[test]
    fn allowlist_ratchet_reports_over_under_and_stale() {
        let actual: BTreeMap<String, usize> = [("a.rs".into(), 3usize), ("b.rs".into(), 1)].into();
        let budget: BTreeMap<String, usize> = [
            ("a.rs".into(), 2usize),
            ("b.rs".into(), 2),
            ("c.rs".into(), 1),
        ]
        .into();
        let mut errors = Vec::new();
        enforce_ratchet(
            Path::new("/nonexistent"),
            "list.txt",
            "x",
            &actual,
            &budget,
            &mut errors,
        );
        assert_eq!(errors.len(), 3, "{errors:?}");
        assert!(errors[0].contains("only ratchets down"));
        assert!(errors[1].contains("ratchet the budget down to 1"));
        assert!(errors[2].contains("stale entry `c.rs`") && errors[2].contains("gone"));
    }
}
