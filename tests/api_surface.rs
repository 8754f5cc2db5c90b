//! Public-API snapshot check: a grep-level listing of every `pub` item
//! declaration in the workspace's non-vendored crates, compared against
//! the committed `tests/api_surface.txt`.
//!
//! The point is not semantic API stability — rustdoc and semver tooling do
//! that better — but *visibility of surface drift in review*: any PR that
//! adds, removes or renames a public item changes the committed listing,
//! so the diff shows up where reviewers look.
//!
//! To refresh the snapshot after an intentional change:
//!
//! ```sh
//! UPDATE_API_SURFACE=1 cargo test --test api_surface
//! ```
//!
//! Heuristics (deliberately grep-simple): only lines whose trimmed form
//! starts with a `pub ` item keyword count; only the first line of a
//! multi-line signature is recorded; scanning a file stops at its
//! `#[cfg(test)]` module (test-only items are not API). Vendored shims
//! under `crates/shims/` are excluded — their API is dictated by the crates
//! they stand in for.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Crate source roots covered by the snapshot, relative to the workspace
/// root.
const SOURCE_ROOTS: &[&str] = &[
    "src",
    "crates/core/src",
    "crates/geo/src",
    "crates/synth/src",
    "crates/stats/src",
    "crates/baselines/src",
    "crates/attack/src",
    "crates/eval/src",
    "crates/serve/src",
    "crates/cli/src",
];

/// Item keywords that begin a public declaration.
const ITEM_PREFIXES: &[&str] = &[
    "pub fn ",
    "pub struct ",
    "pub enum ",
    "pub trait ",
    "pub type ",
    "pub mod ",
    "pub const ",
    "pub static ",
    "pub use ",
];

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let entries = std::fs::read_dir(dir).unwrap_or_else(|e| panic!("read {dir:?}: {e}"));
    for entry in entries {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// One normalized listing line per public item declaration in `source`.
fn surface_of(source: &str) -> Vec<String> {
    let mut items = Vec::new();
    for line in source.lines() {
        let trimmed = line.trim();
        if trimmed.starts_with("#[cfg(test)]") {
            break; // test modules sit at the bottom of every file here
        }
        if ITEM_PREFIXES.iter().any(|p| trimmed.starts_with(p)) {
            items.push(trimmed.trim_end_matches('{').trim_end().to_string());
        }
    }
    items
}

fn generate(root: &Path) -> String {
    let mut entries: Vec<String> = Vec::new();
    for source_root in SOURCE_ROOTS {
        let dir = root.join(source_root);
        let mut files = Vec::new();
        rust_files(&dir, &mut files);
        files.sort();
        for file in files {
            let rel = file
                .strip_prefix(root)
                .expect("under root")
                .to_string_lossy()
                .replace('\\', "/");
            let source = std::fs::read_to_string(&file).expect("readable source");
            for item in surface_of(&source) {
                entries.push(format!("{rel}: {item}"));
            }
        }
    }
    entries.sort();
    let mut out = String::new();
    for entry in &entries {
        let _ = writeln!(out, "{entry}");
    }
    out
}

#[test]
fn public_api_surface_matches_snapshot() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let snapshot_path = root.join("tests/api_surface.txt");
    let generated = generate(&root);

    if std::env::var_os("UPDATE_API_SURFACE").is_some() {
        std::fs::write(&snapshot_path, &generated).expect("snapshot writable");
        return;
    }

    let committed = std::fs::read_to_string(&snapshot_path).unwrap_or_default();
    if committed == generated {
        return;
    }

    // Render a compact diff so the failure is actionable without tooling.
    // Occurrence counts matter: the listing legitimately contains duplicate
    // lines (same signature in two types), so a set-based diff could come
    // out empty while the files differ.
    let mut counts: std::collections::BTreeMap<&str, (i64, i64)> =
        std::collections::BTreeMap::new();
    for line in committed.lines() {
        counts.entry(line).or_default().0 += 1;
    }
    for line in generated.lines() {
        counts.entry(line).or_default().1 += 1;
    }
    let mut diff = String::new();
    for (line, (was, now)) in counts {
        match was.cmp(&now) {
            std::cmp::Ordering::Greater => {
                let _ = writeln!(diff, "- {line} (x{})", was - now);
            }
            std::cmp::Ordering::Less => {
                let _ = writeln!(diff, "+ {line} (x{})", now - was);
            }
            std::cmp::Ordering::Equal => {}
        }
    }
    panic!(
        "public API surface drifted from tests/api_surface.txt:\n{diff}\n\
         If the change is intentional, refresh the snapshot with\n\
         UPDATE_API_SURFACE=1 cargo test --test api_surface"
    );
}
