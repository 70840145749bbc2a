//! Every dependency a workspace crate declares is used: a crate whose
//! `[dependencies]` list `foo-bar` must name `foo_bar` somewhere in its
//! `src/`, and a `[dev-dependencies]` entry must be named in `src/`,
//! `tests/`, `examples/` or `benches/`. Unused declarations still get
//! built and linked, and they hide which crates really depend on which.

use std::fs;
use std::path::{Path, PathBuf};

/// The keys of a manifest's `table` (`"[dependencies]"` or
/// `"[dev-dependencies]"`), as written (`foo-bar`).
fn dependencies(manifest: &str, table: &str) -> Vec<String> {
    let mut in_section = false;
    let mut deps = Vec::new();
    for line in manifest.lines().map(str::trim) {
        if line.starts_with('[') {
            in_section = line == table;
        } else if in_section && !line.is_empty() && !line.starts_with('#') {
            let key = line.split(['=', '.']).next().unwrap_or("").trim();
            deps.push(key.to_string());
        }
    }
    deps
}

/// Whether `text` contains `ident` as a whole Rust identifier.
fn names(text: &str, ident: &str) -> bool {
    let is_ident = |c: char| c.is_alphanumeric() || c == '_';
    text.match_indices(ident).any(|(at, _)| {
        let before = text[..at].chars().next_back();
        let after = text[at + ident.len()..].chars().next();
        !before.is_some_and(is_ident) && !after.is_some_and(is_ident)
    })
}

/// The concatenated text of every `.rs` file under `dir` (empty when
/// `dir` does not exist).
fn rust_sources(dir: &Path) -> String {
    let mut text = String::new();
    let Ok(entries) = fs::read_dir(dir) else {
        return text;
    };
    for entry in entries {
        let path = entry.unwrap().path();
        if path.is_dir() {
            text.push_str(&rust_sources(&path));
        } else if path.extension().is_some_and(|x| x == "rs") {
            text.push_str(&fs::read_to_string(&path).unwrap());
        }
    }
    text
}

/// Declared dependencies of the package at `dir` that the code allowed
/// to use them never names.
fn unused_dependencies(dir: &Path) -> Vec<String> {
    let manifest = fs::read_to_string(dir.join("Cargo.toml")).unwrap();
    let src = rust_sources(&dir.join("src"));
    let dev = ["tests", "examples", "benches"]
        .iter()
        .fold(src.clone(), |text, sub| {
            text + &rust_sources(&dir.join(sub))
        });
    let unused = |table: &str, sources: &str| -> Vec<String> {
        dependencies(&manifest, table)
            .into_iter()
            .filter(|dep| !names(sources, &dep.replace('-', "_")))
            .map(|dep| format!("{table} {dep}"))
            .collect()
    };
    let mut out = unused("[dependencies]", &src);
    out.extend(unused("[dev-dependencies]", &dev));
    out
}

#[test]
fn parser_reads_only_the_dependencies_table() {
    let manifest = "[package]\nname = \"x\"\n\n[dependencies]\n# comment\n\
                    fastgl-core.workspace = true\nrand = { path = \"r\" }\n\n\
                    [dev-dependencies]\nproptest.workspace = true\n";
    assert_eq!(
        dependencies(manifest, "[dependencies]"),
        ["fastgl-core", "rand"]
    );
    assert_eq!(dependencies(manifest, "[dev-dependencies]"), ["proptest"]);
    assert!(names("use fastgl_core::Pipeline;", "fastgl_core"));
    assert!(!names("let random = 1; // fastgl_core_x", "rand"));
    assert!(!names("fastgl_core_x", "fastgl_core"));
}

#[test]
fn every_declared_dependency_is_named() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let mut packages = vec![root.clone()];
    let mut crates: Vec<PathBuf> = fs::read_dir(root.join("crates"))
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.join("Cargo.toml").exists())
        .collect();
    crates.sort();
    assert!(!crates.is_empty());
    packages.extend(crates);
    let unused: Vec<String> = packages
        .iter()
        .flat_map(|dir| {
            unused_dependencies(dir)
                .into_iter()
                .map(move |dep| format!("{}: {dep}", dir.display()))
        })
        .collect();
    assert!(unused.is_empty(), "unused dependencies: {unused:?}");
}
