//! DESIGN.md §2 (the workspace inventory) stays in sync with the tree:
//! every source file it lists under a crate heading exists in that crate's
//! `src/`, every top-level `src/*.rs` file of a crate is listed, and every
//! crate has a heading.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

fn repo() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// The files (or `dir/` entries) bulleted under each `### <crate>` heading
/// of §2, keyed by crate name.
fn inventory() -> BTreeMap<String, Vec<String>> {
    let design = std::fs::read_to_string(repo().join("DESIGN.md")).expect("DESIGN.md");
    let section = design
        .split("\n## ")
        .find(|s| s.starts_with("2. Workspace inventory"))
        .expect("DESIGN.md has a §2 workspace inventory");
    let mut listed: BTreeMap<String, Vec<String>> = BTreeMap::new();
    let mut current: Option<String> = None;
    for line in section.lines() {
        if let Some(name) = line.strip_prefix("### ") {
            let name = name.trim().to_string();
            current = repo().join("crates").join(&name).is_dir().then_some(name);
            if let Some(c) = &current {
                listed.entry(c.clone()).or_default();
            }
            continue;
        }
        let Some(c) = &current else { continue };
        let Some(rest) = line.strip_prefix("- `") else {
            continue;
        };
        let entry = &rest[..rest.find('`').expect("closing backtick")];
        if entry.ends_with(".rs") || entry.ends_with('/') {
            listed.get_mut(c).unwrap().push(entry.to_string());
        }
    }
    listed
}

fn crate_src(name: &str) -> PathBuf {
    repo().join("crates").join(name).join("src")
}

#[test]
fn every_listed_file_exists_in_its_crate() {
    let mut missing = Vec::new();
    for (krate, files) in inventory() {
        for f in files {
            if !crate_src(&krate).join(&f).exists() {
                missing.push(format!("crates/{krate}/src/{f}"));
            }
        }
    }
    assert!(
        missing.is_empty(),
        "DESIGN.md §2 lists missing files: {missing:?}"
    );
}

#[test]
fn every_crate_and_source_file_is_listed() {
    let listed = inventory();
    let mut unlisted = Vec::new();
    let mut krates: Vec<PathBuf> = std::fs::read_dir(repo().join("crates"))
        .expect("crates/")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.join("Cargo.toml").exists())
        .collect();
    krates.sort();
    for dir in krates {
        let name = dir.file_name().unwrap().to_string_lossy().into_owned();
        let Some(files) = listed.get(&name) else {
            unlisted.push(format!("crate {name} has no heading"));
            continue;
        };
        for f in rs_files(&dir.join("src")) {
            if !files.contains(&f) {
                unlisted.push(format!("crates/{name}/src/{f}"));
            }
        }
    }
    assert!(unlisted.is_empty(), "DESIGN.md §2 omits: {unlisted:?}");
}

fn rs_files(src: &Path) -> Vec<String> {
    let mut out: Vec<String> = std::fs::read_dir(src)
        .expect("src/")
        .filter_map(|e| {
            let name = e
                .expect("dir entry")
                .file_name()
                .to_string_lossy()
                .into_owned();
            name.ends_with(".rs").then_some(name)
        })
        .collect();
    out.sort();
    out
}
