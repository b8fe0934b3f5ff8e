//! DESIGN.md §2 (the workspace inventory) stays in sync with the tree:
//! every source file it lists under a crate heading exists in that crate's
//! `src/`, every top-level `src/*.rs` file of a crate is listed, and every
//! crate has a heading. §3 (the experiment index) lists exactly the
//! harness's experiment ids, and every module it names is a source file.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

fn repo() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// The `## <number>` section of DESIGN.md whose title starts with `title`.
fn section(title: &str) -> String {
    let design = std::fs::read_to_string(repo().join("DESIGN.md")).expect("DESIGN.md");
    design
        .split("\n## ")
        .find(|s| s.starts_with(title))
        .unwrap_or_else(|| panic!("DESIGN.md has a section '{title}'"))
        .to_string()
}

/// The files (or `dir/` entries) bulleted under each `### <crate>` heading
/// of §2, keyed by crate name.
fn inventory() -> BTreeMap<String, Vec<String>> {
    let section = section("2. Workspace inventory");
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

#[test]
fn experiment_index_lists_the_registry_and_resolves_its_modules() {
    let mut ids = Vec::new();
    let mut missing = Vec::new();
    let index = section("3. Experiment index");
    for row in index
        .lines()
        .filter(|l| l.starts_with("| ") && !l.starts_with("| ID "))
    {
        let cells: Vec<&str> = row.trim_matches('|').split(" | ").map(str::trim).collect();
        ids.push(cells[0]);
        // `crate::module`, `crate::{a,b}` and `experiments::module` paths
        // in the module column; `crate::*` names a whole crate.
        for path in cells[3].split('`').skip(1).step_by(2) {
            let Some((head, tail)) = path.split_once("::") else {
                continue;
            };
            let (krate, dir) = match head {
                "experiments" => ("harness", "experiments/"),
                _ => (head, ""),
            };
            for m in tail.trim_matches(['{', '}']).split(',') {
                let file = crate_src(krate).join(format!("{dir}{m}.rs"));
                if !(file.exists() || (m == "*" && crate_src(krate).is_dir())) {
                    missing.push(format!("{}: `{path}`", cells[0]));
                }
            }
        }
    }
    let registry: Vec<&str> = chrono_repro::harness::experiments::EXPERIMENTS
        .iter()
        .map(|(id, _)| *id)
        .collect();
    assert_eq!(ids, registry, "DESIGN.md §3 IDs differ from EXPERIMENTS");
    assert!(
        missing.is_empty(),
        "DESIGN.md §3 names missing modules: {missing:?}"
    );
}
