//! Env-surface pin: the environment variables the workspace reads are
//! exactly the ones README documents. Every `"DS_…"` string literal in
//! `crates/*/src` and `src/` must name a row of README's "Environment
//! variables" table, and every row must still be read somewhere — so a
//! new override cannot land undocumented and a deleted one cannot
//! linger in the docs. Configuration that a caller sets in code belongs
//! in `TrainConfig` / `ServeConfig`, not here.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display())) {
        let path = entry.unwrap().path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Names of the `"DS_…"` string literals in `text`.
fn ds_literals(text: &str) -> BTreeSet<String> {
    text.match_indices("\"DS_")
        .map(|(i, _)| {
            text[i + 1..]
                .chars()
                .take_while(|c| c.is_ascii_uppercase() || c.is_ascii_digit() || *c == '_')
                .collect()
        })
        .collect()
}

/// Variable names in the first column of README's env table.
fn readme_rows(readme: &str) -> BTreeSet<String> {
    let section = readme
        .split("### Environment variables")
        .nth(1)
        .expect("README has an \"Environment variables\" section");
    section
        .lines()
        .skip_while(|l| !l.starts_with('|'))
        .take_while(|l| l.starts_with('|'))
        .filter_map(|l| Some(l.strip_prefix("| `")?.split('`').next()?.to_string()))
        .collect()
}

#[test]
fn every_env_knob_in_the_code_is_a_readme_row_and_back() {
    let root = workspace_root();
    let mut files = Vec::new();
    rust_files(&root.join("src"), &mut files);
    for entry in std::fs::read_dir(root.join("crates")).expect("crates/ directory") {
        rust_files(&entry.unwrap().path().join("src"), &mut files);
    }
    let mut in_code = BTreeSet::new();
    for f in &files {
        in_code.extend(ds_literals(&std::fs::read_to_string(f).unwrap()));
    }
    let readme = std::fs::read_to_string(root.join("README.md")).unwrap();
    let documented = readme_rows(&readme);
    assert_eq!(
        in_code,
        documented,
        "read but undocumented: {:?}; documented but never read: {:?}",
        in_code.difference(&documented).collect::<Vec<_>>(),
        documented.difference(&in_code).collect::<Vec<_>>()
    );
}

#[test]
fn detectors_read_literals_and_table_rows() {
    let code = r#"let a = std::env::var("DS_FOO_2"); panic!("DS_BAR={x}"); // DS_NOT_A_LITERAL"#;
    let want: BTreeSet<String> = ["DS_BAR", "DS_FOO_2"].map(String::from).into();
    assert_eq!(ds_literals(code), want);
    let readme = "# x\n### Environment variables\n\n| Variable | Default | Effect |\n\
                  | --- | --- | --- |\n| `DS_FOO_2` | off | a |\n| `DS_BAR` | 1 | b |\n\n\
                  | `DS_LATER` | x | another table |\n";
    assert_eq!(readme_rows(readme), want);
}
