//! size_ledger: writes the workspace's size ledger, `SIZE.json`.
//!
//! Per crate under `crates/` it records three counts over the `.rs`
//! files of `src/` (bins included). Each file is read only down to its
//! first `#[cfg(test)]` line:
//!
//! * `code_lines`: lines that are non-blank and do not start with `//`
//!   (doc comments included);
//! * `pub_items`: counted lines that start with `pub ` plus an item
//!   keyword (`fn`, `struct`, `enum`, `trait`, `type`, `const`,
//!   `static`, `mod`, `use`, ...); `pub(crate)` and fields do not count;
//! * `env_var_sites`: occurrences of `env::var` on counted lines.
//!
//! The output is a pure function of the source tree, so `scripts/ci.sh
//! size` regenerates it and fails on any difference from the committed
//! file: a change states its size cost by refreshing the ledger.
//!
//! Usage: size_ledger [out.json]   (default: SIZE.json at the workspace root)

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

const ITEM_KEYWORDS: [&str; 12] = [
    "fn", "struct", "enum", "trait", "type", "const", "static", "mod", "use", "unsafe", "async",
    "union",
];

/// `env::var`, spelled in two parts so this file does not count itself.
const ENV_VAR: &str = concat!("env::", "var");

#[derive(Default, Clone, Copy)]
struct Counts {
    code_lines: usize,
    pub_items: usize,
    env_var_sites: usize,
}

impl Counts {
    fn add(&mut self, o: Counts) {
        self.code_lines += o.code_lines;
        self.pub_items += o.pub_items;
        self.env_var_sites += o.env_var_sites;
    }

    fn json(&self) -> String {
        format!(
            "{{\"code_lines\": {}, \"pub_items\": {}, \"env_var_sites\": {}}}",
            self.code_lines, self.pub_items, self.env_var_sites
        )
    }
}

fn count_file(text: &str) -> Counts {
    let mut c = Counts::default();
    for line in text.lines().map(str::trim) {
        if line.starts_with("#[cfg(test)]") {
            break;
        }
        if line.is_empty() || line.starts_with("//") {
            continue;
        }
        c.code_lines += 1;
        let is_item = line
            .strip_prefix("pub ")
            .and_then(|rest| rest.split_whitespace().next())
            .is_some_and(|kw| ITEM_KEYWORDS.contains(&kw));
        c.pub_items += is_item as usize;
        c.env_var_sites += line.matches(ENV_VAR).count();
    }
    c
}

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries {
        let path = entry.expect("size_ledger: read_dir entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

fn main() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let out = std::env::args()
        .nth(1)
        .map(PathBuf::from)
        .unwrap_or_else(|| root.join("SIZE.json"));
    let mut crates = BTreeMap::new();
    for entry in std::fs::read_dir(root.join("crates")).expect("size_ledger: crates/") {
        let dir = entry.expect("size_ledger: crates/ entry").path();
        let mut files = Vec::new();
        rust_files(&dir.join("src"), &mut files);
        let mut c = Counts::default();
        for f in &files {
            let text = std::fs::read_to_string(f)
                .unwrap_or_else(|e| panic!("size_ledger: read {}: {e}", f.display()));
            c.add(count_file(&text));
        }
        let name = dir.file_name().unwrap().to_string_lossy().into_owned();
        crates.insert(name, c);
    }
    let mut total = Counts::default();
    let mut body = String::from("{\n  \"crates\": {\n");
    for (i, (name, c)) in crates.iter().enumerate() {
        total.add(*c);
        let sep = if i + 1 < crates.len() { "," } else { "" };
        body.push_str(&format!("    \"{name}\": {}{sep}\n", c.json()));
    }
    body.push_str(&format!("  }},\n  \"total\": {}\n}}\n", total.json()));
    std::fs::write(&out, body)
        .unwrap_or_else(|e| panic!("size_ledger: write {}: {e}", out.display()));
}

#[cfg(test)]
mod tests {
    use super::count_file;

    #[test]
    fn counts_follow_the_ledger_convention() {
        let src = "//! doc\n\npub fn a() {}\npub(crate) fn b() {}\n    pub x: u32,\n\
                   let v = std::env::var(\"K\");\n#[cfg(test)]\npub fn t() {}\n";
        let c = count_file(src);
        assert_eq!((c.code_lines, c.pub_items, c.env_var_sites), (4, 1, 1));
    }
}
