//! `cargo run -p xtask -- loc`: non-test source lines per first-party crate.
//!
//! The one definition of "non-test lines" a change reports its per-crate
//! delta in: for every `src/**/*.rs` file of a crate, the lines above the
//! file's first line that starts with `#[cfg(test)]` (the whole file when
//! it has none). Blank lines and comments count; `tests/`, `benches/` and
//! `examples/` do not. The crates are every directory under `crates/`, the
//! umbrella crate at the root and `xtask` itself; the vendored stand-ins
//! under `vendor/` are not first-party code.

use std::path::{Path, PathBuf};

/// Lines of `text` above its first `#[cfg(test)]` line.
pub fn non_test_lines(text: &str) -> usize {
    text.lines()
        .take_while(|line| !line.trim_start().starts_with("#[cfg(test)]"))
        .count()
}

pub fn run(args: &[String]) -> i32 {
    if !args.is_empty() {
        eprintln!("usage: cargo run -p xtask -- loc");
        return 2;
    }
    let root = Path::new(".");
    let mut crate_dirs: Vec<PathBuf> = std::fs::read_dir(root.join("crates"))
        .into_iter()
        .flatten()
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.join("Cargo.toml").is_file())
        .collect();
    crate_dirs.sort();
    crate_dirs.extend([root.to_path_buf(), root.join("xtask")]);
    let mut total = 0;
    for dir in &crate_dirs {
        let mut files = Vec::new();
        collect_rs_files(&dir.join("src"), &mut files);
        let lines: usize = files
            .iter()
            .filter_map(|f| std::fs::read_to_string(f).ok())
            .map(|text| non_test_lines(&text))
            .sum();
        total += lines;
        println!("{:<16} {lines:>7}", crate_name(dir));
    }
    println!("{:<16} {total:>7}", "total");
    0
}

/// The `name` of the `[package]` in `dir/Cargo.toml`, or the directory
/// path when it has none.
fn crate_name(dir: &Path) -> String {
    let manifest = std::fs::read_to_string(dir.join("Cargo.toml")).unwrap_or_default();
    let mut in_package = false;
    for line in manifest.lines().map(str::trim) {
        if line.starts_with('[') {
            in_package = line == "[package]";
        } else if let Some(value) = line.strip_prefix("name") {
            if in_package {
                if let Some(value) = value.trim_start().strip_prefix('=') {
                    return value.trim().trim_matches('"').to_string();
                }
            }
        }
    }
    dir.display().to_string()
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect_rs_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_lines_above_the_first_test_attribute() {
        let fixture =
            "//! Docs.\n\nfn f() {}\n\n    #[cfg(test)]\nmod tests {\n    #[cfg(test)]\n}\n";
        assert_eq!(non_test_lines(fixture), 4);
        // A mention that does not start its line is not the attribute.
        assert_eq!(non_test_lines("let s = \"#[cfg(test)]\";\nfn g() {}\n"), 2);
        assert_eq!(non_test_lines(""), 0);
    }
}
