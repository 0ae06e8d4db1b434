//! The documents name real tests: every `tests/<file>.rs` and
//! `tests/<file>.rs::<fn>` that README.md or the verify skill names must
//! exist, so "each invariant names the test that pins it" is checked, not
//! promised. A bare `tests/<file>.rs` may live at the workspace root, under
//! any `crates/*/`, or under `repro/`; a path that names its crate
//! (`crates/datasets/tests/...`) must exist there.

use std::fs;
use std::path::{Path, PathBuf};

const DOCS: [&str; 2] = ["README.md", ".claude/skills/verify/SKILL.md"];

/// One reference found in a document: the directory prefix it named (or
/// none), the file stem, and the test function, if it named one.
#[derive(Debug)]
struct Named {
    prefix: String,
    file: String,
    func: Option<String>,
}

fn is_ident(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// Every `[prefix/]tests/<file>.rs[::<fn>]` in `text`.
fn references(text: &str) -> Vec<Named> {
    let mut found = Vec::new();
    for (at, _) in text.match_indices("tests/") {
        let start = text[..at]
            .rfind(|c: char| !(is_ident(c) || c == '/' || c == '-' || c == '.'))
            .map_or(0, |i| i + 1);
        let prefix = &text[start..at];
        if !(prefix.is_empty() || prefix.ends_with('/')) {
            continue; // `tests/` inside a longer word
        }
        let rest = &text[at + "tests/".len()..];
        let stem_len = rest.find(|c: char| !is_ident(c)).unwrap_or(rest.len());
        let (file, rest) = rest.split_at(stem_len);
        let Some(rest) = rest.strip_prefix(".rs") else {
            continue;
        };
        if file.is_empty() || rest.starts_with(|c: char| is_ident(c)) {
            continue;
        }
        let func = rest.strip_prefix("::").and_then(|r| {
            let len = r.find(|c: char| !is_ident(c)).unwrap_or(r.len());
            (len > 0).then(|| r[..len].to_string())
        });
        found.push(Named {
            prefix: prefix.to_string(),
            file: file.to_string(),
            func,
        });
    }
    found
}

/// The files a reference may mean: the one its prefix names, or every
/// `tests/` directory of the workspace.
fn candidates(root: &Path, named: &Named) -> Vec<PathBuf> {
    let file = format!("{}.rs", named.file);
    if !named.prefix.is_empty() {
        return vec![root.join(&named.prefix).join("tests").join(file)];
    }
    let mut dirs = vec![root.join("tests"), root.join("repro/tests")];
    for krate in fs::read_dir(root.join("crates")).expect("crates/ is readable") {
        dirs.push(krate.expect("crates/ entry").path().join("tests"));
    }
    dirs.into_iter().map(|d| d.join(&file)).collect()
}

/// What is wrong with one reference, if anything.
fn check(root: &Path, named: &Named) -> Option<String> {
    let sources: Vec<String> = candidates(root, named)
        .iter()
        .filter_map(|p| fs::read_to_string(p).ok())
        .collect();
    let shown = format!(
        "{}tests/{}.rs{}",
        named.prefix,
        named.file,
        named
            .func
            .as_deref()
            .map_or(String::new(), |f| format!("::{f}"))
    );
    if sources.is_empty() {
        return Some(format!("{shown}: no such file"));
    }
    let func = named.func.as_deref()?;
    let decl = format!("fn {func}(");
    (!sources.iter().any(|s| s.contains(&decl))).then(|| format!("{shown}: no `fn {func}`"))
}

#[test]
fn every_test_the_docs_name_exists() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut wrong = Vec::new();
    for doc in DOCS {
        let text = fs::read_to_string(root.join(doc)).expect("document is readable");
        let named = references(&text);
        if doc == "README.md" {
            // Nine invariants, each naming at least one test function.
            let functions = named.iter().filter(|n| n.func.is_some()).count();
            assert!(
                functions >= 9,
                "README names only {functions} test functions"
            );
        }
        wrong.extend(
            named
                .iter()
                .filter_map(|n| check(root, n))
                .map(|w| format!("{doc}: {w}")),
        );
    }
    assert!(
        wrong.is_empty(),
        "documents name missing tests:\n{}",
        wrong.join("\n")
    );
}

#[test]
fn references_are_parsed_with_and_without_a_crate_prefix() {
    let text = "see `tests/serving.rs::fused_x`, tests/zero_alloc.rs. and \
                crates/datasets/tests/pinned_streams.rs; not tests/x.rsfoo or contests/y.rs";
    let named = references(text);
    let shown: Vec<_> = named
        .iter()
        .map(|n| (n.prefix.as_str(), n.file.as_str(), n.func.as_deref()))
        .collect();
    assert_eq!(
        shown,
        [
            ("", "serving", Some("fused_x")),
            ("", "zero_alloc", None),
            ("crates/datasets/", "pinned_streams", None),
        ]
    );
}
