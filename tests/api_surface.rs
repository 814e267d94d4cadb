//! Public-API snapshot of the front-door crates — the same spirit as
//! `tests/golden_keys.rs`, applied to the public surface instead of the
//! on-disk key space.
//!
//! The test extracts every `pub` item declaration (functions with their
//! signatures, structs, enums, traits, constants and re-exports) from
//! `crates/service/src`, `crates/net/src`, `crates/obs/src` and
//! `crates/fleet/src` — the in-process front door, the wire protocol
//! over it, the metrics surface they publish into and the fleet layer
//! above them — and compares the sorted list against
//! the checked-in snapshot `tests/api_surface.snapshot`. An unreviewed
//! addition, removal or signature change of either surface fails
//! CI; an intentional one is recorded by regenerating the snapshot:
//!
//! ```text
//! UPDATE_API_SNAPSHOT=1 cargo test --test api_surface
//! ```

use std::fmt::Write as _;
use std::path::PathBuf;

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// Strips `//` line comments (doc comments included) so commented-out
/// items never count as API.
fn strip_line_comments(source: &str) -> String {
    source
        .lines()
        .map(|line| match line.find("//") {
            Some(idx) => &line[..idx],
            None => line,
        })
        .fold(String::new(), |mut out, line| {
            out.push_str(line);
            out.push('\n');
            out
        })
}

/// Drops every `#[cfg(test)]` item: from the attribute through the
/// item's first top-level `;`, or the `}` closing its first top-level
/// `{`. A gated variant, field or match arm ends where its enclosing
/// block does. Scanning resumes after each item, so public items below a
/// test-only one still count.
fn strip_test_items(source: &str) -> String {
    const GATE: &str = "#[cfg(test)]";
    let mut out = String::new();
    let mut rest = source;
    while let Some(at) = rest.find(GATE) {
        out.push_str(&rest[..at]);
        rest = &rest[at + GATE.len()..];
        rest = &rest[gated_item_len(rest)..];
    }
    out.push_str(rest);
    out
}

/// Byte length of the item at the start of `source`, as
/// [`strip_test_items`] delimits it. Char literals like `'{'` are
/// skipped; braces inside string literals count, so a test-only item
/// keeps them balanced.
fn gated_item_len(source: &str) -> usize {
    let bytes = source.as_bytes();
    let mut depth = 0i32;
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'\'' if bytes.get(i + 2) == Some(&b'\'') => i += 2,
            b'(' | b'[' | b'{' => depth += 1,
            b';' if depth == 0 => return i + 1,
            b')' | b']' | b'}' => {
                depth -= 1;
                if depth < 0 {
                    return i;
                }
                if depth == 0 && bytes[i] == b'}' {
                    return i + 1;
                }
            }
            _ => {}
        }
        i += 1;
    }
    bytes.len()
}

/// Extracts every `pub <kind> …` declaration from one source file,
/// normalized to single-space whitespace, skipping comments and
/// test-only items. A declaration runs from its `pub` keyword to the
/// first top-level `{`, `;` or `=` — enough to pin names, function
/// signatures and re-export lists.
fn public_items(source: &str) -> Vec<String> {
    const KINDS: [&str; 8] = [
        "use", "fn", "struct", "enum", "trait", "const", "type", "mod",
    ];
    let source = strip_test_items(&strip_line_comments(source));
    let mut items = Vec::new();
    let bytes = source.as_bytes();
    let mut i = 0;
    while let Some(rel) = source[i..].find("pub ") {
        let start = i + rel;
        // `pub` must start a token ("pub(crate)" never matches "pub ").
        if start > 0 && !bytes[start - 1].is_ascii_whitespace() {
            i = start + 4;
            continue;
        }
        let rest = &source[start + 4..];
        let Some(kind) = KINDS
            .iter()
            .find(|k| rest.starts_with(&format!("{k} ")) || rest.starts_with(&format!("{k}\n")))
        else {
            i = start + 4;
            continue;
        };
        // Scan to the declaration's end, ignoring nested (), <> and [].
        // Re-exports (`pub use a::{A, B};`) end only at `;` — their brace
        // group is part of the declaration.
        let mut depth = 0i32;
        let mut end = start;
        let mut previous = ' ';
        for (j, c) in source[start..].char_indices() {
            match c {
                ';' if depth <= 0 => {
                    end = start + j;
                    break;
                }
                '{' | '=' if depth <= 0 && *kind != "use" => {
                    end = start + j;
                    break;
                }
                '(' | '[' | '<' => depth += 1,
                // A return arrow's `>` is punctuation, not a bracket.
                '>' if previous != '-' => depth -= 1,
                ')' | ']' => depth -= 1,
                '{' if *kind == "use" => depth += 1,
                '}' if *kind == "use" => depth -= 1,
                _ => {}
            }
            previous = c;
        }
        let declaration: String = source[start..end]
            .split_whitespace()
            .collect::<Vec<_>>()
            .join(" ");
        // Private modules (`mod error`) are hidden wiring, not API.
        if *kind != "mod" || declaration.contains("pub mod") {
            items.push(declaration);
        }
        i = end.max(start + 4);
    }
    items
}

/// The crates whose public surface the snapshot pins: the in-process
/// service front door, the network layer over it, the observability
/// layer both of them publish into, and the fleet layer above them all.
const SNAPSHOT_CRATES: [&str; 4] = ["service", "net", "obs", "fleet"];

fn public_surface() -> String {
    let mut items = Vec::new();
    for crate_dir in SNAPSHOT_CRATES {
        let src = repo_root().join("crates").join(crate_dir).join("src");
        let mut files: Vec<PathBuf> = std::fs::read_dir(&src)
            .unwrap_or_else(|e| panic!("crates/{crate_dir}/src exists: {e}"))
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|ext| ext == "rs"))
            .collect();
        files.sort();

        for file in &files {
            let name = file.file_name().expect("file name").to_string_lossy();
            let source = std::fs::read_to_string(file).expect("crate source readable");
            for item in public_items(&source) {
                items.push(format!("{crate_dir}/{name}: {item}"));
            }
        }
    }
    items.sort();
    items.dedup();
    let mut out = String::new();
    for item in items {
        let _ = writeln!(out, "{item}");
    }
    out
}

#[test]
fn public_api_matches_the_checked_in_snapshot() {
    let snapshot_path = repo_root().join("tests/api_surface.snapshot");
    let actual = public_surface();

    if std::env::var("UPDATE_API_SNAPSHOT").is_ok_and(|v| !v.is_empty()) {
        std::fs::write(&snapshot_path, &actual).expect("snapshot writable");
        eprintln!("snapshot updated: {}", snapshot_path.display());
        return;
    }

    let expected = std::fs::read_to_string(&snapshot_path)
        .unwrap_or_else(|e| panic!("missing {}: {e}", snapshot_path.display()));
    if expected != actual {
        let diff = diff_lines(&expected, &actual);
        panic!(
            "the zz_service/zz_net public API drifted from tests/api_surface.snapshot.\n\
             Review the change, then regenerate with:\n\
             UPDATE_API_SNAPSHOT=1 cargo test --test api_surface\n\n{diff}"
        );
    }
}

/// A minimal set-style diff: lines only in the snapshot (`-`) and lines
/// only in the current surface (`+`).
fn diff_lines(expected: &str, actual: &str) -> String {
    let expected_set: std::collections::BTreeSet<&str> = expected.lines().collect();
    let actual_set: std::collections::BTreeSet<&str> = actual.lines().collect();
    let mut out = String::new();
    for gone in expected_set.difference(&actual_set) {
        let _ = writeln!(out, "- {gone}");
    }
    for new in actual_set.difference(&expected_set) {
        let _ = writeln!(out, "+ {new}");
    }
    out
}

/// The extractor itself is pinned so snapshot diffs stay trustworthy.
#[test]
fn extractor_handles_the_declaration_shapes_in_use() {
    let items = public_items(
        "pub struct Foo { pub bar: usize }\n\
         impl Foo {\n    pub fn new(x: usize) -> Self { Foo { bar: x } }\n}\n\
         pub(crate) fn hidden() {}\n\
         mod private;\n\
         pub use other::{A, B};\n\
         pub const N: usize = 3;\n",
    );
    assert_eq!(
        items,
        [
            "pub struct Foo",
            "pub fn new(x: usize) -> Self",
            "pub use other::{A, B}",
            "pub const N: usize",
        ]
    );

    // A test-only item hides only itself: the public items below it
    // still count, and a `pub` item inside a gated module does not.
    let items = public_items(
        "#[cfg(test)]\n\
         fn helper(bytes: [u8; 2]) -> char { if bytes[0] == 0 { '}' } else { '{' } }\n\
         pub fn kept(x: usize) -> usize { x }\n\
         enum Sink {\n    Stderr,\n    #[cfg(test)]\n    Capture(Vec<String>),\n}\n\
         #[cfg(test)]\n\
         use std::fmt;\n\
         #[cfg(test)]\n\
         mod tests {\n    pub fn hidden() {}\n}\n\
         pub struct AlsoKept;\n",
    );
    assert_eq!(
        items,
        ["pub fn kept(x: usize) -> usize", "pub struct AlsoKept"]
    );
}

#[test]
fn missing_path_points_at_the_snapshotted_crates() {
    for crate_dir in SNAPSHOT_CRATES {
        assert!(repo_root()
            .join("crates")
            .join(crate_dir)
            .join("src/lib.rs")
            .exists());
    }
}
