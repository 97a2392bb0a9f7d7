//! Every top-level `pub fn` of this crate (one that starts a line of a
//! `src/` file, which rustfmt makes the case for every item outside an
//! `impl` or a nested module) is named, as a whole word, in some file
//! under `tests/`: a new kernel cannot land without a test that
//! exercises it.

use std::path::Path;

fn read_dir(dir: &Path) -> Vec<String> {
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .expect("directory is listable")
        .map(|e| e.expect("entry is readable").path())
        .filter(|p| p.extension().is_some_and(|x| x == "rs"))
        .collect();
    files.sort();
    files.iter().map(|p| std::fs::read_to_string(p).expect("source is readable")).collect()
}

fn is_ident(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

#[test]
fn every_top_level_pub_fn_is_named_by_a_test() {
    let crate_dir = Path::new(env!("CARGO_MANIFEST_DIR"));
    let tests = read_dir(&crate_dir.join("tests"));
    let names: Vec<String> = read_dir(&crate_dir.join("src"))
        .iter()
        .flat_map(|src| src.lines().filter_map(|l| l.strip_prefix("pub fn ")))
        .map(|rest| rest.split(|c| !is_ident(c)).next().unwrap_or_default().to_owned())
        .collect();
    assert!(names.len() >= 20, "found only {} top-level pub fns", names.len());
    let uncovered: Vec<&String> = names
        .iter()
        .filter(|name| !tests.iter().any(|t| t.split(|c| !is_ident(c)).any(|w| w == name.as_str())))
        .collect();
    assert!(uncovered.is_empty(), "pub fns no test under tests/ names: {uncovered:?}");
}
