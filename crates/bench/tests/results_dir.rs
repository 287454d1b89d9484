//! `results_dir` from outside a workspace and from inside one. Its own test
//! binary, since it moves the process's current directory.

use std::fs;
use std::path::PathBuf;

use esti_bench::results_dir;

#[test]
fn results_dir_is_the_workspace_root_or_else_the_current_directory() {
    let tmp = std::env::temp_dir().join(format!("esti-results-dir-{}", std::process::id()));
    let (outside, ws) = (tmp.join("a/b/c/d"), tmp.join("ws"));
    fs::create_dir_all(&outside).expect("temporary directories");
    fs::create_dir_all(ws.join("crates/bench/src")).expect("a workspace layout");
    fs::write(ws.join("Cargo.toml"), "").expect("a workspace manifest");
    let from = |dir: PathBuf| {
        std::env::set_current_dir(&dir).expect("enter the directory");
        let cwd = std::env::current_dir().expect("the current directory");
        (cwd, results_dir())
    };
    // No workspace above: the current directory, not an ancestor.
    let (cwd, dir) = from(outside);
    assert_eq!(dir, cwd.join("results"));
    // From the root and from a crate directory: the root.
    let (root, dir) = from(ws.clone());
    assert_eq!(dir, root.join("results"));
    assert_eq!(from(ws.join("crates/bench")).1, root.join("results"));
    // Three levels down is past the walk: the current directory again.
    let (cwd, dir) = from(ws.join("crates/bench/src"));
    assert_eq!(dir, cwd.join("results"));
    std::env::set_current_dir(std::env::temp_dir()).expect("leave the directories");
    fs::remove_dir_all(&tmp).expect("remove the temporary directories");
}
