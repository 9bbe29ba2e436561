//! Golden outputs: the fixed matrix of simulations in `tests/golden`
//! must reproduce `tests/golden/outputs.txt` line for line.
//!
//! Any change to simulated behaviour — a cycle, a counter, a
//! ciphertext byte, an event — shows up as a diff against the
//! committed file. It must never be edited by hand; to regenerate
//! after an intended behaviour change, run
//!
//! ```text
//! cargo test --release --test golden_outputs -- --ignored regenerate
//! ```

mod golden;

#[test]
fn simulated_outputs_match_the_golden_file() {
    let expected = golden::committed();
    let actual = golden::render_file();
    for (i, (want, got)) in expected.lines().zip(actual.lines()).enumerate() {
        assert_eq!(got, want, "golden line {} diverged", i + 1);
    }
    assert_eq!(actual.lines().count(), expected.lines().count(), "golden cell count changed");
}

/// Rewrites the golden file from the current build. Run only after an
/// intended change to simulated behaviour, and review the diff.
#[test]
#[ignore = "rewrites tests/golden/outputs.txt"]
fn regenerate() {
    let path = golden::golden_path();
    std::fs::create_dir_all(path.parent().unwrap()).unwrap();
    std::fs::write(&path, golden::render_file()).unwrap();
}
