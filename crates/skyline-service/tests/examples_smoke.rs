//! Smoke test: the `sharded_service` and `dynamic_updates` examples must run to successful
//! exit. Both drive generation swaps under a warm cache and check the recomputed answer
//! against the pre-swap one renumbered through the remap the swap returns.
//!
//! `cargo test` compiles every example of the package before running integration tests, so the
//! binaries are guaranteed to exist under `target/<profile>/examples/` next to this test
//! binary (which lives in `target/<profile>/deps/`).

use std::path::PathBuf;
use std::process::Command;

fn example_path(name: &str) -> PathBuf {
    let mut path = std::env::current_exe().expect("test binary path");
    path.pop(); // deps/
    path.pop(); // <profile>/
    path.push("examples");
    path.push(format!("{name}{}", std::env::consts::EXE_SUFFIX));
    path
}

fn run_example(name: &str) {
    let path = example_path(name);
    assert!(
        path.exists(),
        "example binary {} not found; `cargo test` should have built it",
        path.display()
    );
    // A service arms failpoints from `SKYLINE_FAULTS`; run the examples disarmed.
    let output = Command::new(&path)
        .env_remove("SKYLINE_FAULTS")
        .output()
        .expect("example spawns");
    assert!(
        output.status.success(),
        "example {name} exited with {:?}\nstdout:\n{}\nstderr:\n{}",
        output.status.code(),
        String::from_utf8_lossy(&output.stdout),
        String::from_utf8_lossy(&output.stderr)
    );
}

#[test]
fn sharded_service_example_runs() {
    run_example("sharded_service");
}

#[test]
fn dynamic_updates_example_runs() {
    run_example("dynamic_updates");
}
