//! The benchmark's smoke mode against the library server on a thread of
//! this process: every workload, untraced and traced, at smoke scale.

use perfbench::runner;
use perfbench::server::Launcher;

#[test]
fn all_workloads_run_clean_and_failures_are_counted() {
    let work_dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("perfbench-smoke");
    let result = runner::smoke(&Launcher::InProcess, &work_dir);
    let _ = std::fs::remove_dir_all(&work_dir);
    let summary = result.unwrap();
    assert!(summary.contains("corrupted reference"), "{summary}");
}
