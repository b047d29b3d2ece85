//! Exit codes of the `compare_results` regression gate.

use std::path::{Path, PathBuf};
use std::process::Command;

fn row(algorithm: &str, level: f64, accuracy: f64) -> String {
    format!(
        r#"{{"workload":"ER(n=300)","noise":"One-Way","level":{level},"algorithm":"{algorithm}","assignment":"JV","accuracy":{accuracy},"reps":3,"reps_ok":3}}"#
    )
}

fn write(tag: &str, rows: &[String]) -> PathBuf {
    let path = std::env::temp_dir()
        .join(format!("graphalign-compare-results-{tag}-{}.json", std::process::id()));
    std::fs::write(&path, format!("[{}]", rows.join(","))).expect("write rows");
    path
}

/// Runs `compare_results baseline candidate --tol 0`; returns the exit code
/// and stdout.
fn compare(baseline: &Path, candidate: &Path) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_compare_results"))
        .args([baseline.to_str().unwrap(), candidate.to_str().unwrap(), "--tol", "0"])
        .output()
        .expect("spawn compare_results");
    (out.status.code().expect("exit code"), String::from_utf8_lossy(&out.stdout).into_owned())
}

#[test]
fn identical_moved_and_missing_cells() {
    let both = [row("GRASP", 0.0, 0.96), row("CONE", 0.02, 0.5)];
    let baseline = write("base", &both);
    let same = write("same", &both);
    let moved = write("moved", &[row("GRASP", 0.0, 0.96), row("CONE", 0.02, 0.49)]);
    let missing = write("missing", &[row("GRASP", 0.0, 0.96)]);
    let extra = write("extra", &[both[0].clone(), both[1].clone(), row("NSD", 0.0, 0.1)]);

    assert_eq!(compare(&baseline, &same).0, 0);
    assert_eq!(compare(&baseline, &extra).0, 0, "a cell new in the candidate is not a loss");
    let (code, stdout) = compare(&baseline, &moved);
    assert_eq!(code, 1, "{stdout}");
    assert!(stdout.contains("WORSE"), "{stdout}");
    let (code, stdout) = compare(&baseline, &missing);
    assert_eq!(code, 1, "a baseline cell absent from the candidate fails: {stdout}");
    assert!(stdout.contains("MISSING") && stdout.contains("algorithm=CONE"), "{stdout}");

    for path in [baseline, same, moved, missing, extra] {
        std::fs::remove_file(path).ok();
    }
}
