//! The benchmark's deterministic outputs repeat for one seed and change
//! with the seed: corpus and request-schedule digests, the exact layer
//! counts of the traced run, the proved-optimal share and the mean plan
//! cost.

use std::process::Command;

/// The lines of one short run that must not depend on timing.
fn deterministic_lines(workload: &str, seed: u64, trace: u8) -> Vec<String> {
    let out = Command::new(env!("CARGO_BIN_EXE_sekitei-perfbench"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "1", "--trace", &trace.to_string()])
        .current_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/.."))
        .output()
        .expect("run the benchmark");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} seed {seed} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let lines: Vec<String> = stdout
        .lines()
        .filter(|l| {
            l.starts_with("# deterministic:")
                || l.starts_with("compile.actions ")
                || l.starts_with("rg.nodes ")
        })
        .map(String::from)
        .collect();
    assert!(!lines.is_empty(), "no deterministic lines in:\n{stdout}");
    lines
}

fn corpus_digest(lines: &[String]) -> String {
    let line =
        lines.iter().find(|l| l.starts_with("# deterministic:")).expect("deterministic line");
    line.split_whitespace()
        .skip_while(|w| *w != "corpus")
        .nth(1)
        .expect("corpus digest")
        .to_string()
}

#[test]
fn plan_counts_repeat_and_the_seed_changes_the_corpus() {
    let a = deterministic_lines("plan-adversarial", 7, 1);
    let b = deterministic_lines("plan-adversarial", 7, 1);
    assert_eq!(a, b);
    assert_eq!(a.len(), 3, "deterministic line, compile.actions and rg.nodes: {a:?}");
    let c = deterministic_lines("plan-adversarial", 8, 1);
    assert_ne!(corpus_digest(&a), corpus_digest(&c));
}

#[test]
fn serve_schedule_repeats_and_the_seed_changes_the_corpus() {
    let a = deterministic_lines("serve-zipf", 7, 0);
    let b = deterministic_lines("serve-zipf", 7, 0);
    assert_eq!(a, b);
    let c = deterministic_lines("serve-zipf", 8, 0);
    assert_ne!(corpus_digest(&a), corpus_digest(&c));
    assert_ne!(a, c);
}
