//! `plan` calls an optimality gap "proved" only when the plan's
//! certificate proves it, and labels any other gap advisory, as
//! `verify-cert` does.

use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_sekitei");

fn stdout_of(cmd: &mut Command) -> String {
    let out = cmd.output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    String::from_utf8(out.stdout).unwrap()
}

#[test]
fn gap_is_proved_only_when_the_certificate_proves_it() {
    let tmp = |ext: &str| {
        std::env::temp_dir().join(format!("sekitei_gap_label_{}.{ext}", std::process::id()))
    };
    let (spec, cert) = (tmp("spec"), tmp("skc1"));

    // Small/A under an 18 500-node budget engages drain mode, so the
    // frontier bound behind the degraded plan's zero gap is not admissible
    let plan = stdout_of(
        Command::new(BIN)
            .args(["plan", "--scenario", "small-a", "--degrade", "--max-nodes", "18500"])
            .arg("--emit-cert")
            .arg(&cert),
    );
    assert!(plan.contains("optimality gap: 0.00 (advisory)"), "{plan}");
    assert!(!plan.contains("(proved)"), "{plan}");

    std::fs::write(&spec, stdout_of(Command::new(BIN).args(["scenario", "small", "A", "--emit"])))
        .unwrap();
    let check = stdout_of(Command::new(BIN).arg("verify-cert").arg(&spec).arg(&cert));
    std::fs::remove_file(&spec).unwrap();
    std::fs::remove_file(&cert).unwrap();
    assert!(check.contains("gap ≤ 0.00 (advisory)"), "{check}");

    let exact = stdout_of(Command::new(BIN).args(["plan", "--scenario", "tiny-c"]));
    assert!(exact.contains("optimality gap: 0.00 (proved)"), "{exact}");
}
