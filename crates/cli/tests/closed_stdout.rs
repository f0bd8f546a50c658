//! A reader that stops early (`sekitei … | head`, or a `grep -q` that has
//! matched) must not turn into a failure: `sekitei` ends quietly, with
//! success and nothing on stderr.

use std::io::Read;
use std::process::{Command, Stdio};

const BIN: &str = env!("CARGO_BIN_EXE_sekitei");

#[test]
fn closed_stdout_ends_quietly_with_success() {
    let spec = Command::new(BIN).args(["scenario", "large", "E", "--emit"]).output().unwrap();
    assert!(spec.status.success());
    let path =
        std::env::temp_dir().join(format!("sekitei_closed_stdout_{}.spec", std::process::id()));
    std::fs::write(&path, &spec.stdout).unwrap();

    // the Large/E dump is ~1.8 MB, far past any pipe buffer, so the
    // process is still writing when the read end closes
    let mut child = Command::new(BIN)
        .arg("compile")
        .arg(&path)
        .arg("--dump")
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let mut stdout = child.stdout.take().unwrap();
    let mut first = [0u8; 16];
    stdout.read_exact(&mut first).unwrap();
    drop(stdout);
    let out = child.wait_with_output().unwrap();
    std::fs::remove_file(&path).unwrap();

    assert!(out.status.success(), "exit status {:?}", out.status);
    assert_eq!(String::from_utf8_lossy(&out.stderr), "", "stderr must stay empty");
}
