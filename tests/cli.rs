//! The `mce` binary's stderr contract: a command line it cannot act on is
//! reported with the usage text; a run that fails is reported in one
//! line, and a checkpoint is announced only once it has been verified.

use std::path::PathBuf;
use std::process::{Command, Output};

fn mce(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_mce"))
        .args(args)
        .env_remove("MCE_FAULT")
        .env_remove("MCE_LOG")
        .output()
        .expect("spawning the mce binary")
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("mce_clitest_{}_{name}", std::process::id()))
}

#[test]
fn corrupt_checkpoint_is_one_line_without_usage_or_resume() {
    let dir = tmp("corrupt_ck");
    std::fs::create_dir_all(&dir).unwrap();
    let ck = dir.join("ck.json");
    std::fs::write(&ck, "{\"mce_checkpoint\":2}\nnot a checkpoint body\n").unwrap();
    let out_dir = dir.join("experiments");
    let out = mce(&[
        "explore",
        "vocoder",
        "--preset",
        "fast",
        "--checkpoint",
        ck.to_str().unwrap(),
        "--out-dir",
        out_dir.to_str().unwrap(),
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert_eq!(stderr.lines().count(), 1, "one line of stderr: {stderr}");
    assert!(stderr.starts_with("error: "), "{stderr}");
    assert!(stderr.contains("checkpoint"), "{stderr}");
    assert!(
        !stderr.contains("usage:"),
        "a failed run is no usage error: {stderr}"
    );
    assert!(
        !stderr.contains("resuming"),
        "nothing was resumed: {stderr}"
    );
    assert!(out.stdout.is_empty(), "no run, no results");
    assert!(ck.exists(), "a refused checkpoint is left alone");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn argument_errors_still_print_usage() {
    for args in [
        &["explore", "vocoder", "--max-eval", "3"][..],
        &["explore", "vocoder", "--preset", "banana"],
        &["explore", "vocoder", "--checkpoint-every", "2"],
        &["frobnicate"],
        &[],
    ] {
        let out = mce(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(stderr.starts_with("error: "), "{args:?}: {stderr}");
        assert!(stderr.contains("\nusage:\n"), "{args:?}: {stderr}");
    }
}

#[test]
fn missing_input_file_is_one_line() {
    let out = mce(&["report", tmp("missing.json").to_str().unwrap()]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert_eq!(stderr.lines().count(), 1, "{stderr}");
}
