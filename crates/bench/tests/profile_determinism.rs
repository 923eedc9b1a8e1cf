//! The profiler pipeline must be a pure function of the built-in
//! workloads: timeline, phase reports, history records and diffs are
//! byte-identical whether the phase models run on one worker or many.

use std::process::Command;

fn run_profile(threads: &str, dir: &std::path::Path) -> (Vec<u8>, Vec<u8>, Vec<u8>) {
    std::fs::create_dir_all(dir).unwrap();
    // Run from inside `dir` with the default out-dir so the printed
    // paths (and therefore the stdout bytes) are directory-independent.
    let out = Command::new(env!("CARGO_BIN_EXE_profile"))
        .current_dir(dir)
        .env("REPRO_THREADS", threads)
        .output()
        .expect("profile binary runs");
    assert!(out.status.success(), "profile failed with REPRO_THREADS={threads}");
    (
        out.stdout,
        std::fs::read(dir.join("trace_timeline.json")).expect("timeline written"),
        std::fs::read(dir.join("phase_reports.json")).expect("phase reports written"),
    )
}

#[test]
fn profile_outputs_are_identical_at_any_thread_count() {
    let root = std::env::temp_dir().join(format!("profile_determinism_{}", std::process::id()));
    let serial = run_profile("1", &root.join("serial"));
    let parallel = run_profile("4", &root.join("parallel"));
    assert!(!serial.1.is_empty());
    assert_eq!(serial.0, parallel.0, "worker count changed the summary bytes");
    assert_eq!(serial.1, parallel.1, "worker count changed trace_timeline.json");
    assert_eq!(serial.2, parallel.2, "worker count changed phase_reports.json");
    let stdout = String::from_utf8(serial.0).unwrap();
    // 15 marker lines: the timeline check, one verdict per Figure-15
    // phase (13), and the surfaced drop count.
    assert_eq!(stdout.lines().filter(|l| l.starts_with("[profile] ")).count(), 15);
    assert!(stdout.contains("[profile] events_dropped 0"));
    let _ = std::fs::remove_dir_all(&root);
}

fn perf_diff(threads: &str, args: &[&str], dir: &std::path::Path) -> std::process::Output {
    let out = Command::new(env!("CARGO_BIN_EXE_perf_diff"))
        .args(args)
        .env("REPRO_THREADS", threads)
        .current_dir(dir)
        .output()
        .expect("perf_diff binary runs");
    out
}

#[test]
fn perf_gate_is_deterministic_and_catches_synthetic_regressions() {
    let dir = std::env::temp_dir().join(format!("perf_gate_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    // Records are byte-identical at any thread count.
    let a = perf_diff("1", &["--record", "--history", "a.jsonl"], &dir);
    let b = perf_diff("4", &["--record", "--history", "b.jsonl"], &dir);
    assert!(a.status.success() && b.status.success());
    let (ha, hb) =
        (std::fs::read(dir.join("a.jsonl")).unwrap(), std::fs::read(dir.join("b.jsonl")).unwrap());
    assert!(!ha.is_empty());
    assert_eq!(ha, hb, "worker count changed the history record bytes");

    // A clean re-check passes; its report is thread-count-independent too.
    let c1 = perf_diff("1", &["--check", "--history", "a.jsonl"], &dir);
    let c4 = perf_diff("4", &["--check", "--history", "a.jsonl"], &dir);
    assert!(c1.status.success(), "clean check must pass the gate");
    assert_eq!(c1.stdout, c4.stdout, "worker count changed the diff bytes");

    // A synthetic +5% cycle regression fails the 2% gate.
    let bad =
        perf_diff("1", &["--check", "--history", "a.jsonl", "--inflate-cycles-pct", "5"], &dir);
    assert_eq!(bad.status.code(), Some(1), "a +5%% regression must fail the gate");
    assert!(String::from_utf8_lossy(&bad.stdout).contains("[perf] FAIL"));

    // A missing history is a usage error, not a pass.
    let missing = perf_diff("1", &["--check", "--history", "nope.jsonl"], &dir);
    assert_eq!(missing.status.code(), Some(2));

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn record_only_appends_to_the_history() {
    let dir = std::env::temp_dir().join(format!("perf_record_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let current = pudiannao_bench::profile::history_record().to_string() + "\n";

    // Nine lines, the last not UTF-8: a reader that decodes the file as
    // text before rewriting it would lose them.
    let mut old: Vec<u8> =
        (0..8).flat_map(|i| format!("{{\"line\":{i}}}\n").into_bytes()).collect();
    old.extend_from_slice(b"\xff\xfe not utf-8\n");
    std::fs::write(dir.join("h.jsonl"), &old).unwrap();
    assert!(perf_diff("1", &["--record", "--history", "h.jsonl"], &dir).status.success());
    let new = std::fs::read(dir.join("h.jsonl")).unwrap();
    assert!(new.starts_with(&old), "--record changed the existing bytes");
    assert_eq!(&new[old.len()..], current.as_bytes(), "exactly the current record is added");

    // A last line without its newline gets one before the new record.
    std::fs::write(dir.join("cut.jsonl"), b"{\"line\":0}").unwrap();
    assert!(perf_diff("1", &["--record", "--history", "cut.jsonl"], &dir).status.success());
    let new = std::fs::read(dir.join("cut.jsonl")).unwrap();
    assert_eq!(new, [b"{\"line\":0}\n".as_slice(), current.as_bytes()].concat());

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn repro_all_reports_an_unwritable_output() {
    let dir = std::env::temp_dir().join(format!("repro_unwritable_{}", std::process::id()));
    std::fs::create_dir_all(dir.join("repro_summary.json")).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_repro_all"))
        .current_dir(&dir)
        .output()
        .expect("repro_all binary runs");
    assert_eq!(out.status.code(), Some(1), "an unwritable output is an error exit, not a panic");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.starts_with("error: cannot write repro_summary.json"), "stderr was: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr was: {stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}
