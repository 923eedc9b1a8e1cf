//! Benchmark-history recorder and perf-regression gate; see
//! `pudiannao_bench::profile` for the record and the gate table.
//!
//! - `perf_diff --record [--history PATH]` appends the current record as
//!   one JSONL line (default `BENCH_history.jsonl`); the bytes already in
//!   the file are never rewritten.
//! - `perf_diff --check [--history PATH] [--inflate-cycles-pct P]` prints
//!   one `[perf]` line per gated key of the current record vs the last
//!   recorded line and one `[perf] FAIL` line per regression. Exit 1 on a
//!   regression past a gate (cycles or energy +2%, serving throughput or
//!   utilisation −2%, chaos SLO attainment −10 per-mille points, windowed
//!   p99 +5%), exit 2 on incomparable records (schema, fingerprint, phase
//!   list, shard list or metrics window changed). `--inflate-cycles-pct`
//!   is the synthetic slowdown `scripts/check.sh --perf-gate` uses to
//!   prove a +5% regression fails. Output is byte-identical at any
//!   `REPRO_THREADS`.

use pudiannao_accel::json;
use pudiannao_bench::profile::{diff, history_record, with_inflated_cycles};
use std::io::{Read, Seek, SeekFrom, Write};

fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

fn main() {
    let mut history = String::from("BENCH_history.jsonl");
    let mut mode: Option<&'static str> = None;
    let mut inflate_pct = 0.0f64;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--record" => mode = Some("record"),
            "--check" => mode = Some("check"),
            "--history" => match args.next() {
                Some(path) => history = path,
                None => fail("--history needs a path"),
            },
            "--inflate-cycles-pct" => match args.next().and_then(|v| v.parse().ok()) {
                Some(pct) => inflate_pct = pct,
                None => fail("--inflate-cycles-pct needs a number"),
            },
            other => fail(&format!(
                "unknown argument {other:?} (expected --record / --check / --history PATH / \
                 --inflate-cycles-pct P)"
            )),
        }
    }

    let record = history_record();
    let current =
        if inflate_pct == 0.0 { record } else { with_inflated_cycles(&record, inflate_pct) };

    match mode {
        Some("record") => {
            if let Err(e) = append_line(&history, &current.to_string()) {
                eprintln!("error: cannot write {history}: {e}");
                std::process::exit(1);
            }
            let phases =
                current.get("phases").and_then(json::Value::as_array).map_or(0, |p| p.len());
            let fp = current.get("config_fingerprint").and_then(json::Value::as_str).unwrap_or("?");
            println!("[perf] recorded {phases} phases for {fp} -> {history}");
        }
        Some("check") => {
            let contents = std::fs::read_to_string(&history).unwrap_or_else(|e| {
                fail(&format!("cannot read {history}: {e} (run --record first)"))
            });
            let Some(last) = contents.lines().rev().find(|l| !l.trim().is_empty()) else {
                fail(&format!("{history} has no records (run --record first)"));
            };
            let baseline = json::parse(last).unwrap_or_else(|e| {
                fail(&format!("last record in {history} is not valid JSON: {e}"))
            });
            let deltas = diff(&baseline, &current).unwrap_or_else(|e| fail(&e));
            deltas.iter().for_each(|d| println!("[perf] {d}"));
            let regressed: Vec<_> = deltas.iter().filter(|d| d.regressed()).collect();
            if regressed.is_empty() {
                println!("[perf] OK: no gated key regressed vs the last record");
            } else {
                regressed.iter().for_each(|d| println!("[perf] FAIL {d}"));
                std::process::exit(1);
            }
        }
        _ => fail("pass exactly one of --record / --check"),
    }
}

/// Appends `line` to `path` (created if absent) in append mode, so the
/// bytes already there stay as they are; a last line missing its newline
/// gets one first.
fn append_line(path: &str, line: &str) -> std::io::Result<()> {
    let mut file = std::fs::OpenOptions::new().read(true).append(true).create(true).open(path)?;
    let mut last = [b'\n'];
    if let Some(end) = file.metadata()?.len().checked_sub(1) {
        file.seek(SeekFrom::Start(end))?;
        file.read_exact(&mut last)?;
    }
    let sep = if last[0] == b'\n' { "" } else { "\n" };
    file.write_all(format!("{sep}{line}\n").as_bytes())
}
