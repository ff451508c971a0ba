//! Byte-stability of the `wasp-report` binary at its outermost
//! observable boundary: the bytes it writes to disk.
//!
//! The differential suite (`crates/streamsim/tests/differential.rs`)
//! pins the in-process recordings; this test pins what the shipped
//! binary writes. One scenario, seed 4, must reproduce the report,
//! JSONL event log and Chrome trace whose FNV-1a digests were captured
//! when the engine still ran its tick on 1 or 8 threads and both wrote
//! these same bytes; and a second run must reproduce the first exactly.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use wasp_streamsim::testkit::fnv1a;

/// Output bundle of one `wasp-report` invocation.
struct ReportFiles {
    report: Vec<u8>,
    jsonl: Vec<u8>,
    trace: Vec<u8>,
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("wasp-report-golden-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Runs `wasp-report` on the §8.4 top-k scenario at seed 4 and returns
/// the three output files. `dt = 2.0` keeps the debug-profile run
/// short.
fn run_report(dir: &Path, tag: &str) -> ReportFiles {
    let report = dir.join(format!("report-{tag}.txt"));
    let jsonl = dir.join(format!("events-{tag}.jsonl"));
    let trace = dir.join(format!("trace-{tag}.json"));
    let status = Command::new(env!("CARGO_BIN_EXE_wasp-report"))
        .args([
            "--scenario",
            "section_8_4",
            "--query",
            "topk",
            "--seed",
            "4",
            "--dt",
            "2.0",
            "--report",
        ])
        .arg(&report)
        .arg("--jsonl")
        .arg(&jsonl)
        .arg("--trace-out")
        .arg(&trace)
        .env_remove("WASP_SCENARIO_SEED")
        .status()
        .expect("spawn wasp-report");
    assert!(status.success(), "wasp-report failed: {status}");
    ReportFiles {
        report: std::fs::read(&report).expect("read report"),
        jsonl: std::fs::read(&jsonl).expect("read jsonl"),
        trace: std::fs::read(&trace).expect("read trace"),
    }
}

fn assert_same(what: &str, a: &[u8], b: &[u8]) {
    if a == b {
        return;
    }
    let pos = a
        .iter()
        .zip(b.iter())
        .position(|(x, y)| x != y)
        .unwrap_or_else(|| a.len().min(b.len()));
    panic!(
        "{what}: outputs differ at byte {pos} (lengths {} vs {})",
        a.len(),
        b.len()
    );
}

/// FNV-1a digests of (report, JSONL log, Chrome trace).
const REPORT_DIGESTS: [u64; 3] = [
    0x02d2_c35e_0b78_9c93,
    0xf52f_f26e_9b26_d5b4,
    0xbb11_2182_b596_a90f,
];

#[test]
fn wasp_report_output_matches_pinned_digests() {
    let dir = scratch_dir("pinned");
    let out = run_report(&dir, "pinned");
    assert!(
        !out.report.is_empty() && !out.jsonl.is_empty(),
        "report ran but produced empty outputs"
    );
    let got = [fnv1a(&out.report), fnv1a(&out.jsonl), fnv1a(&out.trace)];
    assert_eq!(
        got, REPORT_DIGESTS,
        "(report, JSONL, trace) digests {got:#x?} differ from the pinned {REPORT_DIGESTS:#x?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn wasp_report_run_reproduces_itself() {
    let dir = scratch_dir("rerun");
    let first = run_report(&dir, "first");
    let second = run_report(&dir, "second");
    assert_same("audit report (re-run)", &first.report, &second.report);
    assert_same("jsonl event log (re-run)", &first.jsonl, &second.jsonl);
    assert_same("chrome trace (re-run)", &first.trace, &second.trace);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Runs `wasp-report` with `args`, killing it after `limit`; returns
/// its exit code and stderr, or `None` when it ran past the limit.
fn run_with_timeout(args: &[&str], limit: Duration) -> Option<(Option<i32>, String)> {
    let mut child = Command::new(env!("CARGO_BIN_EXE_wasp-report"))
        .args(args)
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn wasp-report");
    let start = Instant::now();
    while child.try_wait().expect("poll wasp-report").is_none() {
        if start.elapsed() > limit {
            let _ = child.kill();
            let _ = child.wait();
            return None;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    let out = child
        .wait_with_output()
        .expect("collect wasp-report output");
    Some((
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    ))
}

/// Rejected input exits 2 with the usage text, promptly: the retired
/// `--jobs` flag, and a tick length that is zero, negative or NaN
/// (which would otherwise never advance simulated time).
#[test]
fn wasp_report_rejects_bad_flags_with_usage() {
    for args in [
        ["--scenario", "section_8_6", "--jobs", "2"],
        ["--scenario", "section_8_6", "--dt", "0"],
        ["--scenario", "section_8_6", "--dt", "-1"],
        ["--scenario", "section_8_6", "--dt", "nan"],
    ] {
        let (code, stderr) = run_with_timeout(&args, Duration::from_secs(20))
            .unwrap_or_else(|| panic!("wasp-report {args:?} still running after 20 s"));
        assert_eq!(code, Some(2), "wasp-report {args:?} exit code");
        assert!(
            stderr.contains("usage: wasp-report"),
            "wasp-report {args:?} must print the usage text, got: {stderr}"
        );
    }
}
