//! Host-crash durability for the serving binary on both sweep axes:
//! kill `serve` mid-run — with a real SIGKILL and with the
//! `VIP_DURABLE_CRASH` hook that aborts at exact journal/checkpoint
//! write sites — then `--resume`, and the final report must be
//! byte-identical to an uninterrupted run's.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

const SERVE: &str = env!("CARGO_BIN_EXE_serve");

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("vip-serve-resume-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// `--quick` serving sweep args; durable runs add the journal +
/// checkpoint flags (`--jobs 1` keeps the crash hook's process-wide
/// write counters deterministic).
fn serve_args(dir: &Path, durable: bool, resume: bool) -> Vec<String> {
    let mut args = vec![
        "--dir".to_owned(),
        dir.display().to_string(),
        "--quick".to_owned(),
        "--jobs".to_owned(),
        "1".to_owned(),
    ];
    if durable {
        args.extend(["--checkpoint-every".to_owned(), "8".to_owned()]);
    }
    if resume {
        args.push("--resume".to_owned());
    }
    args
}

/// The same run on the chaos axis, at the chaos sweep's usual scales.
fn chaos_args(dir: &Path, durable: bool, resume: bool) -> Vec<String> {
    let mut args = serve_args(dir, durable, resume);
    args.extend(["--scales".to_owned(), "0,25,50,100,200".to_owned()]);
    args
}

fn run_ok(bin: &str, args: &[String]) {
    let status = Command::new(bin)
        .args(args)
        .stdout(Stdio::null())
        .status()
        .expect("binary runs");
    assert!(status.success(), "{bin} exited with {status}");
}

/// Runs the binary with the crash hook armed; it must die abnormally
/// (the hook aborts the process) without having written the report.
fn run_crashed(bin: &str, args: &[String], spec: &str, report: &Path) {
    let status = Command::new(bin)
        .args(args)
        .env("VIP_DURABLE_CRASH", spec)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .expect("binary runs");
    assert!(
        !status.success(),
        "crash hook {spec} did not kill the process (exited {status})"
    );
    assert!(
        !report.exists(),
        "crashed run still published its report ({spec})"
    );
}

/// Any `.ckpt` file under `<dir>/wal/run-*/`.
fn has_fleet_checkpoint(dir: &Path) -> bool {
    let Ok(runs) = std::fs::read_dir(dir.join("wal")) else {
        return false;
    };
    runs.flatten().any(|run| {
        std::fs::read_dir(run.path()).is_ok_and(|files| {
            files
                .flatten()
                .any(|f| f.path().extension().is_some_and(|ext| ext == "ckpt"))
        })
    })
}

/// The crash hook kills `serve` inside every durable write site — a
/// clean inter-record kill, a torn journal append, and a torn
/// checkpoint temporary — and each time `--resume` finishes the run to
/// the exact bytes an uninterrupted (and non-durable) run produces.
#[test]
fn serve_crash_hook_sites_all_resume_to_identical_reports() {
    let clean = scratch_dir("serve-clean");
    run_ok(SERVE, &serve_args(&clean, false, false));
    let reference = std::fs::read(clean.join("BENCH_serving.json")).expect("reference report");

    // event:N = die after the Nth whole journal append; journal:N =
    // die mid-append leaving a torn frame; ckpt:N = die mid-checkpoint
    // leaving a torn temporary.
    for spec in ["event:20", "journal:10", "ckpt:1"] {
        let dir = scratch_dir(&format!("serve-{}", spec.replace(':', "-")));
        let report = dir.join("BENCH_serving.json");
        run_crashed(SERVE, &serve_args(&dir, true, false), spec, &report);
        run_ok(SERVE, &serve_args(&dir, true, true));
        let resumed = std::fs::read(&report).expect("resumed report");
        assert_eq!(
            resumed, reference,
            "resume after {spec} produced a different report"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
    let _ = std::fs::remove_dir_all(&clean);
}

/// Same contract on the chaos axis: fleet-level durability composes
/// with injected device failures, and `--checkpoint-every` is
/// orthogonal to the per-job `--snapshot-every` recovery cadence.
#[test]
fn chaos_crash_hook_resumes_to_identical_report() {
    let clean = scratch_dir("chaos-clean");
    run_ok(SERVE, &chaos_args(&clean, false, false));
    let reference = std::fs::read(clean.join("BENCH_chaos.json")).expect("reference report");

    let dir = scratch_dir("chaos-crashed");
    let report = dir.join("BENCH_chaos.json");
    run_crashed(SERVE, &chaos_args(&dir, true, false), "event:15", &report);
    run_ok(SERVE, &chaos_args(&dir, true, true));
    let resumed = std::fs::read(&report).expect("resumed report");
    assert_eq!(
        resumed, reference,
        "resumed chaos report differs from the uninterrupted run"
    );
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&clean);
}

/// The unhooked case: a real SIGKILL at whatever point the fleet
/// checkpoint poll catches the run — no destructors, no flushes — then
/// resume, and the report must still match the uninterrupted bytes.
#[test]
fn sigkilled_serve_resumes_to_an_identical_report() {
    let clean = scratch_dir("sigkill-clean");
    run_ok(SERVE, &serve_args(&clean, false, false));
    let reference = std::fs::read(clean.join("BENCH_serving.json")).expect("reference report");

    let killed = scratch_dir("sigkill-victim");
    let mut child = Command::new(SERVE)
        .args(serve_args(&killed, true, false))
        .stdout(Stdio::null())
        .spawn()
        .expect("serve binary spawns");
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        if has_fleet_checkpoint(&killed) {
            break;
        }
        if child.try_wait().expect("child status").is_some() {
            // The sweep outran the poll and finished cleanly; the
            // resume below then just reloads its done-records.
            break;
        }
        assert!(Instant::now() < deadline, "no checkpoint appeared in 60s");
        std::thread::sleep(Duration::from_millis(1));
    }
    let _ = child.kill(); // SIGKILL on unix: no destructors, no flushes
    let _ = child.wait();

    run_ok(SERVE, &serve_args(&killed, true, true));
    let resumed = std::fs::read(killed.join("BENCH_serving.json")).expect("resumed report");
    assert_eq!(
        resumed, reference,
        "resumed serving report differs from the uninterrupted run"
    );
    let _ = std::fs::remove_dir_all(&clean);
    let _ = std::fs::remove_dir_all(&killed);
}
