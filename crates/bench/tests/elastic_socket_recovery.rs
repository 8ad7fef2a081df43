//! The rank-crash gate for elastic socket worlds: record a multi-process
//! world over the socket backend, SIGKILL one rank's worker process
//! mid-record, admit a replacement incarnation, and prove the assembled
//! trace — every rank's grammar — is byte-identical to a fault-free
//! run's. The fault-free run doubles as the socket smoke: one worker
//! process hosts two of the three ranks, the hub must report no failure,
//! and the assembled trace must carry every rank's events. Drives the
//! `elastic_record` binary.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const BIN: &str = env!("CARGO_BIN_EXE_elastic_record");
const RANKS: usize = 3;
const EVENTS: u64 = 20_000;

fn spawn_hub(socket: &Path, ranks: usize) -> Child {
    let child = Command::new(BIN)
        .arg("hub")
        .arg(socket)
        .arg(ranks.to_string())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("spawn hub");
    let deadline = Instant::now() + Duration::from_secs(10);
    while !socket.exists() {
        assert!(Instant::now() < deadline, "hub never created its socket");
        std::thread::sleep(Duration::from_millis(10));
    }
    child
}

/// One worker process hosting ranks `rank..rank + span`.
fn spawn_worker(socket: &Path, trace: &Path, rank: usize, span: usize, incarnation: u64) -> Child {
    Command::new(BIN)
        .arg("worker")
        .arg(socket)
        .arg(trace)
        .arg(rank.to_string())
        .arg(RANKS.to_string())
        .arg(EVENTS.to_string())
        .arg(incarnation.to_string())
        .arg(span.to_string())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("spawn worker")
}

fn wait_success(mut child: Child, what: &str) -> String {
    let mut out = String::new();
    if let Some(stdout) = child.stdout.take() {
        for line in BufReader::new(stdout).lines() {
            out.push_str(&line.unwrap());
            out.push('\n');
        }
    }
    let status = child.wait().expect("wait child");
    assert!(status.success(), "{what} failed ({status}):\n{out}");
    out
}

fn assemble(trace: &Path) -> String {
    let out = Command::new(BIN)
        .arg("assemble")
        .arg(trace)
        .output()
        .expect("run assemble");
    assert!(
        out.status.success(),
        "assemble failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// Fault-free run: hub + one worker process hosting ranks 0 and 1 + one
/// hosting rank 2. No failure is detected and the assembled trace holds
/// every rank's events plus its closing barrier.
fn record_clean(dir: &Path) -> PathBuf {
    let socket = dir.join("free.sock");
    let trace = dir.join("free.pythia");
    let hub = spawn_hub(&socket, RANKS);
    let workers = [
        spawn_worker(&socket, &trace, 0, 2, 0),
        spawn_worker(&socket, &trace, 2, 1, 0),
    ];
    for (i, w) in workers.into_iter().enumerate() {
        wait_success(w, &format!("worker process {i}"));
    }
    let hub_out = wait_success(hub, "hub");
    assert!(hub_out.contains("failures=0 replaced=0"), "{hub_out}");
    let assembled = assemble(&trace);
    let total = RANKS as u64 * (EVENTS + 1);
    assert!(
        assembled.contains(&format!("assembled ranks={RANKS} events={total} ")),
        "{assembled}"
    );
    trace
}

/// Faulty run: SIGKILL rank 1's worker once its journal holds >= 512
/// events, then admit a replacement incarnation that salvages the
/// journal and resumes.
fn record_with_rank_crash(dir: &Path) -> PathBuf {
    let socket = dir.join("faulty.sock");
    let trace = dir.join("faulty.pythia");
    let hub = spawn_hub(&socket, RANKS);
    let survivors: Vec<Child> = [0, 2]
        .iter()
        .map(|&r| spawn_worker(&socket, &trace, r, 1, 0))
        .collect();

    let mut victim = spawn_worker(&socket, &trace, 1, 1, 0);
    {
        // The victim prints `progress rank=1 events=N` every 256 events;
        // kill it only after real progress so the replacement genuinely
        // replays a journaled prefix.
        let stdout = victim.stdout.take().expect("victim stdout");
        let mut lines = BufReader::new(stdout).lines();
        loop {
            match lines.next() {
                Some(Ok(line)) if line.contains("events=512") => break,
                Some(Ok(_)) => continue,
                other => panic!("victim finished before the kill: {other:?}"),
            }
        }
    }
    victim.kill().expect("SIGKILL the victim rank");
    let _ = victim.wait();

    let replacement = spawn_worker(&socket, &trace, 1, 1, 1);
    let out = wait_success(replacement, "replacement rank 1");
    assert!(out.contains("replaced=1"), "not a replacement run:\n{out}");
    let resumed: u64 = out
        .lines()
        .rev()
        .find_map(|l| {
            l.split_whitespace()
                .find_map(|w| w.strip_prefix("resumed=").and_then(|v| v.parse().ok()))
        })
        .expect("replacement reported no resume point");
    assert!(
        resumed >= 512,
        "replacement salvaged only {resumed} events from the journal"
    );

    for (i, w) in survivors.into_iter().enumerate() {
        wait_success(w, &format!("survivor {}", [0, 2][i]));
    }
    let hub_out = wait_success(hub, "hub");
    assert!(hub_out.contains("failures=1 replaced=1"), "{hub_out}");
    assemble(&trace);
    trace
}

#[test]
fn killed_rank_recovers_byte_identical_trace() {
    let dir = std::env::temp_dir().join(format!("pythia-elastic-sock-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    let clean = record_clean(&dir);
    let faulty = record_with_rank_crash(&dir);

    let a = std::fs::read(&clean).expect("read fault-free trace");
    let b = std::fs::read(&faulty).expect("read recovered trace");
    assert_eq!(
        a, b,
        "trace recovered through a replacement rank differs from the fault-free run"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
