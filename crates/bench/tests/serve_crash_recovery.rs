//! The kill -9 regression gate for durable serve sessions (ISSUE 8
//! acceptance criterion): record sessions through a real server
//! process, SIGKILL it mid-flight, restart with `--recover`, and prove
//! every resumed session serves predictions byte-identical to a
//! single-process oracle. Drives the `serve_crash` binary; ci.sh runs
//! this flow only here, through `cargo test --workspace`.

use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};

const BIN: &str = env!("CARGO_BIN_EXE_serve_crash");

fn spawn_server(dir: &std::path::Path, socket: &std::path::Path, recover: bool) -> Child {
    let mut cmd = Command::new(BIN);
    cmd.arg("serve")
        .arg("--dir")
        .arg(dir)
        .arg("--socket")
        .arg(socket)
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if recover {
        cmd.arg("--recover");
    }
    let mut child = cmd.spawn().expect("spawn serve_crash serve");
    // Block until the server prints `ready` (with `--recover`, after its
    // `recovered N M` report line).
    let stdout = child.stdout.take().expect("piped stdout");
    let mut lines = BufReader::new(stdout).lines();
    loop {
        match lines.next() {
            Some(Ok(line)) if line.trim() == "ready" => break,
            Some(Ok(_)) => continue,
            other => panic!("server never became ready: {other:?}"),
        }
    }
    child
}

fn run(role_args: &[&std::ffi::OsStr]) {
    let status = Command::new(BIN)
        .args(role_args)
        .status()
        .expect("run serve_crash role");
    assert!(status.success(), "{role_args:?} failed: {status}");
}

#[test]
fn killed_server_recovers_byte_identical_sessions() {
    let dir = std::env::temp_dir().join(format!("pythia-serve-crash-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let journals = dir.join("journals");
    let socket = dir.join("serve.sock");
    let manifest = dir.join("sessions.txt");

    // Incarnation one: durable sessions recorded over the socket.
    let mut first = spawn_server(&journals, &socket, false);
    run(&[
        "drive".as_ref(),
        "--socket".as_ref(),
        socket.as_os_str(),
        "--out".as_ref(),
        manifest.as_os_str(),
    ]);

    // The crash: SIGKILL, no drain, no flush, no goodbye.
    first.kill().expect("SIGKILL the server");
    let _ = first.wait();
    let _ = std::fs::remove_file(&socket);

    // Incarnation two recovers the journal directory and must serve
    // byte-identical predictions for every resumed session.
    let mut second = spawn_server(&journals, &socket, true);
    run(&[
        "verify".as_ref(),
        "--socket".as_ref(),
        socket.as_os_str(),
        "--in".as_ref(),
        manifest.as_os_str(),
    ]);

    second.kill().expect("stop the recovered server");
    let _ = second.wait();
    let _ = std::fs::remove_dir_all(&dir);
}
