//! Drives real `epfis` processes: spawn `epfis serve`, learn its bound
//! addresses from the startup banner, and talk to it through
//! `epfis client`.
//!
//! A [`Serve`] kills its child on drop, so a failing assertion never
//! leaves a server holding its port or its WAL directory.

#![allow(dead_code)] // each test binary uses a different subset

use std::io::{BufRead, BufReader, Read, Write};
use std::process::{Child, ChildStdout, Command, ExitStatus, Output, Stdio};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The binary under test.
pub const EPFIS: &str = env!("CARGO_BIN_EXE_epfis");

/// A running `epfis serve` child process.
pub struct Serve {
    child: Child,
    /// The protocol address from `listening on ADDR`.
    pub addr: String,
    /// The HTTP endpoint from `metrics on ADDR`, when `--metrics-addr` was
    /// given.
    pub metrics: Option<String>,
    stderr: Arc<Mutex<String>>,
    /// The threads draining the child's stdout and stderr; they finish
    /// when it exits.
    drains: Vec<JoinHandle<()>>,
    exited: Option<ExitStatus>,
}

/// Starts `epfis serve ARGS` with `ENV` added to its environment and waits
/// for the banner. Panics, with the server's stderr, if the process exits
/// before announcing its address.
pub fn spawn_serve(args: &[&str], env: &[(&str, &str)]) -> Serve {
    let mut child = Command::new(EPFIS)
        .arg("serve")
        .args(args)
        .envs(env.iter().copied())
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn epfis serve");
    // Drain stderr on a thread so a chatty server never blocks on a full
    // pipe, and so tests can read what it said.
    let stderr = Arc::new(Mutex::new(String::new()));
    let stderr_drain = {
        let sink = Arc::clone(&stderr);
        let mut pipe = child.stderr.take().unwrap();
        std::thread::spawn(move || {
            let mut buf = [0u8; 4096];
            while let Ok(n @ 1..) = pipe.read(&mut buf) {
                sink.lock()
                    .unwrap()
                    .push_str(&String::from_utf8_lossy(&buf[..n]));
            }
        })
    };
    let mut stdout = BufReader::new(child.stdout.take().unwrap());
    let with_metrics = args.contains(&"--metrics-addr");
    let banner = banner_line(&mut stdout, "listening on ").and_then(|addr| {
        let metrics = if with_metrics {
            Some(banner_line(&mut stdout, "metrics on ")?)
        } else {
            None
        };
        Ok((addr, metrics))
    });
    let (addr, metrics) = match banner {
        Ok(found) => found,
        Err(line) => {
            let status = child.wait().expect("wait for failed serve");
            stderr_drain.join().unwrap();
            panic!(
                "serve banner {line:?} ({status}); stderr: {}",
                stderr.lock().unwrap()
            )
        }
    };
    // Keep draining stdout (the final status line) so the server never
    // writes into a closed pipe.
    let stdout_drain = std::thread::spawn(move || {
        let _ = std::io::copy(&mut stdout, &mut std::io::sink());
    });
    Serve {
        child,
        addr,
        metrics,
        stderr,
        drains: vec![stderr_drain, stdout_drain],
        exited: None,
    }
}

/// Reads one banner line `PREFIX ADDR` and returns `ADDR`, or the line.
fn banner_line(stdout: &mut BufReader<ChildStdout>, prefix: &str) -> Result<String, String> {
    let mut line = String::new();
    stdout.read_line(&mut line).expect("read serve banner");
    match line.trim_end().strip_prefix(prefix) {
        Some(addr) => Ok(addr.to_string()),
        None => Err(line),
    }
}

impl Serve {
    /// Everything the server wrote to stderr so far.
    pub fn stderr(&self) -> String {
        self.stderr.lock().unwrap().clone()
    }

    /// Sends `signal` (e.g. `-TERM`) with `kill(1)` and waits for the exit.
    pub fn signal(&mut self, signal: &str) -> ExitStatus {
        let status = Command::new("kill")
            .args([signal, &self.child.id().to_string()])
            .status()
            .expect("run kill");
        assert!(status.success(), "kill {signal} failed: {status}");
        self.wait()
    }

    /// SIGKILLs the server and reaps it.
    pub fn kill(&mut self) -> ExitStatus {
        self.child.kill().expect("SIGKILL epfis serve");
        self.wait()
    }

    /// Stops the server with `SHUTDOWN` and asserts a clean exit.
    pub fn shutdown(&mut self) {
        let out = client(&self.addr, &["--send", "SHUTDOWN"], None);
        assert_eq!(stdout(&out), "bye", "{out:?}");
        let status = self.wait();
        assert!(status.success(), "serve after SHUTDOWN: {status}");
    }

    /// `epfis client --send CMD`, asserting success; returns stdout.
    pub fn send(&self, command: &str) -> String {
        let out = client(&self.addr, &["--send", command], None);
        assert!(out.status.success(), "{command}: {out:?}");
        stdout(&out)
    }

    /// Polls `STATS` until `series` reads `value`, panicking after 10 s.
    pub fn await_series(&self, series: &str, value: f64) -> String {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let stats = self.send("STATS");
            if epfis_obs::series_value(&stats, series) == Some(value) {
                return stats;
            }
            assert!(
                Instant::now() < deadline,
                "{series} never reached {value}: {stats}"
            );
            std::thread::sleep(Duration::from_millis(50));
        }
    }

    /// One HTTP GET against the metrics endpoint: `(status, body)`.
    pub fn http_get(&self, path: &str) -> (u16, String) {
        let metrics = self
            .metrics
            .as_deref()
            .expect("started with --metrics-addr");
        let mut stream = std::net::TcpStream::connect(metrics).expect("connect metrics");
        write!(
            stream,
            "GET {path} HTTP/1.1\r\nHost: epfis\r\nConnection: close\r\n\r\n"
        )
        .unwrap();
        let mut raw = String::new();
        stream.read_to_string(&mut raw).unwrap();
        let status = raw
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .unwrap_or_else(|| panic!("bad HTTP response {raw:?}"));
        let body = raw.split_once("\r\n\r\n").map_or("", |(_, b)| b);
        (status, body.to_string())
    }

    fn wait(&mut self) -> ExitStatus {
        if let Some(status) = self.exited {
            return status;
        }
        let status = self.child.wait().expect("wait for epfis serve");
        self.exited = Some(status);
        for drain in self.drains.drain(..) {
            drain.join().expect("pipe drain thread");
        }
        status
    }
}

impl Drop for Serve {
    fn drop(&mut self) {
        if self.exited.is_none() {
            let _ = self.child.kill();
            let _ = self.child.wait();
            for drain in self.drains.drain(..) {
                let _ = drain.join();
            }
        }
    }
}

/// Runs `epfis client --addr ADDR ARGS`, feeding `script` on stdin.
pub fn client(addr: &str, args: &[&str], script: Option<&str>) -> Output {
    let mut child = Command::new(EPFIS)
        .args(["client", "--addr", addr])
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn epfis client");
    let mut stdin = child.stdin.take().unwrap();
    if let Some(script) = script {
        stdin
            .write_all(script.as_bytes())
            .expect("feed client stdin");
    }
    drop(stdin);
    child.wait_with_output().expect("wait for epfis client")
}

/// Runs a stdin script through `epfis client`, asserting success.
pub fn script(addr: &str, args: &[&str], script: &str) -> String {
    let out = client(addr, args, Some(script));
    assert!(out.status.success(), "client script failed: {out:?}");
    stdout(&out)
}

/// A process's stdout as text, without the trailing newline.
pub fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout)
        .trim_end_matches('\n')
        .to_string()
}

/// A fresh, empty scratch directory unique to this process and `tag`.
pub fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("epfis-process-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}
