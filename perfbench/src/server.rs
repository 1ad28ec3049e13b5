//! The served binary as a child process: spawn, readiness, probes, stop.

use epfis_server::Client;
use std::io::{self, BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// How long a spawned server may take to print `listening on`.
const READY_TIMEOUT: Duration = Duration::from_secs(60);
/// How long `SHUTDOWN` may take before the process is killed.
const STOP_TIMEOUT: Duration = Duration::from_secs(20);

/// A running `epfis serve` child.
pub struct Server {
    child: Child,
    // Held open until the process exits, so its exit message never meets a
    // closed pipe.
    _stdout: BufReader<ChildStdout>,
    pub addr: SocketAddr,
}

/// The timings of one start-up.
pub struct Startup {
    /// Spawn until the `listening on` banner.
    pub listening_s: f64,
    /// Spawn until the first `PING` is answered (`setup_s`).
    pub total_s: f64,
}

/// The command line a workload's server runs with: default flags except
/// the durability flags the workload names.
pub fn command_line(bin: &Path, catalog: &Path, wal_dir: Option<&Path>) -> Vec<String> {
    let mut args = vec![
        bin.display().to_string(),
        "serve".to_string(),
        "--catalog".to_string(),
        catalog.display().to_string(),
    ];
    if let Some(dir) = wal_dir {
        args.push("--wal-dir".to_string());
        args.push(dir.display().to_string());
    }
    args
}

impl Server {
    /// Spawns `cmdline` and waits until it answers `PING`.
    pub fn start(cmdline: &[String]) -> io::Result<(Server, Startup)> {
        let started = Instant::now();
        let mut child = Command::new(&cmdline[0])
            .args(&cmdline[1..])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let addr = match read_banner(&mut stdout) {
            Ok(addr) => addr,
            Err(e) => {
                child.kill().ok();
                child.wait().ok();
                return Err(e);
            }
        };
        let listening_s = started.elapsed().as_secs_f64();
        let server = Server {
            child,
            _stdout: stdout,
            addr,
        };
        let pong = Client::connect_with(addr, READY_TIMEOUT, READY_TIMEOUT)
            .and_then(|mut c| c.request("PING"))
            .map_err(|e| io::Error::other(format!("first PING: {e}")))?;
        if pong != ["pong"] {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("first PING answered {pong:?}"),
            ));
        }
        let total_s = started.elapsed().as_secs_f64();
        Ok((
            server,
            Startup {
                listening_s,
                total_s,
            },
        ))
    }

    /// `VmHWM` (peak resident set) of the server process, in MiB.
    pub fn rss_peak_mib(&self) -> io::Result<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))?;
        let kb: f64 = status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no VmHWM line"))?;
        Ok(kb / 1024.0)
    }

    /// Sends `SHUTDOWN` and waits for the process to exit, killing it if
    /// it does not within [`STOP_TIMEOUT`].
    pub fn stop(mut self) -> io::Result<()> {
        let asked = Client::connect(self.addr).and_then(|mut c| c.request("SHUTDOWN"));
        let deadline = Instant::now() + STOP_TIMEOUT;
        loop {
            if let Some(status) = self.child.try_wait()? {
                return if asked.is_ok() && status.success() {
                    Ok(())
                } else {
                    Err(io::Error::other(format!(
                        "server exited with {status} (shutdown request: {asked:?})"
                    )))
                };
            }
            if Instant::now() > deadline {
                self.child.kill().ok();
                self.child.wait().ok();
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "server did not stop after SHUTDOWN",
                ));
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            self.child.kill().ok();
            self.child.wait().ok();
        }
    }
}

fn read_banner(stdout: &mut BufReader<ChildStdout>) -> io::Result<SocketAddr> {
    let mut line = String::new();
    loop {
        line.clear();
        if stdout.read_line(&mut line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server exited before printing `listening on`",
            ));
        }
        if let Some(addr) = line.trim().strip_prefix("listening on ") {
            return addr
                .parse()
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("{addr}: {e}")));
        }
    }
}

/// A scratch directory inside the working directory, removed on drop.
pub struct WorkDir(pub PathBuf);

impl WorkDir {
    pub fn create(root: &Path, tag: &str) -> io::Result<WorkDir> {
        let dir = root.join(format!("{tag}-{}", std::process::id()));
        if dir.exists() {
            std::fs::remove_dir_all(&dir)?;
        }
        std::fs::create_dir_all(&dir)?;
        Ok(WorkDir(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}
