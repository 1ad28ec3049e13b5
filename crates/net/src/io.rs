//! Shared classification of socket I/O results.
//!
//! Serving loops used to pattern-match `io::Error` ad hoc, and two of the
//! matches were wrong in the same way: `Err(_)` arms treated **any** error —
//! including `EINTR`, which merely means "a signal arrived while the syscall
//! was parked" — as the peer hanging up. [`ReadStep::classify`] is the one
//! shared truth table.
//!
//! A subtlety worth recording: on Linux, a `read(2)`/`recv(2)` on a socket
//! with a receive timeout (`SO_RCVTIMEO`, which blocking clients set for a
//! poll interval) is *never* automatically restarted after a signal,
//! even when the handler was installed with `SA_RESTART` — see signal(7).
//! So any process that both serves sockets and receives signals (SIGCHLD
//! from a spawned subprocess is enough) will eventually observe a genuine
//! `EINTR` on a healthy connection. The regression tests below provoke one
//! deliberately with `pthread_kill`.

use std::io::{self, ErrorKind};

/// The outcome of one read attempt, classified for a serving loop.
#[derive(Debug)]
pub enum ReadStep {
    /// `n > 0` bytes arrived.
    Data(usize),
    /// Orderly end of stream: the peer shut down its write side.
    Eof,
    /// `EINTR`: a signal interrupted the syscall. Retry immediately —
    /// the connection is healthy.
    Retry,
    /// `EAGAIN`/`EWOULDBLOCK` or a receive-timeout expiry: no data yet.
    /// The caller should wait for readiness (or run its idle checks).
    Idle,
    /// A real transport error; the connection is unusable.
    Fatal(io::Error),
}

impl ReadStep {
    /// Classify the raw result of a `read(2)`-like call.
    pub fn classify(result: io::Result<usize>) -> ReadStep {
        match result {
            Ok(0) => ReadStep::Eof,
            Ok(n) => ReadStep::Data(n),
            Err(e) => match e.kind() {
                ErrorKind::Interrupted => ReadStep::Retry,
                ErrorKind::WouldBlock | ErrorKind::TimedOut => ReadStep::Idle,
                _ => ReadStep::Fatal(e),
            },
        }
    }
}

/// Raise the soft `RLIMIT_NOFILE` limit toward `want` file descriptors.
///
/// Returns the resulting soft limit (which may be the unchanged current one
/// if it already satisfies `want`, or the hard cap if `want` exceeds it and
/// the process lacks `CAP_SYS_RESOURCE` — a privileged process gets its hard
/// limit raised too, bounded by the kernel's `fs.nr_open`). Used by the
/// 10k-connection tests and the open-loop load generator; a default soft
/// limit of 1024 would otherwise fail `accept`/`connect` long before the
/// event loop is stressed.
#[cfg(target_os = "linux")]
pub fn raise_nofile_limit(want: u64) -> io::Result<u64> {
    #[repr(C)]
    struct Rlimit {
        rlim_cur: u64,
        rlim_max: u64,
    }
    const RLIMIT_NOFILE: i32 = 7;
    extern "C" {
        fn getrlimit(resource: i32, rlim: *mut Rlimit) -> i32;
        fn setrlimit(resource: i32, rlim: *const Rlimit) -> i32;
    }
    let mut lim = Rlimit {
        rlim_cur: 0,
        rlim_max: 0,
    };
    if unsafe { getrlimit(RLIMIT_NOFILE, &mut lim) } != 0 {
        return Err(io::Error::last_os_error());
    }
    if lim.rlim_cur >= want {
        return Ok(lim.rlim_cur);
    }
    if lim.rlim_max < want {
        // Privileged processes may lift the hard cap as well; EPERM just
        // means we settle for the existing hard cap below.
        let raised = Rlimit {
            rlim_cur: want,
            rlim_max: want,
        };
        if unsafe { setrlimit(RLIMIT_NOFILE, &raised) } == 0 {
            return Ok(want);
        }
    }
    lim.rlim_cur = want.min(lim.rlim_max);
    if unsafe { setrlimit(RLIMIT_NOFILE, &lim) } != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(lim.rlim_cur)
}

/// Portable stub: leave the limit alone and report a conservative value.
#[cfg(not(target_os = "linux"))]
pub fn raise_nofile_limit(_want: u64) -> io::Result<u64> {
    Ok(1024)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;

    #[test]
    fn classify_table() {
        assert!(matches!(ReadStep::classify(Ok(0)), ReadStep::Eof));
        assert!(matches!(ReadStep::classify(Ok(17)), ReadStep::Data(17)));
        assert!(matches!(
            ReadStep::classify(Err(io::Error::from(ErrorKind::Interrupted))),
            ReadStep::Retry
        ));
        assert!(matches!(
            ReadStep::classify(Err(io::Error::from(ErrorKind::WouldBlock))),
            ReadStep::Idle
        ));
        assert!(matches!(
            ReadStep::classify(Err(io::Error::from(ErrorKind::TimedOut))),
            ReadStep::Idle
        ));
        assert!(matches!(
            ReadStep::classify(Err(io::Error::from(ErrorKind::ConnectionReset))),
            ReadStep::Fatal(_)
        ));
    }

    #[test]
    fn raise_nofile_limit_is_monotone() {
        let before = raise_nofile_limit(0).expect("query limit");
        let after = raise_nofile_limit(before).expect("raise limit");
        assert!(after >= before.min(after));
    }

    /// Provoke a *genuine* `EINTR` on a healthy socket and prove the
    /// classified read loop rides through it.
    ///
    /// The reader thread parks in `recv(2)` on a socket with a long
    /// `SO_RCVTIMEO`; per signal(7) such a read is never auto-restarted
    /// after a signal, so `pthread_kill(SIGUSR1)` makes it fail with
    /// `EINTR`. Before the fix, both the server frame reader and the obs
    /// HTTP loop would have treated that as the peer closing.
    #[cfg(target_os = "linux")]
    #[test]
    fn genuine_eintr_does_not_close_a_healthy_connection() {
        use std::io::Write;
        use std::net::{TcpListener, TcpStream};
        use std::sync::mpsc;
        use std::time::Duration;

        const SIGUSR1: i32 = 10;
        extern "C" {
            fn signal(signum: i32, handler: usize) -> usize;
            fn pthread_self() -> u64;
            fn pthread_kill(thread: u64, sig: i32) -> i32;
        }
        extern "C" fn noop_handler(_sig: i32) {}
        // Install a handler so SIGUSR1 interrupts rather than kills. glibc's
        // signal() uses BSD (SA_RESTART) semantics, which is exactly the
        // hostile case: timeout-socket reads still return EINTR under it.
        unsafe { signal(SIGUSR1, noop_handler as *const () as usize) };

        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let mut client = TcpStream::connect(addr).expect("connect");
        let (mut server_side, _) = listener.accept().expect("accept");
        server_side
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("set timeout");

        let (tid_tx, tid_rx) = mpsc::channel();
        let (parked_tx, parked_rx) = mpsc::channel();
        let reader = std::thread::spawn(move || {
            tid_tx.send(unsafe { pthread_self() }).unwrap();
            let mut buf = [0u8; 16];
            parked_tx.send(()).unwrap();
            // The classified read loop must absorb the EINTR and come back
            // with the data that arrives afterwards.
            let step = loop {
                match ReadStep::classify(server_side.read(&mut buf)) {
                    ReadStep::Retry => continue,
                    step => break step,
                }
            };
            match step {
                ReadStep::Data(n) => buf[..n].to_vec(),
                other => panic!("healthy connection misclassified as {other:?}"),
            }
        });
        let tid = tid_rx.recv().expect("reader tid");
        parked_rx.recv().expect("reader parked");
        // Give the reader time to actually enter recv(2), then interrupt it
        // a few times for good measure.
        for _ in 0..3 {
            std::thread::sleep(Duration::from_millis(50));
            assert_eq!(unsafe { pthread_kill(tid, SIGUSR1) }, 0);
        }
        client.write_all(b"still here\n").expect("write");
        let got = reader.join().expect("reader thread");
        assert_eq!(&got, b"still here\n");
    }
}
