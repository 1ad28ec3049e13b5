//! The wire protocol: line-based requests, counted-line responses.
//!
//! Requests are single text lines, tokens separated by whitespace. Responses
//! are framed so a client never has to guess where one ends:
//!
//! ```text
//! OK <n>\n          followed by exactly n data lines,
//! ERR <message>\n   a single line (the message never contains a newline), or
//! SERVER_BUSY <m>\n a single line, sent only at admission when the server
//!                   sheds the connection; the socket closes right after.
//! ```
//!
//! `ERR` messages that begin with the word `limit` form the resource-limit
//! family (`ERR limit line ...`, `ERR limit idle ...`,
//! `ERR limit session-refs ...`): the server counted them under the
//! `limit_rejections` metric, and for line/idle violations it closes the
//! connection after the response.
//!
//! Floating-point values in responses use Rust's shortest round-tripping
//! decimal representation (`{}`), so a client that parses a served estimate
//! back into an `f64` recovers the server's bits exactly — the integration
//! tests compare served `ESTIMATE` lines byte-for-byte against the
//! in-process Est-IO result. The full command reference lives in
//! `docs/protocol.md`.

/// A parsed request. Names borrow the bytes the request arrived in, so a
/// text line and a binary frame both parse without copying them.
#[derive(Debug, Clone, PartialEq)]
pub enum Request<'a> {
    /// Liveness probe.
    Ping,
    /// List catalog entries with their version metadata.
    Show,
    /// Est-IO on a stored entry.
    Estimate {
        /// Catalog entry name.
        name: &'a str,
        /// Range selectivity `σ` in `[0, 1]`.
        sigma: f64,
        /// Buffer pages `B >= 1`.
        buffer: u64,
        /// Index-sargable selectivity in `[0, 1]` (default 1).
        sargable: f64,
    },
    /// Est-IO on a stored entry plus the full decision trace (`EXPLAIN
    /// ESTIMATE`). The first data line is byte-identical to what the same
    /// `ESTIMATE` would serve.
    Explain {
        /// Catalog entry name.
        name: &'a str,
        /// Range selectivity `σ` in `[0, 1]`.
        sigma: f64,
        /// Buffer pages `B >= 1`.
        buffer: u64,
        /// Index-sargable selectivity in `[0, 1]` (default 1).
        sargable: f64,
    },
    /// Sample a stored entry's FPF curve.
    Fpf {
        /// Catalog entry name.
        name: &'a str,
        /// Number of sample rows.
        points: usize,
    },
    /// Exact LRU fetches vs all five estimators for a served-analyzed entry.
    Compare {
        /// Catalog entry name.
        name: &'a str,
        /// Number of buffer-size rows.
        points: usize,
    },
    /// Open a streaming ingestion session on this connection.
    AnalyzeBegin {
        /// Name the committed entry will get.
        name: &'a str,
        /// Segment budget override (`segments=N`).
        segments: Option<usize>,
        /// Declared table size (`table_pages=T`); default `max(page)+1`.
        table_pages: Option<u32>,
    },
    /// Feed `(key, page)` reference pairs into the open session.
    Page {
        /// One or more pairs from a key-ordered statistics scan.
        pairs: Vec<(i64, u32)>,
    },
    /// Run segment fitting and atomically publish the session's entry.
    AnalyzeCommit,
    /// Discard the open session.
    AnalyzeAbort,
    /// Reattach a crash-recovered (or disconnect-parked) session to this
    /// connection. Only meaningful on a server running with `--wal-dir`.
    AnalyzeResume {
        /// Entry name the parked session was opened under.
        name: &'a str,
    },
    /// Report an observed (ground-truth) fetch count for a scan of a stored
    /// entry. The server pairs it with the estimate it would serve right now
    /// and feeds the accuracy tracker (`docs/observability.md`, "Accuracy &
    /// drift").
    Observe {
        /// Catalog entry name.
        name: &'a str,
        /// Distinct keys the scan touched; selectivity is `nkeys / I`.
        nkeys: u64,
        /// Page fetches the scan actually performed.
        actual: u64,
        /// Buffer pages the scan ran with (`buffer=B`); defaults to the
        /// entry's stored `b_min`.
        buffer: Option<u64>,
    },
    /// Render per-entry estimator-accuracy summaries (all entries, or one).
    Drift {
        /// Restrict to one catalog entry.
        name: Option<&'a str>,
    },
    /// Render the newest entries of the slow-request log.
    Slowlog {
        /// Maximum entries to return.
        limit: usize,
    },
    /// Request counters and latency histograms.
    Stats,
    /// Operator command: re-probe the WAL directory and catalog path after a
    /// durability failure put the server in degraded (read-only) mode, and
    /// resume ingest if storage is healthy again.
    Recover,
    /// Gracefully stop the server.
    Shutdown,
    /// Upgrade this connection to binary framing v2 (`HELLO BINARY`). The
    /// server acknowledges in text, then every subsequent byte on the
    /// connection is length-prefixed frames (see the `framing` module).
    Hello,
}

impl Request<'_> {
    /// Stable label used for per-command metrics and `STATS` output.
    pub fn label(&self) -> &'static str {
        match self {
            Request::Ping => "PING",
            Request::Show => "SHOW",
            Request::Estimate { .. } => "ESTIMATE",
            Request::Explain { .. } => "EXPLAIN",
            Request::Fpf { .. } => "FPF",
            Request::Compare { .. } => "COMPARE",
            Request::AnalyzeBegin { .. } => "ANALYZE_BEGIN",
            Request::Page { .. } => "PAGE",
            Request::AnalyzeCommit => "ANALYZE_COMMIT",
            Request::AnalyzeAbort => "ANALYZE_ABORT",
            Request::AnalyzeResume { .. } => "ANALYZE_RESUME",
            Request::Observe { .. } => "OBSERVE",
            Request::Drift { .. } => "DRIFT",
            Request::Slowlog { .. } => "SLOWLOG",
            Request::Stats => "STATS",
            Request::Recover => "RECOVER",
            Request::Shutdown => "SHUTDOWN",
            Request::Hello => "HELLO",
        }
    }

    /// Every label [`Request::label`] can produce, in `STATS` output order.
    pub const LABELS: &'static [&'static str] = &[
        "PING",
        "SHOW",
        "ESTIMATE",
        "EXPLAIN",
        "FPF",
        "COMPARE",
        "ANALYZE_BEGIN",
        "PAGE",
        "ANALYZE_COMMIT",
        "ANALYZE_ABORT",
        "ANALYZE_RESUME",
        "OBSERVE",
        "DRIFT",
        "SLOWLOG",
        "STATS",
        "RECOVER",
        "SHUTDOWN",
        "HELLO",
        "INVALID",
    ];
}

fn parse_token<T: std::str::FromStr>(tok: &str, what: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    tok.parse().map_err(|e| format!("bad {what} {tok:?}: {e}"))
}

/// Parses one request line. Command words are case-insensitive; names and
/// values are taken verbatim.
pub fn parse_request(line: &str) -> Result<Request<'_>, String> {
    let mut toks = line.split_whitespace();
    let cmd = toks.next().ok_or("empty request")?.to_ascii_uppercase();
    let rest: Vec<&str> = toks.collect();
    let exactly = |lo: usize, hi: usize, usage: &str| -> Result<(), String> {
        if rest.len() < lo || rest.len() > hi {
            Err(format!("usage: {usage}"))
        } else {
            Ok(())
        }
    };
    match cmd.as_str() {
        "PING" => {
            exactly(0, 0, "PING")?;
            Ok(Request::Ping)
        }
        "SHOW" => {
            exactly(0, 0, "SHOW")?;
            Ok(Request::Show)
        }
        "STATS" => {
            exactly(0, 0, "STATS")?;
            Ok(Request::Stats)
        }
        "RECOVER" => {
            exactly(0, 0, "RECOVER")?;
            Ok(Request::Recover)
        }
        "SHUTDOWN" => {
            exactly(0, 0, "SHUTDOWN")?;
            Ok(Request::Shutdown)
        }
        "HELLO" => {
            exactly(1, 1, "HELLO BINARY")?;
            if !rest[0].eq_ignore_ascii_case("BINARY") {
                return Err(format!("unknown protocol {:?} (try HELLO BINARY)", rest[0]));
            }
            Ok(Request::Hello)
        }
        "ESTIMATE" => {
            exactly(3, 4, "ESTIMATE <name> <sigma> <buffer> [<sargable>]")?;
            Ok(Request::Estimate {
                name: rest[0],
                sigma: parse_token(rest[1], "sigma")?,
                buffer: parse_token(rest[2], "buffer")?,
                sargable: rest
                    .get(3)
                    .map(|t| parse_token(t, "sargable"))
                    .transpose()?
                    .unwrap_or(1.0),
            })
        }
        "EXPLAIN" => {
            const USAGE: &str = "EXPLAIN ESTIMATE <name> <sigma> <buffer> [<sargable>]";
            let sub = rest
                .first()
                .ok_or(format!("usage: {USAGE}"))?
                .to_ascii_uppercase();
            if sub != "ESTIMATE" {
                return Err(format!("unknown EXPLAIN subcommand {sub:?}"));
            }
            exactly(4, 5, USAGE)?;
            Ok(Request::Explain {
                name: rest[1],
                sigma: parse_token(rest[2], "sigma")?,
                buffer: parse_token(rest[3], "buffer")?,
                sargable: rest
                    .get(4)
                    .map(|t| parse_token(t, "sargable"))
                    .transpose()?
                    .unwrap_or(1.0),
            })
        }
        "FPF" => {
            exactly(1, 2, "FPF <name> [<points>]")?;
            Ok(Request::Fpf {
                name: rest[0],
                points: rest
                    .get(1)
                    .map(|t| parse_token(t, "points"))
                    .transpose()?
                    .unwrap_or(12),
            })
        }
        "COMPARE" => {
            exactly(1, 2, "COMPARE <name> [<points>]")?;
            Ok(Request::Compare {
                name: rest[0],
                points: rest
                    .get(1)
                    .map(|t| parse_token(t, "points"))
                    .transpose()?
                    .unwrap_or(10),
            })
        }
        "OBSERVE" => {
            const USAGE: &str = "OBSERVE <name> <nkeys> <actual_fetches> [buffer=B]";
            exactly(3, 4, USAGE)?;
            let mut buffer = None;
            if let Some(opt) = rest.get(3) {
                match opt.split_once('=') {
                    Some(("buffer", v)) => buffer = Some(parse_token(v, "buffer")?),
                    _ => return Err(format!("unknown OBSERVE option {opt:?}")),
                }
            }
            Ok(Request::Observe {
                name: rest[0],
                nkeys: parse_token(rest[1], "nkeys")?,
                actual: parse_token(rest[2], "actual_fetches")?,
                buffer,
            })
        }
        "DRIFT" => {
            exactly(0, 1, "DRIFT [<name>]")?;
            Ok(Request::Drift {
                name: rest.first().copied(),
            })
        }
        "SLOWLOG" => {
            exactly(0, 1, "SLOWLOG [<n>]")?;
            Ok(Request::Slowlog {
                limit: rest
                    .first()
                    .map(|t| parse_token(t, "n"))
                    .transpose()?
                    .unwrap_or(32),
            })
        }
        "PAGE" => {
            if rest.is_empty() || !rest.len().is_multiple_of(2) {
                return Err("usage: PAGE <key> <page> [<key> <page> ...]".into());
            }
            let pairs = rest
                .chunks_exact(2)
                .map(|kp| Ok((parse_token(kp[0], "key")?, parse_token(kp[1], "page")?)))
                .collect::<Result<_, String>>()?;
            Ok(Request::Page { pairs })
        }
        "ANALYZE" => {
            let sub = rest
                .first()
                .ok_or(
                    "usage: ANALYZE BEGIN <name> [k=v ...] | ANALYZE COMMIT | ANALYZE ABORT \
                     | ANALYZE RESUME <name>",
                )?
                .to_ascii_uppercase();
            match sub.as_str() {
                "COMMIT" => {
                    exactly(1, 1, "ANALYZE COMMIT")?;
                    Ok(Request::AnalyzeCommit)
                }
                "ABORT" => {
                    exactly(1, 1, "ANALYZE ABORT")?;
                    Ok(Request::AnalyzeAbort)
                }
                "RESUME" => {
                    exactly(2, 2, "ANALYZE RESUME <name>")?;
                    Ok(Request::AnalyzeResume { name: rest[1] })
                }
                "BEGIN" => {
                    let name = *rest
                        .get(1)
                        .ok_or("usage: ANALYZE BEGIN <name> [segments=N] [table_pages=T]")?;
                    let mut segments = None;
                    let mut table_pages = None;
                    for opt in &rest[2..] {
                        match opt.split_once('=') {
                            Some(("segments", v)) => {
                                segments = Some(parse_token(v, "segments")?);
                            }
                            Some(("table_pages", v)) => {
                                table_pages = Some(parse_token(v, "table_pages")?);
                            }
                            _ => return Err(format!("unknown ANALYZE BEGIN option {opt:?}")),
                        }
                    }
                    Ok(Request::AnalyzeBegin {
                        name,
                        segments,
                        table_pages,
                    })
                }
                other => Err(format!("unknown ANALYZE subcommand {other:?}")),
            }
        }
        other => Err(format!("unknown command {other:?}")),
    }
}

/// Frames a successful response: `OK <n>` plus the data lines.
///
/// # Panics
/// Panics if a data line contains a newline (the framing would desync).
pub fn frame_ok(lines: &[String]) -> String {
    let mut out = format!("OK {}\n", lines.len());
    for line in lines {
        assert!(!line.contains('\n'), "data lines must be newline-free");
        out.push_str(line);
        out.push('\n');
    }
    out
}

/// Frames an error response, flattening any embedded newlines.
pub fn frame_err(message: &str) -> String {
    format!("ERR {}\n", message.replace(['\n', '\r'], " "))
}

/// Frames the admission-shed response, flattening any embedded newlines.
/// Sent instead of serving a connection when the server is at its
/// concurrent-connection limit; the connection closes right after.
pub fn frame_busy(message: &str) -> String {
    format!("SERVER_BUSY {}\n", message.replace(['\n', '\r'], " "))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_command_shape() {
        assert_eq!(parse_request("PING").unwrap(), Request::Ping);
        assert_eq!(parse_request("show").unwrap(), Request::Show);
        assert_eq!(
            parse_request("ESTIMATE t.k 0.5 100").unwrap(),
            Request::Estimate {
                name: "t.k",
                sigma: 0.5,
                buffer: 100,
                sargable: 1.0
            }
        );
        assert_eq!(
            parse_request("estimate t.k 0.5 100 0.25").unwrap(),
            Request::Estimate {
                name: "t.k",
                sigma: 0.5,
                buffer: 100,
                sargable: 0.25
            }
        );
        assert_eq!(
            parse_request("explain estimate t.k 0.5 100").unwrap(),
            Request::Explain {
                name: "t.k",
                sigma: 0.5,
                buffer: 100,
                sargable: 1.0
            }
        );
        assert_eq!(
            parse_request("EXPLAIN ESTIMATE t.k 0.5 100 0.25").unwrap(),
            Request::Explain {
                name: "t.k",
                sigma: 0.5,
                buffer: 100,
                sargable: 0.25
            }
        );
        assert_eq!(
            parse_request("FPF ix 7").unwrap(),
            Request::Fpf {
                name: "ix",
                points: 7
            }
        );
        assert_eq!(
            parse_request("COMPARE ix").unwrap(),
            Request::Compare {
                name: "ix",
                points: 10
            }
        );
        assert_eq!(
            parse_request("ANALYZE BEGIN ix segments=4 table_pages=99").unwrap(),
            Request::AnalyzeBegin {
                name: "ix",
                segments: Some(4),
                table_pages: Some(99)
            }
        );
        assert_eq!(
            parse_request("PAGE 5 0 5 1 6 2").unwrap(),
            Request::Page {
                pairs: vec![(5, 0), (5, 1), (6, 2)]
            }
        );
        assert_eq!(
            parse_request("ANALYZE COMMIT").unwrap(),
            Request::AnalyzeCommit
        );
        assert_eq!(
            parse_request("ANALYZE ABORT").unwrap(),
            Request::AnalyzeAbort
        );
        assert_eq!(
            parse_request("OBSERVE t.k 250 1234").unwrap(),
            Request::Observe {
                name: "t.k",
                nkeys: 250,
                actual: 1234,
                buffer: None
            }
        );
        assert_eq!(
            parse_request("observe t.k 250 1234 buffer=64").unwrap(),
            Request::Observe {
                name: "t.k",
                nkeys: 250,
                actual: 1234,
                buffer: Some(64)
            }
        );
        assert_eq!(
            parse_request("DRIFT").unwrap(),
            Request::Drift { name: None }
        );
        assert_eq!(
            parse_request("drift t.k").unwrap(),
            Request::Drift { name: Some("t.k") }
        );
        assert_eq!(
            parse_request("SLOWLOG").unwrap(),
            Request::Slowlog { limit: 32 }
        );
        assert_eq!(
            parse_request("slowlog 5").unwrap(),
            Request::Slowlog { limit: 5 }
        );
        assert_eq!(parse_request("STATS").unwrap(), Request::Stats);
        assert_eq!(parse_request("RECOVER").unwrap(), Request::Recover);
        assert_eq!(parse_request("SHUTDOWN").unwrap(), Request::Shutdown);
        assert_eq!(parse_request("HELLO BINARY").unwrap(), Request::Hello);
        assert_eq!(parse_request("hello binary").unwrap(), Request::Hello);
    }

    #[test]
    fn rejects_malformed_requests() {
        assert!(parse_request("").is_err());
        assert!(parse_request("FROB").is_err());
        assert!(parse_request("ESTIMATE onlyname").is_err());
        assert!(parse_request("ESTIMATE ix notafloat 10").is_err());
        assert!(parse_request("EXPLAIN").is_err());
        assert!(parse_request("EXPLAIN FPF ix").is_err());
        assert!(parse_request("EXPLAIN ESTIMATE onlyname").is_err());
        assert!(parse_request("EXPLAIN ESTIMATE ix notafloat 10").is_err());
        assert!(parse_request("PAGE 1").is_err());
        assert!(parse_request("PAGE").is_err());
        assert!(parse_request("PAGE 1 2 3").is_err());
        assert!(parse_request("PAGE 1 x").is_err());
        assert!(parse_request("PAGE x 1").is_err());
        assert!(parse_request("ANALYZE").is_err());
        assert!(parse_request("ANALYZE BEGIN ix bogus=1").is_err());
        assert!(parse_request("PING extra").is_err());
        assert!(parse_request("OBSERVE t.k").is_err());
        assert!(parse_request("OBSERVE t.k 10").is_err());
        assert!(parse_request("OBSERVE t.k ten 5").is_err());
        assert!(parse_request("OBSERVE t.k 10 5 bogus=1").is_err());
        assert!(parse_request("OBSERVE t.k 10 5 buffer=x").is_err());
        assert!(parse_request("DRIFT a b").is_err());
        assert!(parse_request("SLOWLOG nope").is_err());
        assert!(parse_request("SLOWLOG 1 2").is_err());
        assert!(parse_request("HELLO").is_err());
        assert!(parse_request("HELLO TEXTUAL").is_err());
        assert!(parse_request("HELLO BINARY please").is_err());
    }

    #[test]
    fn every_label_is_listed() {
        for req in [
            Request::Ping,
            Request::Show,
            Request::Estimate {
                name: "x",
                sigma: 0.0,
                buffer: 1,
                sargable: 1.0,
            },
            Request::Explain {
                name: "x",
                sigma: 0.0,
                buffer: 1,
                sargable: 1.0,
            },
            Request::Fpf {
                name: "x",
                points: 1,
            },
            Request::Compare {
                name: "x",
                points: 1,
            },
            Request::AnalyzeBegin {
                name: "x",
                segments: None,
                table_pages: None,
            },
            Request::Page {
                pairs: vec![(0, 0)],
            },
            Request::AnalyzeCommit,
            Request::AnalyzeAbort,
            Request::Observe {
                name: "x",
                nkeys: 1,
                actual: 1,
                buffer: None,
            },
            Request::Drift { name: None },
            Request::Slowlog { limit: 1 },
            Request::Stats,
            Request::Recover,
            Request::Shutdown,
            Request::Hello,
        ] {
            assert!(Request::LABELS.contains(&req.label()), "{}", req.label());
        }
    }

    #[test]
    fn framing_is_counted_and_newline_safe() {
        assert_eq!(frame_ok(&[]), "OK 0\n");
        assert_eq!(
            frame_ok(&["a".to_string(), "b c".to_string()]),
            "OK 2\na\nb c\n"
        );
        assert_eq!(frame_err("multi\nline"), "ERR multi line\n");
        assert_eq!(
            frame_busy("4 busy\nworkers"),
            "SERVER_BUSY 4 busy workers\n"
        );
    }
}
