//! The server's durable, versioned catalog, its text format, and its
//! lock-light sharing model.
//!
//! Each entry is the core [`epfis::IndexStatistics`] plus version metadata:
//! a monotonically increasing **epoch** (bumped on every commit, globally —
//! an entry's epoch records *when* it was last analyzed relative to every
//! other commit) and an **analyzed-at** unix timestamp, so clients can
//! reason about staleness (see `docs/protocol.md`).
//!
//! `epfis analyze` and `epfis serve` both open and commit the catalog file
//! through [`SharedCatalog`], and this module alone writes and reads its
//! format: a header, a metadata section, a literal `---` line, the entry
//! blocks under their own header, and a CRC32C footer:
//!
//! ```text
//! epfis-server-catalog v1
//! epoch 7
//! meta orders.customer_id epoch=7 analyzed_at=1754400000 cluster_counter=812 fetches_b1=40211 fetches_b3=38007 session=42
//! ---
//! epfis-catalog v1
//! index orders.customer_id
//! table_pages 2500
//! records 50000
//! distinct_keys 500
//! distinct_pages 2500
//! clustering_factor 0.8123
//! b_min 1
//! b_max 2500
//! fpf 1:48123 2:47310 ... 2500:2500
//! config b_sml=12 segments=6 grid=arith phi=max corr=1 sarg=1 range=auto
//! end
//! crc32c 1a2b3c4d
//! ```
//!
//! Section 4.1 stores the segment end-points "in a system catalog entry
//! associated with the index"; the `fpf` line holds them as `B:F` knots.
//! Floating-point fields use Rust's shortest round-tripping decimal form,
//! so a load of a rendered catalog reproduces every value — and so every
//! estimate — bit for bit.
//!
//! Every entry block has exactly one `meta` line and every `meta` line one
//! entry block; an entry's epoch never exceeds the global `epoch`. Names
//! are non-empty, without whitespace or control characters.
//!
//! The three `cluster_counter`/`fetches_b1`/`fetches_b3` items are the
//! entry's [`BaselineCounters`], from which `COMPARE` rebuilds the
//! baseline estimators; a `meta` line written before they existed loads
//! with none, and `COMPARE` then asks for a re-`ANALYZE`. A bare file —
//! `epfis-catalog v1` and the entry blocks, which older `epfis analyze`
//! runs wrote — loads at epoch 0, also without counters.
//!
//! `session=S` names the WAL session that committed the entry: with
//! `--wal-dir` the catalog write is the commit point (see [`crate::wal`]).
//! An older build's `wal_committed N` line is accepted and dropped.
//!
//! Writes go through [`epfis_faults::write_atomic`] (write temp + fsync +
//! rename + directory sync) and loads through the same injectable [`Vfs`],
//! so a crash or storage fault mid-save can never leave a torn file; on
//! startup the server simply reloads the last successfully renamed version.
//! A persist failure is first-class: it surfaces as a distinct `catalog
//! persist failed` error, bumps [`SharedCatalog::persist_failures`], leaves
//! the old on-disk file byte-identical, and the published in-memory
//! snapshot keeps serving unchanged — the commit simply did not happen.
//!
//! Sharing: [`SharedCatalog`] keeps the current [`VersionedCatalog`] behind
//! `RwLock<Arc<...>>`. Readers take the lock only long enough to clone the
//! `Arc` ([`SharedCatalog::snapshot`]); a commit builds the successor
//! catalog and persists it *outside* any lock readers touch, then swaps the
//! `Arc`. Concurrent `ESTIMATE`s therefore never block behind an ingest.

use epfis::{EpfisConfig, GridStrategy, IndexStatistics, PhiMode, PiecewiseLinear, ScanQuery};
use epfis_estimators::BaselineCounters;
use epfis_faults::{write_atomic, StdVfs, Vfs};
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

const HEADER: &str = "epfis-server-catalog v1";
/// Heads the entry blocks, and alone heads a bare file.
const BARE_HEADER: &str = "epfis-catalog v1";
const SEPARATOR: &str = "---";

/// One named index's statistics plus version metadata.
#[derive(Clone, Debug, PartialEq)]
pub struct VersionedEntry {
    /// The catalog entry Est-IO reads.
    pub stats: IndexStatistics,
    /// Global commit counter value when this entry was last analyzed.
    pub epoch: u64,
    /// Unix timestamp (seconds) of the analysis commit.
    pub analyzed_at: u64,
    /// The counters `COMPARE` builds the baseline estimators from; `None`
    /// for an entry written before catalogs kept them.
    pub counters: Option<BaselineCounters>,
    /// The WAL `ANALYZE` session this entry was committed from; `None`
    /// without a WAL.
    pub session: Option<u64>,
}

impl VersionedEntry {
    /// The `EXPLAIN ESTIMATE` lines for this entry as `name`: the estimate
    /// exactly as `ESTIMATE` serves it, the entry identity (with the
    /// session that produced it, when known), the trace.
    pub fn explain(&self, name: &str, query: &ScanQuery) -> Vec<String> {
        let mut lines = self.stats.estimate_traced(query).wire_lines();
        let mut entry = format!("entry {name} epoch={}", self.epoch);
        if let Some(session) = self.session {
            entry.push_str(&format!(" session={session}"));
        }
        lines.insert(1, entry);
        lines
    }
}

/// An immutable catalog version: named [`VersionedEntry`]s plus the global
/// epoch. Commits produce a new value; readers hold `Arc` snapshots.
///
/// Entries are individually `Arc`'d so a hot reader can hold a handle to
/// one entry across requests (the binary protocol's zero-alloc `ESTIMATE`
/// path) and so successor catalogs share unchanged entries instead of
/// cloning them.
///
/// ```
/// use epfis::{EpfisConfig, LruFit};
/// use epfis_lrusim::KeyedTrace;
/// use epfis_server::VersionedCatalog;
///
/// let trace = KeyedTrace::all_distinct((0..600u32).map(|i| i % 60).collect(), 60);
/// let stats = LruFit::new(EpfisConfig::default()).collect(&trace);
///
/// let mut catalog = VersionedCatalog::new();
/// catalog.insert("orders.customer_id", stats, 1_754_400_000, None).unwrap();
///
/// // The text format round-trips exactly — estimates included.
/// let text = catalog.to_text_checksummed();
/// assert_eq!(VersionedCatalog::from_text_checksummed(&text).unwrap(), catalog);
/// ```
#[derive(Clone, Debug, Default, PartialEq)]
pub struct VersionedCatalog {
    epoch: u64,
    entries: BTreeMap<String, Arc<VersionedEntry>>,
}

impl VersionedCatalog {
    /// An empty catalog at epoch 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// The global epoch: the number of commits this catalog has seen.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the catalog has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Looks an entry up by name.
    pub fn get(&self, name: &str) -> Option<&VersionedEntry> {
        self.entries.get(name).map(|e| &**e)
    }

    /// Looks an entry up by name, returning the shared handle. A caller may
    /// hold the `Arc` beyond the snapshot's lifetime (the entry is immutable
    /// once published).
    pub fn get_arc(&self, name: &str) -> Option<&Arc<VersionedEntry>> {
        self.entries.get(name)
    }

    /// [`VersionedCatalog::get_arc`], or the error every command answers
    /// for an unknown name.
    pub(crate) fn lookup(&self, name: &str) -> Result<&Arc<VersionedEntry>, String> {
        self.get_arc(name)
            .ok_or_else(|| format!("no catalog entry named {name:?} (try SHOW)"))
    }

    /// Iterates entries in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &VersionedEntry)> {
        self.entries.iter().map(|(k, v)| (k.as_str(), &**v))
    }

    /// Inserts (or replaces) an entry, bumping the global epoch and stamping
    /// the entry with it. Returns the new epoch, or the name rule's error.
    pub fn insert(
        &mut self,
        name: impl Into<String>,
        stats: IndexStatistics,
        analyzed_at: u64,
        counters: Option<BaselineCounters>,
    ) -> Result<u64, String> {
        self.insert_from(name.into(), stats, analyzed_at, counters, None)
    }

    /// [`insert`](VersionedCatalog::insert), recording the WAL session the
    /// entry was committed from.
    fn insert_from(
        &mut self,
        name: String,
        stats: IndexStatistics,
        analyzed_at: u64,
        counters: Option<BaselineCounters>,
        session: Option<u64>,
    ) -> Result<u64, String> {
        // The format's rule, so anything accepted here persists.
        check_name(&name)?;
        self.epoch += 1;
        self.entries.insert(
            name,
            Arc::new(VersionedEntry {
                stats,
                epoch: self.epoch,
                analyzed_at,
                counters,
                session,
            }),
        );
        Ok(self.epoch)
    }

    /// The highest WAL session id any entry records (0 if none): the floor
    /// for the next session id, so a provenance id is never reused.
    pub(crate) fn max_session(&self) -> u64 {
        self.entries
            .values()
            .filter_map(|e| e.session)
            .max()
            .unwrap_or(0)
    }

    /// Serializes to the server text format.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        self.write_text(&mut out)
            .expect("writing to a String cannot fail");
        out
    }

    fn write_text(&self, out: &mut String) -> std::fmt::Result {
        writeln!(out, "{HEADER}\nepoch {}", self.epoch)?;
        for (name, e) in &self.entries {
            write!(
                out,
                "meta {name} epoch={} analyzed_at={}",
                e.epoch, e.analyzed_at
            )?;
            if let Some(c) = e.counters {
                write!(
                    out,
                    " cluster_counter={} fetches_b1={} fetches_b3={}",
                    c.cluster_counter, c.fetches_b1, c.fetches_b3
                )?;
            }
            if let Some(session) = e.session {
                write!(out, " session={session}")?;
            }
            out.push('\n');
        }
        writeln!(out, "{SEPARATOR}\n{BARE_HEADER}")?;
        for (name, e) in &self.entries {
            write_entry(out, name, &e.stats)?;
        }
        Ok(())
    }

    /// Parses the server text format, or a bare file (epochs and
    /// `analyzed_at` all 0), in one pass over its lines. Errors about a
    /// line name its number in `text`.
    pub fn from_text(text: &str) -> io::Result<Self> {
        let mut lines = text.lines().enumerate().map(|(i, line)| (i + 1, line));
        let bare = match lines.next() {
            Some((_, h)) if h.trim() == HEADER => false,
            Some((_, h)) if h.trim() == BARE_HEADER => true,
            other => {
                return Err(invalid(format!(
                    "bad catalog header: {:?}",
                    other.map_or("", |(_, h)| h)
                )))
            }
        };
        let (epoch, mut metas) = if bare {
            (0, HashMap::new())
        } else {
            read_meta_section(&mut lines)?
        };
        let mut entries = BTreeMap::new();
        let mut open: Option<(&str, EntryBuilder)> = None;
        for (no, raw) in lines {
            let line = raw.trim();
            if line.is_empty() {
                continue;
            }
            let at = |message: String| line_error(no, raw, message);
            let (keyword, rest) = line.split_once(' ').unwrap_or((line, ""));
            match (keyword, open.take()) {
                ("index", None) => {
                    check_name(rest).map_err(at)?;
                    open = Some((rest, EntryBuilder::default()));
                }
                ("index", Some(_)) => return Err(at("new entry before previous 'end'".into())),
                ("end", Some((name, builder))) => {
                    let Entry::Vacant(slot) = entries.entry(name.to_string()) else {
                        return Err(at(format!("duplicate index name {name:?}")));
                    };
                    let stats = builder
                        .build()
                        .ok_or_else(|| at(format!("incomplete catalog entry {name:?}")))?;
                    let meta = if bare {
                        Meta::default()
                    } else {
                        metas
                            .remove(name)
                            .ok_or_else(|| at(format!("entry {name:?} has no meta line")))?
                    };
                    slot.insert(Arc::new(VersionedEntry {
                        stats,
                        epoch: meta.epoch,
                        analyzed_at: meta.analyzed_at,
                        counters: meta.counters,
                        session: meta.session,
                    }));
                }
                ("end", None) => return Err(at("'end' without entry".into())),
                (_, Some((name, mut builder))) => {
                    builder.field(keyword, rest).map_err(at)?;
                    open = Some((name, builder));
                }
                (_, None) => return Err(at(format!("field {keyword:?} outside entry"))),
            }
        }
        if let Some((name, _)) = open {
            return Err(invalid(format!("incomplete catalog entry {name:?}")));
        }
        if let Some((name, meta)) = metas.iter().min_by_key(|(_, m)| m.line.0) {
            let (no, raw) = meta.line;
            return Err(line_error(
                no,
                raw,
                format!("meta for unknown entry {name:?}"),
            ));
        }
        Ok(VersionedCatalog { epoch, entries })
    }

    /// [`to_text`](VersionedCatalog::to_text) plus a trailing CRC32C footer
    /// line over the serialized bytes. This is what actually hits disk:
    /// `write_atomic`'s rename makes a *torn* file unreachable on any sane
    /// filesystem, but the footer catches what rename cannot — bit rot,
    /// truncation by external tooling, or a filesystem without atomic
    /// rename — as a checksum mismatch rather than a parse error at an
    /// arbitrary line.
    pub fn to_text_checksummed(&self) -> String {
        let mut out = self.to_text();
        let crc = epfis_wal::crc32c(out.as_bytes());
        writeln!(out, "crc32c {crc:08x}").expect("writing to a String cannot fail");
        out
    }

    /// Parses the persisted form, verifying the CRC32C footer when present.
    /// A damaged file yields a distinct `catalog checksum mismatch` error.
    /// Files without a footer (written before checksumming existed) parse
    /// as before.
    pub fn from_text_checksummed(text: &str) -> io::Result<Self> {
        let mismatch = || io::Error::new(io::ErrorKind::InvalidData, "catalog checksum mismatch");
        let stripped = text.strip_suffix('\n').unwrap_or(text);
        let (body, last) = match stripped.rfind('\n') {
            Some(i) => (&text[..i + 1], &stripped[i + 1..]),
            None => ("", stripped),
        };
        match last.strip_prefix("crc32c ") {
            Some(hex) => {
                let want = u32::from_str_radix(hex.trim(), 16).map_err(|_| mismatch())?;
                if epfis_wal::crc32c(body.as_bytes()) != want {
                    return Err(mismatch());
                }
                Self::from_text(body)
            }
            None => Self::from_text(text),
        }
    }
}

/// Checks that `name` is non-empty, without whitespace or control
/// characters: what an `index` line can carry.
pub(crate) fn check_name(name: &str) -> Result<(), String> {
    if name.is_empty() || name.chars().any(|c| c.is_whitespace() || c.is_control()) {
        return Err(format!("invalid index name {name:?}"));
    }
    Ok(())
}

fn invalid(message: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message)
}

/// A load error about line `no` (1-based, in the whole file) of the text.
fn line_error(no: usize, raw: &str, message: String) -> io::Error {
    invalid(format!("parse error at line {no}: {message} (in {raw:?})"))
}

/// Appends one entry block.
fn write_entry(out: &mut String, name: &str, s: &IndexStatistics) -> std::fmt::Result {
    writeln!(
        out,
        "index {name}\ntable_pages {}\nrecords {}\ndistinct_keys {}\ndistinct_pages {}\n\
         clustering_factor {}\nb_min {}\nb_max {}",
        s.table_pages,
        s.records,
        s.distinct_keys,
        s.distinct_pages,
        s.clustering_factor,
        s.b_min,
        s.b_max
    )?;
    out.push_str("fpf");
    for (x, y) in s.fpf.knots() {
        write!(out, " {x}:{y}")?;
    }
    let c = &s.config;
    write!(
        out,
        "\nconfig b_sml={} segments={} grid=",
        c.b_sml, c.segments
    )?;
    match c.grid {
        GridStrategy::Arithmetic => out.push_str("arith"),
        GridStrategy::Geometric { points } => write!(out, "geom:{points}")?,
    }
    let phi = match c.phi_mode {
        PhiMode::PaperMax => "max",
        PhiMode::ProseMin => "min",
    };
    write!(
        out,
        " phi={phi} corr={} sarg={} range=",
        u8::from(c.enable_correction),
        u8::from(c.enable_sargable_model)
    )?;
    match c.modeling_range {
        None => out.push_str("auto"),
        Some((lo, hi)) => write!(out, "{lo},{hi}")?,
    }
    out.push_str("\nend\n");
    Ok(())
}

/// One `meta` line's items, and the line they came from.
#[derive(Default)]
struct Meta<'a> {
    epoch: u64,
    analyzed_at: u64,
    counters: Option<BaselineCounters>,
    session: Option<u64>,
    line: (usize, &'a str),
}

/// Reads the server format's lines after the header through the entry
/// section's own header: the global epoch and each entry's `meta` line,
/// keyed by name.
fn read_meta_section<'a>(
    lines: &mut impl Iterator<Item = (usize, &'a str)>,
) -> io::Result<(u64, HashMap<&'a str, Meta<'a>>)> {
    let mut epoch = None;
    let mut metas = HashMap::new();
    loop {
        let Some((no, raw)) = lines.next() else {
            return Err(invalid(format!(
                "no {SEPARATOR:?} line after the meta lines"
            )));
        };
        let line = raw.trim();
        let at = |message: String| line_error(no, raw, message);
        if line == SEPARATOR {
            break;
        }
        if line.is_empty() || line.starts_with("wal_committed ") {
            // Blank, or an older build's WAL-commit watermark: replay no
            // longer reads it, so it is dropped on the next persist.
            continue;
        }
        if let Some(v) = line.strip_prefix("epoch ") {
            epoch = Some(parse(v.trim()).map_err(at)?);
        } else if let Some(rest) = line.strip_prefix("meta ") {
            let (name, meta) = parse_meta(rest, (no, raw)).map_err(at)?;
            if metas.insert(name, meta).is_some() {
                return Err(at(format!("second meta line for {name:?}")));
            }
        } else {
            return Err(at(format!("unexpected line before {SEPARATOR:?}")));
        }
    }
    let epoch = epoch.ok_or_else(|| invalid("missing global epoch line".into()))?;
    if let Some((name, meta)) = metas
        .iter()
        .filter(|(_, m)| m.epoch > epoch)
        .min_by_key(|(_, m)| m.line.0)
    {
        let (no, raw) = meta.line;
        return Err(line_error(
            no,
            raw,
            format!(
                "meta {name:?} epoch={} is above the catalog epoch {epoch}",
                meta.epoch
            ),
        ));
    }
    match lines.next() {
        Some((_, h)) if h.trim() == BARE_HEADER => Ok((epoch, metas)),
        Some((no, raw)) => Err(line_error(
            no,
            raw,
            format!("expected {BARE_HEADER:?} after {SEPARATOR:?}"),
        )),
        None => Err(invalid(format!("no {BARE_HEADER:?} line"))),
    }
}

/// Parses the rest of a `meta` line: the name, then `key=value` items.
fn parse_meta<'a>(rest: &'a str, line: (usize, &'a str)) -> Result<(&'a str, Meta<'a>), String> {
    let mut toks = rest.split_whitespace();
    let name = toks.next().ok_or("meta line without a name")?;
    const KEYS: [&str; 6] = [
        "epoch",
        "analyzed_at",
        "cluster_counter",
        "fetches_b1",
        "fetches_b3",
        "session",
    ];
    let mut vals = [None; 6];
    for kv in toks {
        let slot = kv
            .split_once('=')
            .and_then(|(k, v)| Some((KEYS.iter().position(|&key| key == k)?, v)));
        let Some((i, v)) = slot else {
            return Err(format!("unknown meta item {kv:?}"));
        };
        vals[i] = Some(
            v.parse::<u64>()
                .map_err(|err| format!("bad meta {} {v:?}: {err}", KEYS[i]))?,
        );
    }
    let [epoch, analyzed_at, cc, f1, f3, session] = vals;
    let counters = match (cc, f1, f3) {
        (Some(cluster_counter), Some(fetches_b1), Some(fetches_b3)) => Some(BaselineCounters {
            cluster_counter,
            fetches_b1,
            fetches_b3,
        }),
        (None, None, None) => None,
        _ => {
            return Err(format!(
                "meta {name:?} has only some of the baseline counters"
            ))
        }
    };
    let meta = Meta {
        epoch: epoch.ok_or_else(|| format!("meta {name:?} missing epoch"))?,
        analyzed_at: analyzed_at.ok_or_else(|| format!("meta {name:?} missing analyzed_at"))?,
        counters,
        session,
        line,
    };
    Ok((name, meta))
}

/// One entry block's fields as they are read; [`EntryBuilder::build`]
/// needs every field but `config`'s items, which default.
#[derive(Default)]
struct EntryBuilder {
    table_pages: Option<u64>,
    records: Option<u64>,
    distinct_keys: Option<u64>,
    distinct_pages: Option<u64>,
    clustering_factor: Option<f64>,
    b_min: Option<u64>,
    b_max: Option<u64>,
    fpf: Option<PiecewiseLinear>,
    config: Option<EpfisConfig>,
}

impl EntryBuilder {
    fn field(&mut self, keyword: &str, rest: &str) -> Result<(), String> {
        match keyword {
            "table_pages" => self.table_pages = Some(parse(rest)?),
            "records" => self.records = Some(parse(rest)?),
            "distinct_keys" => self.distinct_keys = Some(parse(rest)?),
            "distinct_pages" => self.distinct_pages = Some(parse(rest)?),
            "clustering_factor" => self.clustering_factor = Some(parse(rest)?),
            "b_min" => self.b_min = Some(parse(rest)?),
            "b_max" => self.b_max = Some(parse(rest)?),
            "fpf" => {
                let mut knots: Vec<(f64, f64)> = Vec::new();
                for pair in rest.split_whitespace() {
                    let (x, y) = pair
                        .split_once(':')
                        .ok_or_else(|| format!("bad knot {pair:?}"))?;
                    let knot = (parse::<f64>(x)?, parse::<f64>(y)?);
                    // `PiecewiseLinear::new` panics on these; a load must
                    // not.
                    if !(knot.0.is_finite() && knot.1.is_finite()) {
                        return Err(format!("non-finite knot {pair:?}"));
                    }
                    if knots.last().is_some_and(|&(last, _)| last >= knot.0) {
                        return Err(format!("knot {pair:?} does not increase in x"));
                    }
                    knots.push(knot);
                }
                if knots.is_empty() {
                    return Err("empty fpf knot list".into());
                }
                self.fpf = Some(PiecewiseLinear::new(knots));
            }
            "config" => {
                let mut cfg = EpfisConfig::default();
                for kv in rest.split_whitespace() {
                    let (k, v) = kv
                        .split_once('=')
                        .ok_or_else(|| format!("bad config item {kv:?}"))?;
                    match k {
                        "b_sml" => cfg.b_sml = parse(v)?,
                        "segments" => cfg.segments = parse(v)?,
                        "grid" => {
                            cfg.grid = if v == "arith" {
                                GridStrategy::Arithmetic
                            } else if let Some(p) = v.strip_prefix("geom:") {
                                GridStrategy::Geometric { points: parse(p)? }
                            } else {
                                return Err(format!("bad grid {v:?}"));
                            }
                        }
                        "phi" => {
                            cfg.phi_mode = match v {
                                "max" => PhiMode::PaperMax,
                                "min" => PhiMode::ProseMin,
                                _ => return Err(format!("bad phi {v:?}")),
                            }
                        }
                        "corr" => cfg.enable_correction = parse::<u8>(v)? != 0,
                        "sarg" => cfg.enable_sargable_model = parse::<u8>(v)? != 0,
                        "range" => {
                            cfg.modeling_range = if v == "auto" {
                                None
                            } else {
                                let (lo, hi) = v
                                    .split_once(',')
                                    .ok_or_else(|| format!("bad range {v:?}"))?;
                                Some((parse(lo)?, parse(hi)?))
                            }
                        }
                        _ => return Err(format!("unknown config key {k:?}")),
                    }
                }
                self.config = Some(cfg);
            }
            _ => return Err(format!("unknown field {keyword:?}")),
        }
        Ok(())
    }

    fn build(self) -> Option<IndexStatistics> {
        Some(IndexStatistics {
            table_pages: self.table_pages?,
            records: self.records?,
            distinct_keys: self.distinct_keys?,
            distinct_pages: self.distinct_pages?,
            clustering_factor: self.clustering_factor?,
            b_min: self.b_min?,
            b_max: self.b_max?,
            fpf: self.fpf?,
            config: self.config?,
        })
    }
}

fn parse<T: std::str::FromStr>(s: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    s.parse().map_err(|e| format!("cannot parse {s:?}: {e}"))
}

/// The concurrently shared catalog: `Arc` snapshots for readers, serialized
/// copy-persist-swap commits for writers, optional durability to a file.
pub struct SharedCatalog {
    current: RwLock<Arc<VersionedCatalog>>,
    path: Option<PathBuf>,
    commit_lock: Mutex<()>,
    logger: Arc<epfis_obs::Logger>,
    /// The filesystem the persist path writes through; `StdVfs` unless a
    /// fault-injecting test (or the `EPFIS_FAULTS` env hook) swapped one in.
    vfs: Arc<dyn Vfs>,
    /// Commits whose atomic save failed (the in-memory snapshot and the
    /// old on-disk file were both left untouched).
    persist_failures: AtomicU64,
    // The published catalog's epoch, readable without the lock. A reader
    // holding a snapshot compares this against the snapshot's epoch to
    // decide — lock-free — whether a cached entry handle is still current
    // (the binary `ESTIMATE` fast path revalidates on every request).
    epoch_hint: AtomicU64,
}

impl SharedCatalog {
    /// An in-memory catalog (no persistence).
    pub fn in_memory() -> Self {
        Self::in_memory_with_vfs(StdVfs::shared())
    }

    /// [`in_memory`](SharedCatalog::in_memory) with an explicit filesystem:
    /// nothing persists, but a WAL opened beside it writes through `vfs`.
    pub fn in_memory_with_vfs(vfs: Arc<dyn Vfs>) -> Self {
        Self::with(VersionedCatalog::new(), None, vfs)
    }

    fn with(initial: VersionedCatalog, path: Option<PathBuf>, vfs: Arc<dyn Vfs>) -> Self {
        SharedCatalog {
            epoch_hint: AtomicU64::new(initial.epoch()),
            current: RwLock::new(Arc::new(initial)),
            path,
            commit_lock: Mutex::new(()),
            logger: Arc::new(epfis_obs::Logger::disabled()),
            vfs,
            persist_failures: AtomicU64::new(0),
        }
    }

    /// Opens a durable catalog at `path`, reloading the last atomically
    /// persisted version if the file exists.
    pub fn open(path: impl Into<PathBuf>) -> io::Result<Self> {
        Self::open_with_vfs(path, StdVfs::shared())
    }

    /// [`open`](SharedCatalog::open) with an explicit filesystem; tests
    /// pass a `FaultVfs` to script persist failures.
    pub fn open_with_vfs(path: impl Into<PathBuf>, vfs: Arc<dyn Vfs>) -> io::Result<Self> {
        let path = path.into();
        let initial = match vfs.read(&path) {
            Ok(bytes) => {
                let text = String::from_utf8(bytes)
                    .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
                VersionedCatalog::from_text_checksummed(&text)?
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => VersionedCatalog::new(),
            Err(e) => return Err(e),
        };
        Ok(Self::with(initial, Some(path), vfs))
    }

    /// The filesystem the catalog persists through; [`ServerWal::open`]
    /// puts the WAL on the same one.
    ///
    /// [`ServerWal::open`]: crate::ServerWal::open
    pub(crate) fn vfs(&self) -> &Arc<dyn Vfs> {
        &self.vfs
    }

    /// Attaches a logger; each commit then emits a `catalog commit` span
    /// covering build + atomic save + publish.
    pub fn set_logger(&mut self, logger: Arc<epfis_obs::Logger>) {
        self.logger = logger;
    }

    /// A point-in-time snapshot. O(1): clones the `Arc`, never the entries.
    pub fn snapshot(&self) -> Arc<VersionedCatalog> {
        self.current
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    /// The epoch of the most recently published catalog, read without any
    /// lock. A snapshot whose [`VersionedCatalog::epoch`] equals this hint
    /// is current; a mismatch means a commit landed and the caller should
    /// re-[`snapshot`](SharedCatalog::snapshot). The hint is published
    /// *after* the `Arc` swap, so a fresh snapshot is always at least as new
    /// as the hint says.
    pub fn epoch_hint(&self) -> u64 {
        self.epoch_hint.load(Ordering::Acquire)
    }

    /// Commits whose atomic persist failed. Each failure left the in-memory
    /// snapshot and the old on-disk file untouched.
    pub fn persist_failures(&self) -> u64 {
        self.persist_failures.load(Ordering::Relaxed)
    }

    /// Re-persists the current snapshot to verify the storage under the
    /// catalog path is writable again (the `RECOVER` probe). A no-op
    /// `Ok(())` for in-memory catalogs.
    pub fn probe_persist(&self) -> io::Result<()> {
        let _serialize = self.commit_lock.lock().unwrap_or_else(|e| e.into_inner());
        self.persist(&self.snapshot())
    }

    /// Atomically writes `catalog` to the file, if durable; a failure is
    /// counted and worded `catalog persist failed`.
    fn persist(&self, catalog: &VersionedCatalog) -> io::Result<()> {
        let Some(path) = &self.path else {
            return Ok(());
        };
        write_atomic(self.vfs.as_ref(), path, &catalog.to_text_checksummed()).map_err(|e| {
            self.persist_failures.fetch_add(1, Ordering::Relaxed);
            io::Error::new(e.kind(), format!("catalog persist failed: {e}"))
        })
    }

    /// Commits a new analysis for `name`: builds the successor catalog,
    /// persists it atomically (when durable), then publishes it. Returns the
    /// new epoch.
    ///
    /// Commits are serialized with each other but never make a reader wait
    /// for I/O: the `current` write lock is held only for the `Arc` swap.
    pub fn commit(
        &self,
        name: &str,
        stats: IndexStatistics,
        counters: Option<BaselineCounters>,
    ) -> io::Result<u64> {
        self.commit_analyzed(name, stats, counters, unix_now(), None)
    }

    /// [`commit`](SharedCatalog::commit) with an explicit `analyzed_at`
    /// timestamp and, optionally, the WAL session the entry comes from. With
    /// a WAL this write is the session's commit point: once the file is
    /// renamed, replay finds `session=S` on the entry and counts the
    /// session as ended.
    pub fn commit_analyzed(
        &self,
        name: &str,
        stats: IndexStatistics,
        counters: Option<BaselineCounters>,
        analyzed_at: u64,
        session: Option<u64>,
    ) -> io::Result<u64> {
        let _serialize = self.commit_lock.lock().unwrap_or_else(|e| e.into_inner());
        let mut span = self
            .logger
            .span(epfis_obs::Level::Info, "catalog", "commit")
            .field("entry", name)
            .field("durable", self.path.is_some());
        let mut next = (*self.snapshot()).clone();
        let epoch = next
            .insert_from(name.to_string(), stats, analyzed_at, counters, session)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?;
        self.persist(&next)?;
        *self.current.write().unwrap_or_else(|e| e.into_inner()) = Arc::new(next);
        self.epoch_hint.store(epoch, Ordering::Release);
        span.add_field("epoch", epoch);
        Ok(epoch)
    }
}

pub(crate) fn unix_now() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use epfis::LruFit;
    use epfis_lrusim::KeyedTrace;

    fn stats(seed: u32) -> IndexStatistics {
        let pages: Vec<u32> = (0..1200u32)
            .map(|i| (i.wrapping_mul(2654435761).wrapping_add(seed)) % 90)
            .collect();
        LruFit::new(EpfisConfig::default()).collect(&KeyedTrace::all_distinct(pages, 90))
    }

    fn tmp(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("epfis-server-catalog-test");
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join(format!("{tag}.scat"));
        std::fs::remove_file(&p).ok();
        p
    }

    /// The entry blocks for `entries` under their header: on its own, the
    /// bare file older `epfis analyze` runs wrote.
    fn bare_text(entries: &[(&str, &IndexStatistics)]) -> String {
        let mut out = format!("{BARE_HEADER}\n");
        for (name, stats) in entries {
            write_entry(&mut out, name, stats).unwrap();
        }
        out
    }

    /// A two-entry catalog with counters, a session and a non-default
    /// config: every optional item of the format is present.
    fn two_entries() -> VersionedCatalog {
        let pages: Vec<u32> = (0..600u32).map(|i| i % 60).collect();
        let cfg = EpfisConfig::default()
            .with_segments(4)
            .with_grid(GridStrategy::Geometric { points: 9 })
            .with_modeling_range(12, 50)
            .without_correction();
        let geo = LruFit::new(cfg).collect(&KeyedTrace::all_distinct(pages, 60));
        let mut c = VersionedCatalog::new();
        c.insert_from("a.x".into(), stats(1), 111, Some(counters(7)), Some(4))
            .unwrap();
        c.insert("b.y", geo, 222, None).unwrap();
        c
    }

    #[test]
    fn text_round_trip_preserves_entries_and_epochs() {
        let mut c = VersionedCatalog::new();
        c.insert("a.x", stats(1), 111, None).unwrap();
        c.insert("b.y", stats(2), 222, None).unwrap();
        c.insert("a.x", stats(3), 333, None).unwrap(); // re-analyze bumps epoch
        assert_eq!(c.epoch(), 3);
        let back = VersionedCatalog::from_text(&c.to_text()).unwrap();
        assert_eq!(back.epoch(), 3);
        assert_eq!(back.len(), 2);
        assert_eq!(back.get("a.x").unwrap().epoch, 3);
        assert_eq!(back.get("a.x").unwrap().analyzed_at, 333);
        assert_eq!(back.get("b.y").unwrap().epoch, 2);
        assert_eq!(back.get("a.x").unwrap().stats, c.get("a.x").unwrap().stats);
    }

    fn counters(seed: u64) -> BaselineCounters {
        BaselineCounters {
            cluster_counter: seed,
            fetches_b1: 1000 + seed,
            fetches_b3: 900 + seed,
        }
    }

    #[test]
    fn baseline_counters_round_trip_on_the_meta_line() {
        let mut c = VersionedCatalog::new();
        c.insert("a.x", stats(1), 111, Some(counters(7))).unwrap();
        c.insert("b.y", stats(2), 222, None).unwrap();
        let text = c.to_text();
        assert!(
            text.contains(
                "meta a.x epoch=1 analyzed_at=111 cluster_counter=7 fetches_b1=1007 fetches_b3=907\n"
            ),
            "{text}"
        );
        assert!(
            text.contains("meta b.y epoch=2 analyzed_at=222\n"),
            "{text}"
        );
        let back = VersionedCatalog::from_text(&text).unwrap();
        assert_eq!(back.get("a.x").unwrap().counters, Some(counters(7)));
        assert_eq!(back.get("b.y").unwrap().counters, None);
        assert_eq!(back.to_text(), text);

        // The three counters come together or not at all.
        let partial = text.replace(" fetches_b3=907", "");
        let err = VersionedCatalog::from_text(&partial).err().unwrap();
        assert!(
            err.to_string().contains("some of the baseline counters"),
            "{err}"
        );
        let bad = text.replace("fetches_b1=1007", "fetches_b1=x");
        let err = VersionedCatalog::from_text(&bad).err().unwrap();
        assert!(err.to_string().contains("bad meta fetches_b1"), "{err}");
    }

    /// A file in the format from before entries carried baseline counters
    /// opens unchanged: `SHOW`, `ESTIMATE` and `EXPLAIN` answer as before,
    /// and `COMPARE` asks for a re-`ANALYZE`.
    #[test]
    fn a_catalog_without_baseline_counters_serves_and_compare_asks_for_reanalyze() {
        use crate::{serve, server::scan_query, Client, ClientError, ServerConfig};

        let body = format!(
            "{HEADER}\nepoch 1\nmeta old.ix epoch=1 analyzed_at=111\n{SEPARATOR}\n{}",
            bare_text(&[("old.ix", &stats(1))])
        );
        let text = format!("{body}crc32c {:08x}\n", epfis_wal::crc32c(body.as_bytes()));
        let loaded = VersionedCatalog::from_text_checksummed(&text).unwrap();
        assert_eq!(loaded.get("old.ix").unwrap().counters, None);
        // Re-persisting an entry without counters writes the same bytes.
        assert_eq!(loaded.to_text_checksummed(), text);

        let path = tmp("pre-counters");
        std::fs::write(&path, &text).unwrap();
        let server = serve(ServerConfig {
            catalog_path: Some(path.clone()),
            ..ServerConfig::default()
        })
        .unwrap();
        let mut c = Client::connect(server.addr()).unwrap();
        let s = stats(1);
        assert_eq!(
            c.request("SHOW").unwrap(),
            vec![format!(
                "old.ix epoch=1 analyzed_at=111 T={} N={} I={} C={} segments={}",
                s.table_pages,
                s.records,
                s.distinct_keys,
                s.clustering_factor,
                s.fpf.segments()
            )]
        );
        let q = scan_query(0.3, 20, 1.0).unwrap();
        assert_eq!(
            c.request("ESTIMATE old.ix 0.3 20").unwrap(),
            vec![format!("{}", s.estimate(&q))]
        );
        assert_eq!(
            c.request("EXPLAIN ESTIMATE old.ix 0.3 20").unwrap(),
            loaded.get("old.ix").unwrap().explain("old.ix", &q)
        );
        match c.request("COMPARE old.ix") {
            Err(ClientError::Server(msg)) => assert!(msg.contains("re-ANALYZE"), "{msg}"),
            other => panic!("COMPARE without counters must fail, got {other:?}"),
        }
        server.shutdown_and_join();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), text);
    }

    /// The load error for `text`, as a string.
    fn load_err(text: &str) -> String {
        VersionedCatalog::from_text(text)
            .expect_err("text must not load")
            .to_string()
    }

    #[test]
    fn malformed_texts_are_rejected() {
        assert!(VersionedCatalog::from_text("").is_err());
        assert!(VersionedCatalog::from_text("wrong header\n").is_err());
        // Missing epoch line.
        let err = load_err(&format!("{HEADER}\n{SEPARATOR}\n{BARE_HEADER}\n"));
        assert!(err.contains("missing global epoch line"), "{err}");
        // Missing separator, and the entry header missing after it.
        let err = load_err(&format!("{HEADER}\nepoch 1\n"));
        assert!(err.contains("no \"---\" line"), "{err}");
        let err = load_err(&format!("{HEADER}\nepoch 1\n{SEPARATOR}\nindex ix\n"));
        assert!(err.contains("parse error at line 4: expected"), "{err}");
        // Meta naming a non-existent entry.
        let err = load_err(&format!(
            "{HEADER}\nepoch 1\nmeta ghost epoch=1 analyzed_at=0\n{SEPARATOR}\n{BARE_HEADER}\n"
        ));
        assert!(
            err.contains("parse error at line 3: meta for unknown entry \"ghost\""),
            "{err}"
        );
        // Entry without meta.
        let mut c = VersionedCatalog::new();
        c.insert("ix", stats(1), 0, None).unwrap();
        let text = c.to_text().replace("meta ix epoch=1 analyzed_at=0\n", "");
        assert!(load_err(&text).contains("entry \"ix\" has no meta line"));
        // Knots `PiecewiseLinear::new` would panic on fail the load instead.
        for (knots, why) in [
            ("1:4 1:3", "does not increase"),
            ("2:4 1:3", "does not increase"),
            ("1:4 2:inf", "non-finite"),
            ("NaN:4", "non-finite"),
        ] {
            let text = c.to_text();
            let fpf = text.lines().find(|l| l.starts_with("fpf ")).unwrap();
            let text = text.replace(fpf, &format!("fpf {knots}"));
            assert!(load_err(&text).contains(why), "{knots}");
        }
    }

    #[test]
    fn round_trip_is_exact() {
        let c = two_entries();
        let back = VersionedCatalog::from_text(&c.to_text()).unwrap();
        assert_eq!(back, c);
        assert_eq!(back.to_text(), c.to_text());
    }

    #[test]
    fn round_trip_preserves_estimates_exactly() {
        let mut c = VersionedCatalog::new();
        c.insert("ix", stats(3), 0, None).unwrap();
        let back = VersionedCatalog::from_text_checksummed(&c.to_text_checksummed()).unwrap();
        let q = ScanQuery::range(0.123, 37).with_sargable(0.4);
        assert_eq!(
            c.get("ix").unwrap().stats.estimate(&q).to_bits(),
            back.get("ix").unwrap().stats.estimate(&q).to_bits()
        );
    }

    #[test]
    fn non_default_config_round_trips() {
        let c = two_entries();
        let text = c.to_text();
        assert!(
            text.contains(
                "\nconfig b_sml=12 segments=4 grid=geom:9 phi=max corr=0 sarg=1 range=12,50\n"
            ),
            "{text}"
        );
        let back = VersionedCatalog::from_text(&text).unwrap();
        assert_eq!(back, c);
        assert_eq!(
            back.get("b.y").unwrap().stats.config.modeling_range,
            Some((12, 50))
        );
    }

    #[test]
    fn insert_replaces_and_bumps_the_epoch() {
        let mut c = VersionedCatalog::new();
        assert!(c.is_empty());
        assert_eq!(c.insert("a", stats(1), 10, None).unwrap(), 1);
        assert_eq!(c.insert("a", stats(2), 20, None).unwrap(), 2);
        assert_eq!(c.len(), 1);
        let a = c.get("a").unwrap();
        assert_eq!((a.epoch, a.analyzed_at), (2, 20));
        assert_eq!(a.stats, stats(2));
        assert!(c.get("b").is_none());
    }

    #[test]
    fn names_with_whitespace_rejected() {
        let mut c = VersionedCatalog::new();
        for name in ["has space", "", "tab\there", "nl\n"] {
            assert_eq!(
                c.insert(name, stats(1), 0, None),
                Err(format!("invalid index name {name:?}"))
            );
        }
        assert_eq!(c.epoch(), 0);
        // Nor does a file carry one.
        let text = bare_text(&[("ok", &stats(1))]).replace("index ok", "index has space");
        assert!(load_err(&text).contains("invalid index name \"has space\""));
    }

    #[test]
    fn bad_header_rejected() {
        assert!(load_err("something else\n").contains("bad catalog header: \"something else\""));
        assert!(load_err("").contains("bad catalog header: \"\""));
    }

    #[test]
    fn truncated_entry_rejected() {
        let text = bare_text(&[("ix", &stats(1))]);
        // Drop the trailing "end" line.
        let truncated = text.trim_end().trim_end_matches("end");
        assert!(load_err(truncated).contains("incomplete catalog entry \"ix\""));
        let text = two_entries().to_text();
        let truncated = text.trim_end().trim_end_matches("end");
        assert!(load_err(truncated).contains("incomplete catalog entry \"b.y\""));
    }

    #[test]
    fn missing_field_rejected() {
        let err = load_err(&format!("{BARE_HEADER}\nindex ix\ntable_pages 10\nend\n"));
        assert!(
            err.starts_with("parse error at line 4: incomplete catalog entry \"ix\""),
            "{err}"
        );
    }

    #[test]
    fn garbage_field_rejected_with_line_number_and_text() {
        let err = load_err(&format!("{BARE_HEADER}\nindex ix\nwat 7\nend\n"));
        assert!(err.starts_with("parse error at line 3: "), "{err}");
        assert!(err.ends_with("(in \"wat 7\")"), "{err}");
        for (text, what) in [
            (format!("{BARE_HEADER}\nend\n"), "'end' without entry"),
            (
                format!("{BARE_HEADER}\nrecords 5\n"),
                "field \"records\" outside entry",
            ),
            (
                format!("{BARE_HEADER}\nindex a\nindex b\n"),
                "new entry before previous 'end'",
            ),
        ] {
            let err = load_err(&text);
            assert!(err.contains(what), "{err}");
        }
    }

    #[test]
    fn parse_error_display_names_the_offending_line() {
        let err = load_err(&format!(
            "{BARE_HEADER}\nindex ix\ntable_pages eleven\nend\n"
        ));
        assert!(err.contains("line 3"), "{err}");
        assert!(err.contains("table_pages eleven"), "{err}");
    }

    /// Line numbers count the whole file — header and `meta` lines
    /// included — not the entry section alone.
    #[test]
    fn parse_errors_name_the_file_line() {
        let text = two_entries().to_text();
        // Header, epoch, two meta lines, separator, entry header, then the
        // first block's eleven lines: b.y's `records` is line 20.
        let mut lines: Vec<&str> = text.lines().collect();
        assert!(lines[19].starts_with("records "), "{text}");
        lines[19] = "records x600";
        let err = load_err(&lines.join("\n"));
        assert!(
            err.starts_with("parse error at line 20: cannot parse \"x600\""),
            "{err}"
        );
        // A bad meta item names its line too.
        let err = load_err(&text.replace("analyzed_at=222", "analyzed_at=soon"));
        assert!(
            err.starts_with("parse error at line 4: bad meta analyzed_at"),
            "{err}"
        );
    }

    #[test]
    fn duplicate_names_rejected() {
        let ix = stats(1);
        let err = load_err(&bare_text(&[("ix", &ix), ("ix", &ix)]));
        assert!(err.contains("duplicate index name \"ix\""), "{err}");
        // A second block under one meta line is the same error, not a
        // missing meta line.
        let mut c = VersionedCatalog::new();
        c.insert("ix", ix.clone(), 0, None).unwrap();
        let mut text = c.to_text();
        write_entry(&mut text, "ix", &ix).unwrap();
        assert!(load_err(&text).contains("duplicate index name \"ix\""));
    }

    /// A name has one `meta` line: a second one no longer wins silently.
    #[test]
    fn a_second_meta_line_for_a_name_is_rejected() {
        let text = format!(
            "{HEADER}\nepoch 9\nmeta a.k epoch=1 analyzed_at=1\nmeta a.k epoch=9 analyzed_at=5\n{SEPARATOR}\n{}",
            bare_text(&[("a.k", &stats(1))])
        );
        let err = load_err(&text);
        assert!(
            err.starts_with("parse error at line 4: second meta line for \"a.k\""),
            "{err}"
        );
        assert!(
            VersionedCatalog::from_text(&text.replace("meta a.k epoch=1 analyzed_at=1\n", ""))
                .is_ok()
        );
    }

    /// An entry's epoch orders it against every commit, so it cannot
    /// exceed the catalog's.
    #[test]
    fn an_entry_epoch_above_the_catalog_epoch_is_rejected() {
        let text = format!(
            "{HEADER}\nepoch 1\nmeta a.k epoch=9 analyzed_at=5\n{SEPARATOR}\n{}",
            bare_text(&[("a.k", &stats(1))])
        );
        let err = load_err(&text);
        assert!(
            err.starts_with(
                "parse error at line 3: meta \"a.k\" epoch=9 is above the catalog epoch 1"
            ),
            "{err}"
        );
        let at_the_epoch = text.replace("epoch 1\n", "epoch 9\n");
        assert_eq!(
            VersionedCatalog::from_text(&at_the_epoch)
                .unwrap()
                .get("a.k")
                .unwrap()
                .epoch,
            9
        );
    }

    /// Written by `epfis analyze` (t.k) and then a `--wal-dir` server's
    /// `ANALYZE` session (v.ix): counters on both, a session on one.
    const WITH_SESSION: &str = "epfis-server-catalog v1\n\
    epoch 2\n\
    meta t.k epoch=1 analyzed_at=1792398476 cluster_counter=0 fetches_b1=296 fetches_b3=137\n\
    meta v.ix epoch=2 analyzed_at=1792398476 cluster_counter=3 fetches_b1=4 fetches_b3=4 session=1\n\
    ---\n\
    epfis-catalog v1\n\
    index t.k\n\
    table_pages 20\n\
    records 400\n\
    distinct_keys 40\n\
    distinct_pages 20\n\
    clustering_factor 0.9921052631578947\n\
    b_min 12\n\
    b_max 20\n\
    fpf 12:23 17:20 20:20\n\
    config b_sml=12 segments=6 grid=arith phi=max corr=1 sarg=1 range=auto\n\
    end\n\
    index v.ix\n\
    table_pages 4\n\
    records 5\n\
    distinct_keys 4\n\
    distinct_pages 4\n\
    clustering_factor 1\n\
    b_min 4\n\
    b_max 4\n\
    fpf 4:4\n\
    config b_sml=12 segments=6 grid=arith phi=max corr=1 sarg=1 range=auto\n\
    end\n\
    crc32c 8a0c2908\n";

    /// Written through `VersionedCatalog::to_text_checksummed` for entries
    /// without baseline counters, one with every config item non-default.
    const WITHOUT_COUNTERS: &str = "epfis-server-catalog v1\n\
    epoch 2\n\
    meta g.ix epoch=1 analyzed_at=1792398000\n\
    meta t.k epoch=2 analyzed_at=1792398476\n\
    ---\n\
    epfis-catalog v1\n\
    index g.ix\n\
    table_pages 12\n\
    records 60\n\
    distinct_keys 60\n\
    distinct_pages 12\n\
    clustering_factor 0\n\
    b_min 2\n\
    b_max 9\n\
    fpf 2:60 9:60\n\
    config b_sml=12 segments=3 grid=geom:5 phi=min corr=0 sarg=1 range=2,9\n\
    end\n\
    index t.k\n\
    table_pages 20\n\
    records 400\n\
    distinct_keys 40\n\
    distinct_pages 20\n\
    clustering_factor 0.9921052631578947\n\
    b_min 12\n\
    b_max 20\n\
    fpf 12:23 17:20 20:20\n\
    config b_sml=12 segments=6 grid=arith phi=max corr=1 sarg=1 range=auto\n\
    end\n\
    crc32c 2ad55038\n";

    /// Written by a build that kept the `wal_committed` watermark (the
    /// same two commits as [`WITH_SESSION`], before entries named their
    /// session).
    const WITH_WAL_COMMITTED: &str = "epfis-server-catalog v1\n\
    epoch 2\n\
    wal_committed 1\n\
    meta t.k epoch=1 analyzed_at=1792398433 cluster_counter=0 fetches_b1=296 fetches_b3=137\n\
    meta v.ix epoch=2 analyzed_at=1792398433 cluster_counter=3 fetches_b1=4 fetches_b3=4\n\
    ---\n\
    epfis-catalog v1\n\
    index t.k\n\
    table_pages 20\n\
    records 400\n\
    distinct_keys 40\n\
    distinct_pages 20\n\
    clustering_factor 0.9921052631578947\n\
    b_min 12\n\
    b_max 20\n\
    fpf 12:23 17:20 20:20\n\
    config b_sml=12 segments=6 grid=arith phi=max corr=1 sarg=1 range=auto\n\
    end\n\
    index v.ix\n\
    table_pages 4\n\
    records 5\n\
    distinct_keys 4\n\
    distinct_pages 4\n\
    clustering_factor 1\n\
    b_min 4\n\
    b_max 4\n\
    fpf 4:4\n\
    config b_sml=12 segments=6 grid=arith phi=max corr=1 sarg=1 range=auto\n\
    end\n\
    crc32c 89b3c59a\n";

    /// The bare format older `epfis analyze` runs wrote: the entry
    /// section alone.
    const BARE: &str = "epfis-catalog v1\n\
    index t.k\n\
    table_pages 20\n\
    records 400\n\
    distinct_keys 40\n\
    distinct_pages 20\n\
    clustering_factor 0.9921052631578947\n\
    b_min 12\n\
    b_max 20\n\
    fpf 12:23 17:20 20:20\n\
    config b_sml=12 segments=6 grid=arith phi=max corr=1 sarg=1 range=auto\n\
    end\n\
    index v.ix\n\
    table_pages 4\n\
    records 5\n\
    distinct_keys 4\n\
    distinct_pages 4\n\
    clustering_factor 1\n\
    b_min 4\n\
    b_max 4\n\
    fpf 4:4\n\
    config b_sml=12 segments=6 grid=arith phi=max corr=1 sarg=1 range=auto\n\
    end\n";

    /// Files as earlier builds wrote them load, and the server-format ones
    /// re-render byte for byte (the `wal_committed` line is dropped): the
    /// format is pinned across builds.
    #[test]
    fn files_earlier_builds_wrote_load_and_re_render_byte_identical() {
        for file in [WITH_SESSION, WITHOUT_COUNTERS] {
            let loaded = VersionedCatalog::from_text_checksummed(file).unwrap();
            assert_eq!(loaded.to_text_checksummed(), file);
        }
        let with_session = VersionedCatalog::from_text_checksummed(WITH_SESSION).unwrap();
        let v = with_session.get("v.ix").unwrap();
        assert_eq!((v.epoch, v.session), (2, Some(1)));
        assert_eq!(
            v.counters,
            Some(BaselineCounters {
                cluster_counter: 3,
                fetches_b1: 4,
                fetches_b3: 4
            })
        );
        let g = VersionedCatalog::from_text_checksummed(WITHOUT_COUNTERS).unwrap();
        let g = g.get("g.ix").unwrap();
        assert_eq!(g.counters, None);
        assert_eq!(g.stats.config.grid, GridStrategy::Geometric { points: 5 });
        assert_eq!(g.stats.config.phi_mode, PhiMode::ProseMin);

        let watermarked = VersionedCatalog::from_text_checksummed(WITH_WAL_COMMITTED).unwrap();
        let dropped: String = WITH_WAL_COMMITTED
            .lines()
            .filter(|l| !l.starts_with("wal_committed ") && !l.starts_with("crc32c "))
            .map(|l| format!("{l}\n"))
            .collect();
        assert_eq!(watermarked.to_text(), dropped);
        for (name, entry) in watermarked.iter() {
            let now = with_session.get(name).unwrap();
            assert_eq!((&entry.stats, entry.counters), (&now.stats, now.counters));
            assert_eq!(entry.session, None);
        }

        let bare = VersionedCatalog::from_text_checksummed(BARE).unwrap();
        assert_eq!(bare.epoch(), 0);
        assert!(bare
            .iter()
            .all(|(_, e)| (e.epoch, e.analyzed_at, e.counters) == (0, 0, None)));
        let text = bare.to_text();
        assert_eq!(&text[text.find(SEPARATOR).unwrap() + 4..], BARE);
    }

    /// A file an older build wrote, with its `wal_committed` watermark line,
    /// opens with every entry intact and re-persists without the line.
    #[test]
    fn legacy_wal_committed_line_loads_and_is_dropped_on_persist() {
        let body = format!(
            "{HEADER}\nepoch 3\nwal_committed 7\nmeta old.ix epoch=3 analyzed_at=111\n{SEPARATOR}\n{}",
            bare_text(&[("old.ix", &stats(1))])
        );
        let text = format!("{body}crc32c {:08x}\n", epfis_wal::crc32c(body.as_bytes()));
        let path = tmp("legacy-watermark");
        std::fs::write(&path, &text).unwrap();

        let shared = SharedCatalog::open(&path).unwrap();
        let snap = shared.snapshot();
        assert_eq!(snap.epoch(), 3);
        assert_eq!(snap.max_session(), 0);
        let old = snap.get("old.ix").unwrap();
        assert_eq!((old.epoch, old.analyzed_at, old.session), (3, 111, None));
        assert_eq!(old.stats, stats(1));

        shared.commit("new.ix", stats(2), None).unwrap();
        let persisted = std::fs::read_to_string(&path).unwrap();
        assert!(!persisted.contains("wal_committed"), "{persisted}");
        assert!(
            persisted.starts_with(&format!("{HEADER}\nepoch 4\nmeta new.ix epoch=4 ")),
            "{persisted}"
        );
        let reopened = SharedCatalog::open(&path).unwrap().snapshot();
        assert_eq!(reopened.get("old.ix").unwrap().stats, stats(1));
        assert_eq!(reopened.get("new.ix").unwrap().stats, stats(2));
    }

    #[test]
    fn checksummed_round_trip_and_tamper_detection() {
        let mut c = VersionedCatalog::new();
        c.insert("a.x", stats(1), 100, None).unwrap();
        let text = c.to_text_checksummed();
        let back = VersionedCatalog::from_text_checksummed(&text).unwrap();
        assert_eq!(back.epoch(), 1);
        assert_eq!(back.get("a.x").unwrap().stats, c.get("a.x").unwrap().stats);

        // Any flipped byte in the body — even deep inside a float — must
        // surface as the distinct checksum error, not a parse error.
        for pos in [0, text.len() / 3, text.len() / 2] {
            let mut bytes = text.clone().into_bytes();
            bytes[pos] ^= 0x20;
            let tampered = String::from_utf8(bytes).unwrap();
            let err = VersionedCatalog::from_text_checksummed(&tampered)
                .expect_err("tampered text must not parse");
            assert_eq!(err.to_string(), "catalog checksum mismatch", "pos={pos}");
        }
        // A damaged footer is a mismatch too.
        let torn = format!("{}crc32c 12a\n", c.to_text());
        let err = VersionedCatalog::from_text_checksummed(&torn)
            .expect_err("damaged footer must not parse");
        assert_eq!(err.to_string(), "catalog checksum mismatch");
        // A footer-less (pre-checksum) file still parses.
        let legacy = VersionedCatalog::from_text_checksummed(&c.to_text()).unwrap();
        assert_eq!(legacy.epoch(), 1);
    }

    #[test]
    fn durable_files_carry_the_footer_and_reject_tampering() {
        let path = tmp("checksum");
        let shared = SharedCatalog::open(&path).unwrap();
        shared.commit("t.k", stats(7), None).unwrap();
        let persisted = std::fs::read_to_string(&path).unwrap();
        let last = persisted.trim_end().lines().last().unwrap();
        assert!(last.starts_with("crc32c "), "missing footer: {last:?}");
        assert!(SharedCatalog::open(&path).is_ok());

        let tampered = persisted.replace("epoch 1", "epoch 2");
        std::fs::write(&path, tampered).unwrap();
        let err = SharedCatalog::open(&path)
            .err()
            .expect("tampered file must not load");
        assert_eq!(err.to_string(), "catalog checksum mismatch");
    }

    #[test]
    fn legacy_core_file_opens_at_epoch_zero_and_the_first_commit_rewrites_it() {
        let legacy = bare_text(&[("old.ix", &stats(1))]);
        let mapped = VersionedCatalog::from_text_checksummed(&legacy).unwrap();
        assert_eq!(mapped.epoch(), 0);
        let old = mapped.get("old.ix").unwrap();
        assert_eq!((old.epoch, old.analyzed_at, old.session), (0, 0, None));
        assert_eq!(old.stats, stats(1));

        let path = tmp("legacy");
        std::fs::write(&path, &legacy).unwrap();
        let shared = SharedCatalog::open(&path).unwrap();
        assert_eq!(shared.epoch_hint(), 0);
        assert_eq!(shared.commit("new.ix", stats(2), None).unwrap(), 1);
        let persisted = std::fs::read_to_string(&path).unwrap();
        assert!(
            persisted.starts_with(&format!("{HEADER}\nepoch 1\nmeta new.ix epoch=1 ")),
            "{persisted}"
        );
        let legacy_meta = format!("\nmeta old.ix epoch=0 analyzed_at=0\n{SEPARATOR}\n");
        assert!(persisted.contains(&legacy_meta), "{persisted}");
        let last = persisted.trim_end().lines().last().unwrap();
        assert!(last.starts_with("crc32c "), "missing footer: {last:?}");
        let reopened = SharedCatalog::open(&path).unwrap().snapshot();
        assert_eq!(reopened.len(), 2);
        assert_eq!(reopened.get("old.ix").unwrap().stats, stats(1));
        assert_eq!(reopened.get("new.ix").unwrap().stats, stats(2));
    }

    /// `commit_analyzed` pins the timestamp and records the session on the
    /// entry's `meta` line, which survives a reopen; a plain commit records
    /// none, and the line without it is unchanged.
    #[test]
    fn commit_analyzed_pins_timestamp_and_session() {
        let path = tmp("session");
        let shared = SharedCatalog::open(&path).unwrap();
        shared
            .commit_analyzed("ix", stats(1), Some(counters(3)), 1234, Some(9))
            .unwrap();
        shared
            .commit_analyzed("ix2", stats(2), None, 55, None)
            .unwrap();
        let snap = shared.snapshot();
        assert_eq!(snap.get("ix").unwrap().analyzed_at, 1234);
        assert_eq!(snap.get("ix").unwrap().session, Some(9));
        assert_eq!(snap.get("ix2").unwrap().session, None);
        assert_eq!(snap.max_session(), 9);

        let text = std::fs::read_to_string(&path).unwrap();
        assert!(
            text.contains(
                "meta ix epoch=1 analyzed_at=1234 cluster_counter=3 fetches_b1=1003 fetches_b3=903 session=9\n"
            ),
            "{text}"
        );
        assert!(text.contains("meta ix2 epoch=2 analyzed_at=55\n"), "{text}");
        let reopened = SharedCatalog::open(&path).unwrap().snapshot();
        assert_eq!(reopened.get("ix").unwrap().session, Some(9));
        assert_eq!(reopened.get("ix2").unwrap().session, None);
        assert_eq!(reopened.to_text(), snap.to_text());

        let bad = text.replace("session=9", "session=x");
        let err = VersionedCatalog::from_text_checksummed(&bad).err().unwrap();
        assert_eq!(err.to_string(), "catalog checksum mismatch");
        let err = VersionedCatalog::from_text(&snap.to_text().replace("session=9", "session=x"))
            .err()
            .unwrap();
        assert!(err.to_string().contains("bad meta session"), "{err}");
    }

    #[test]
    fn durable_commit_and_reload() {
        let path = tmp("reload");
        let shared = SharedCatalog::open(&path).unwrap();
        shared.commit("t.k", stats(7), None).unwrap();
        let e2 = shared.commit("t.k2", stats(8), None).unwrap();
        assert_eq!(e2, 2);

        let reopened = SharedCatalog::open(&path).unwrap();
        let snap = reopened.snapshot();
        assert_eq!(snap.epoch(), 2);
        assert_eq!(snap.len(), 2);
        assert_eq!(snap.get("t.k").unwrap().stats, stats(7));
        assert!(snap.get("t.k").unwrap().counters.is_none());
    }

    #[test]
    fn snapshots_are_stable_across_commits() {
        let shared = SharedCatalog::in_memory();
        shared.commit("ix", stats(1), None).unwrap();
        let old = shared.snapshot();
        shared.commit("ix", stats(2), None).unwrap();
        // The old snapshot still sees the old entry; the new one the new.
        assert_eq!(old.get("ix").unwrap().stats, stats(1));
        assert_eq!(shared.snapshot().get("ix").unwrap().stats, stats(2));
        assert_eq!(shared.snapshot().epoch(), 2);
    }

    #[test]
    fn epoch_hint_tracks_published_commits() {
        let shared = SharedCatalog::in_memory();
        assert_eq!(shared.epoch_hint(), 0);
        shared.commit("ix", stats(1), None).unwrap();
        assert_eq!(shared.epoch_hint(), 1);
        assert_eq!(shared.snapshot().epoch(), shared.epoch_hint());

        // Cached entry handles outlive the snapshot they came from.
        let snap = shared.snapshot();
        let handle = snap.get_arc("ix").unwrap().clone();
        shared.commit("ix", stats(2), None).unwrap();
        assert_eq!(shared.epoch_hint(), 2);
        assert_eq!(handle.stats, stats(1)); // old handle, old version
        assert_ne!(snap.epoch(), shared.epoch_hint()); // mismatch detected

        // A durable reload seeds the hint from the persisted epoch.
        let path = tmp("hint");
        let durable = SharedCatalog::open(&path).unwrap();
        durable.commit("a", stats(3), None).unwrap();
        durable.commit("b", stats(4), None).unwrap();
        let reopened = SharedCatalog::open(&path).unwrap();
        assert_eq!(reopened.epoch_hint(), 2);
    }

    #[test]
    fn invalid_names_are_rejected_at_commit() {
        let shared = SharedCatalog::in_memory();
        assert!(shared.commit("has space", stats(1), None).is_err());
        assert_eq!(shared.snapshot().epoch(), 0);
    }

    #[test]
    fn persist_failure_is_distinct_and_leaves_old_state_serving() {
        use epfis_faults::{FaultKind, FaultVfs, OpKind, Rule};

        let path = tmp("persistfail");
        let fv = FaultVfs::new();
        let shared = SharedCatalog::open_with_vfs(&path, fv.clone().shared()).unwrap();
        shared.commit("ix", stats(1), None).unwrap();
        let before = std::fs::read(&path).unwrap();

        // Every fault point before the rename — temp create, write, fsync,
        // rename itself — must surface the distinct error, leave the old
        // file byte-identical, and keep the old snapshot serving.
        for op in [
            OpKind::Create,
            OpKind::Write,
            OpKind::SyncData,
            OpKind::Rename,
        ] {
            let failures_before = shared.persist_failures();
            fv.schedule()
                .push(Rule::new(FaultKind::Enospc).on_op(op).times(1));
            let err = shared
                .commit("ix", stats(99), None)
                .err()
                .unwrap_or_else(|| panic!("commit must fail under {op:?} fault"));
            assert!(
                err.to_string().starts_with("catalog persist failed: "),
                "op {op:?}: not the distinct error: {err}"
            );
            assert_eq!(shared.persist_failures(), failures_before + 1);
            assert_eq!(
                std::fs::read(&path).unwrap(),
                before,
                "op {op:?}: old on-disk catalog must survive byte-identical"
            );
            let snap = shared.snapshot();
            assert_eq!(snap.epoch(), 1, "op {op:?}: old snapshot must keep serving");
            assert_eq!(snap.get("ix").unwrap().stats, stats(1));
            fv.schedule().heal();
        }

        // A directory-fsync fault fires *after* the rename: the file on disk
        // is then validly old OR new — never torn — and the commit is still
        // reported failed (a false negative, never a false positive), so the
        // published snapshot stays old.
        fv.schedule()
            .push(Rule::new(FaultKind::Eio).on_op(OpKind::SyncDir).times(1));
        let err = shared.commit("ix", stats(50), None).err().unwrap();
        assert!(err.to_string().starts_with("catalog persist failed: "));
        let on_disk = std::fs::read_to_string(&path).unwrap();
        let parsed = VersionedCatalog::from_text_checksummed(&on_disk)
            .expect("on-disk catalog must be old or new, never torn");
        assert!(parsed.epoch() == 1 || parsed.epoch() == 2);
        assert_eq!(shared.snapshot().epoch(), 1);
        fv.schedule().heal();

        // probe_persist succeeds once the storage heals, and a fresh commit
        // then lands normally.
        shared.probe_persist().unwrap();
        shared.commit("ix", stats(2), None).unwrap();
        assert_eq!(shared.snapshot().get("ix").unwrap().stats, stats(2));
        let reopened = SharedCatalog::open(&path).unwrap();
        assert_eq!(reopened.snapshot().get("ix").unwrap().stats, stats(2));
    }

    #[test]
    fn concurrent_readers_during_commits_see_consistent_versions() {
        let shared = std::sync::Arc::new(SharedCatalog::in_memory());
        shared.commit("ix", stats(1), None).unwrap();
        let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let shared = shared.clone();
                let stop = stop.clone();
                std::thread::spawn(move || {
                    let mut last_epoch = 0;
                    while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                        let snap = shared.snapshot();
                        let e = snap.epoch();
                        assert!(e >= last_epoch, "epoch went backwards");
                        last_epoch = e;
                        let entry = snap.get("ix").expect("entry never disappears");
                        assert!(entry.epoch <= e);
                    }
                })
            })
            .collect();
        for i in 0..20 {
            shared.commit("ix", stats(i), None).unwrap();
        }
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        for r in readers {
            r.join().unwrap();
        }
        assert_eq!(shared.snapshot().epoch(), 21);
    }
}
