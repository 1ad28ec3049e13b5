//! The system catalog: named [`IndexStatistics`] entries with a versioned,
//! human-readable text codec.
//!
//! Section 4.1 stores the segment end-points "in a system catalog entry
//! associated with the index". Real catalogs are inspectable and survive
//! restarts, so this module provides a stable text format (one attribute per
//! line) rather than an opaque binary dump; floating-point fields use Rust's
//! shortest round-tripping decimal representation, so
//! `from_text(to_text(c)) == c` exactly.
//!
//! This crate does no file I/O. The catalog file — this text embedded in a
//! versioned, checksummed envelope, written atomically — belongs to
//! `epfis-server`'s `SharedCatalog`, which `epfis analyze` and `epfis serve`
//! both commit through.

use crate::config::{EpfisConfig, GridStrategy, PhiMode};
use crate::stats::IndexStatistics;
use epfis_segfit::PiecewiseLinear;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Codec / lookup errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CatalogError {
    /// The header line is missing or names an unsupported version.
    BadHeader(String),
    /// A line could not be parsed.
    Parse {
        /// 1-based line number within the input text.
        line: usize,
        /// What was wrong.
        message: String,
        /// The offending line, verbatim.
        text: String,
    },
    /// An entry ended before all required fields were seen.
    IncompleteEntry(String),
    /// An index name contains characters the codec cannot represent.
    InvalidName(String),
    /// Two entries share a name.
    DuplicateName(String),
}

impl std::fmt::Display for CatalogError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CatalogError::BadHeader(h) => write!(f, "bad catalog header: {h:?}"),
            CatalogError::Parse {
                line,
                message,
                text,
            } => {
                write!(f, "parse error at line {line}: {message} (in {text:?})")
            }
            CatalogError::IncompleteEntry(name) => {
                write!(f, "incomplete catalog entry {name:?}")
            }
            CatalogError::InvalidName(name) => write!(f, "invalid index name {name:?}"),
            CatalogError::DuplicateName(name) => write!(f, "duplicate index name {name:?}"),
        }
    }
}

impl std::error::Error for CatalogError {}

const HEADER: &str = "epfis-catalog v1";

/// A named collection of per-index EPFIS statistics.
///
/// ```
/// use epfis::{Catalog, EpfisConfig, LruFit};
/// use epfis_lrusim::KeyedTrace;
///
/// let trace = KeyedTrace::all_distinct((0..600u32).map(|i| i % 60).collect(), 60);
/// let stats = LruFit::new(EpfisConfig::default()).collect(&trace);
///
/// let mut catalog = Catalog::new();
/// catalog.insert("orders.customer_id", stats).unwrap();
///
/// // The text codec round-trips exactly — estimates included.
/// let restored = Catalog::from_text(&catalog.to_text()).unwrap();
/// assert_eq!(restored, catalog);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Catalog {
    entries: BTreeMap<String, IndexStatistics>,
}

impl Catalog {
    /// An empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the catalog has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Inserts (or replaces) an entry. Names may not contain whitespace or
    /// control characters.
    pub fn insert(
        &mut self,
        name: impl Into<String>,
        stats: IndexStatistics,
    ) -> Result<Option<IndexStatistics>, CatalogError> {
        let name = name.into();
        check_name(&name)?;
        Ok(self.entries.insert(name, stats))
    }

    /// Looks an entry up by name.
    pub fn get(&self, name: &str) -> Option<&IndexStatistics> {
        self.entries.get(name)
    }

    /// Removes an entry by name.
    pub fn remove(&mut self, name: &str) -> Option<IndexStatistics> {
        self.entries.remove(name)
    }

    /// Iterates entries in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &IndexStatistics)> {
        self.entries.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Serializes to the versioned text format.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        write_text(&mut out, self.iter()).expect("writing to a String cannot fail");
        out
    }

    /// Parses the text format back into a catalog.
    pub fn from_text(text: &str) -> Result<Catalog, CatalogError> {
        let mut lines = text.lines().enumerate();
        match lines.next() {
            Some((_, h)) if h.trim() == HEADER => {}
            other => {
                return Err(CatalogError::BadHeader(
                    other.map(|(_, h)| h.to_string()).unwrap_or_default(),
                ))
            }
        }
        let mut catalog = Catalog::new();
        let mut current: Option<(String, EntryBuilder)> = None;
        for (idx, raw) in lines {
            let line_no = idx + 1;
            let line = raw.trim();
            if line.is_empty() {
                continue;
            }
            let (keyword, rest) = line.split_once(' ').unwrap_or((line, ""));
            match keyword {
                "index" => {
                    if current.is_some() {
                        return Err(CatalogError::Parse {
                            line: line_no,
                            message: "new entry before previous 'end'".into(),
                            text: raw.to_string(),
                        });
                    }
                    if rest.is_empty() {
                        return Err(CatalogError::InvalidName(rest.to_string()));
                    }
                    current = Some((rest.to_string(), EntryBuilder::default()));
                }
                "end" => {
                    let (name, builder) = current.take().ok_or_else(|| CatalogError::Parse {
                        line: line_no,
                        message: "'end' without entry".into(),
                        text: raw.to_string(),
                    })?;
                    let stats = builder
                        .build()
                        .ok_or_else(|| CatalogError::IncompleteEntry(name.clone()))?;
                    if catalog.get(&name).is_some() {
                        return Err(CatalogError::DuplicateName(name));
                    }
                    catalog.insert(name, stats)?;
                }
                _ => {
                    let (_, builder) = current.as_mut().ok_or_else(|| CatalogError::Parse {
                        line: line_no,
                        message: format!("field {keyword:?} outside entry"),
                        text: raw.to_string(),
                    })?;
                    builder
                        .field(keyword, rest)
                        .map_err(|message| CatalogError::Parse {
                            line: line_no,
                            message,
                            text: raw.to_string(),
                        })?;
                }
            }
        }
        if let Some((name, _)) = current {
            return Err(CatalogError::IncompleteEntry(name));
        }
        Ok(catalog)
    }
}

/// Checks that `name` is non-empty, without whitespace or control characters.
pub fn check_name(name: &str) -> Result<(), CatalogError> {
    if name.is_empty() || name.chars().any(|c| c.is_whitespace() || c.is_control()) {
        return Err(CatalogError::InvalidName(name.to_string()));
    }
    Ok(())
}

/// [`Catalog::to_text`] over borrowed entries (names already checked),
/// appended to `out`: no `Catalog` needs building to serialize them.
pub fn write_text<'a>(
    out: &mut String,
    entries: impl IntoIterator<Item = (&'a str, &'a IndexStatistics)>,
) -> std::fmt::Result {
    out.push_str(HEADER);
    out.push('\n');
    for (name, s) in entries {
        writeln!(out, "index {name}")?;
        writeln!(out, "table_pages {}", s.table_pages)?;
        writeln!(out, "records {}", s.records)?;
        writeln!(out, "distinct_keys {}", s.distinct_keys)?;
        writeln!(out, "distinct_pages {}", s.distinct_pages)?;
        writeln!(out, "clustering_factor {}", s.clustering_factor)?;
        writeln!(out, "b_min {}", s.b_min)?;
        writeln!(out, "b_max {}", s.b_max)?;
        let knots: Vec<String> = s
            .fpf
            .knots()
            .iter()
            .map(|(x, y)| format!("{x}:{y}"))
            .collect();
        writeln!(out, "fpf {}", knots.join(" "))?;
        let grid = match s.config.grid {
            GridStrategy::Arithmetic => "arith".to_string(),
            GridStrategy::Geometric { points } => format!("geom:{points}"),
        };
        let phi = match s.config.phi_mode {
            PhiMode::PaperMax => "max",
            PhiMode::ProseMin => "min",
        };
        let range = match s.config.modeling_range {
            None => "auto".to_string(),
            Some((lo, hi)) => format!("{lo},{hi}"),
        };
        writeln!(
            out,
            "config b_sml={} segments={} grid={} phi={} corr={} sarg={} range={}",
            s.config.b_sml,
            s.config.segments,
            grid,
            phi,
            u8::from(s.config.enable_correction),
            u8::from(s.config.enable_sargable_model),
            range
        )?;
        writeln!(out, "end")?;
    }
    Ok(())
}

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
                let mut knots = Vec::new();
                for pair in rest.split_whitespace() {
                    let (x, y) = pair
                        .split_once(':')
                        .ok_or_else(|| format!("bad knot {pair:?}"))?;
                    knots.push((parse::<f64>(x)?, parse::<f64>(y)?));
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lru_fit::LruFit;
    use epfis_lrusim::KeyedTrace;

    fn stats(seed: u32) -> IndexStatistics {
        let pages: Vec<u32> = (0..1500u32)
            .map(|i| (i.wrapping_mul(2654435761).wrapping_add(seed)) % 120)
            .collect();
        let trace = KeyedTrace::all_distinct(pages, 120);
        LruFit::new(EpfisConfig::default()).collect(&trace)
    }

    #[test]
    fn round_trip_is_exact() {
        let mut c = Catalog::new();
        c.insert("orders.customer_id", stats(1)).unwrap();
        c.insert("orders.order_date", stats(2)).unwrap();
        let text = c.to_text();
        let back = Catalog::from_text(&text).unwrap();
        assert_eq!(back, c);
    }

    #[test]
    fn round_trip_preserves_estimates_exactly() {
        let mut c = Catalog::new();
        c.insert("ix", stats(3)).unwrap();
        let back = Catalog::from_text(&c.to_text()).unwrap();
        let q = crate::ScanQuery::range(0.123, 37).with_sargable(0.4);
        assert_eq!(
            c.get("ix").unwrap().estimate(&q),
            back.get("ix").unwrap().estimate(&q)
        );
    }

    #[test]
    fn non_default_config_round_trips() {
        let pages: Vec<u32> = (0..600u32).map(|i| i % 60).collect();
        let trace = KeyedTrace::all_distinct(pages, 60);
        let cfg = EpfisConfig::default()
            .with_segments(4)
            .with_grid(GridStrategy::Geometric { points: 9 })
            .with_modeling_range(12, 50)
            .without_correction();
        let s = LruFit::new(cfg).collect(&trace);
        let mut c = Catalog::new();
        c.insert("geo", s).unwrap();
        let back = Catalog::from_text(&c.to_text()).unwrap();
        assert_eq!(back, c);
        assert_eq!(
            back.get("geo").unwrap().config.modeling_range,
            Some((12, 50))
        );
    }

    #[test]
    fn crud_operations() {
        let mut c = Catalog::new();
        assert!(c.is_empty());
        c.insert("a", stats(1)).unwrap();
        assert!(
            c.insert("a", stats(2)).unwrap().is_some(),
            "replace returns old"
        );
        assert_eq!(c.len(), 1);
        assert!(c.get("a").is_some());
        assert!(c.remove("a").is_some());
        assert!(c.get("a").is_none());
    }

    #[test]
    fn names_with_whitespace_rejected() {
        let mut c = Catalog::new();
        assert!(matches!(
            c.insert("has space", stats(1)),
            Err(CatalogError::InvalidName(_))
        ));
        assert!(matches!(
            c.insert("", stats(1)),
            Err(CatalogError::InvalidName(_))
        ));
    }

    #[test]
    fn bad_header_rejected() {
        assert!(matches!(
            Catalog::from_text("something else\n"),
            Err(CatalogError::BadHeader(_))
        ));
        assert!(matches!(
            Catalog::from_text(""),
            Err(CatalogError::BadHeader(_))
        ));
    }

    #[test]
    fn truncated_entry_rejected() {
        let mut c = Catalog::new();
        c.insert("ix", stats(1)).unwrap();
        let text = c.to_text();
        // Drop the trailing "end" line.
        let truncated = text.trim_end().trim_end_matches("end");
        assert!(matches!(
            Catalog::from_text(truncated),
            Err(CatalogError::IncompleteEntry(_))
        ));
    }

    #[test]
    fn missing_field_rejected() {
        let text = format!("{HEADER}\nindex ix\ntable_pages 10\nend\n");
        assert!(matches!(
            Catalog::from_text(&text),
            Err(CatalogError::IncompleteEntry(_))
        ));
    }

    #[test]
    fn garbage_field_rejected_with_line_number_and_text() {
        let text = format!("{HEADER}\nindex ix\nwat 7\nend\n");
        match Catalog::from_text(&text) {
            Err(CatalogError::Parse { line, text, .. }) => {
                assert_eq!(line, 3);
                assert_eq!(text, "wat 7");
            }
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn parse_error_display_names_the_offending_line() {
        let text = format!("{HEADER}\nindex ix\ntable_pages eleven\nend\n");
        let err = Catalog::from_text(&text).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("line 3"), "{msg}");
        assert!(msg.contains("table_pages eleven"), "{msg}");
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut c = Catalog::new();
        c.insert("ix", stats(1)).unwrap();
        let entry: String = c
            .to_text()
            .lines()
            .skip(1)
            .map(|l| format!("{l}\n"))
            .collect();
        let doubled = format!("{HEADER}\n{entry}{entry}");
        assert!(matches!(
            Catalog::from_text(&doubled),
            Err(CatalogError::DuplicateName(_))
        ));
    }
}
