//! Shared plumbing for the figure-regeneration binaries: a tiny argument
//! parser (`--flag value` pairs) and CSV output helpers.
//!
//! Every binary prints the figure as an aligned text table on stdout and,
//! with `--csv DIR`, also writes one CSV per figure for plotting.

pub mod loadgen;
pub mod selfcheck;

use std::collections::HashMap;
use std::path::{Path, PathBuf};

/// Parsed `--key value` command-line options.
pub struct Options {
    values: HashMap<String, String>,
}

impl Options {
    /// Parses `std::env::args()` style arguments (skipping the binary name).
    ///
    /// # Panics
    /// Panics (with usage guidance) on stray or incomplete flags.
    pub fn parse(args: impl Iterator<Item = String>) -> Self {
        let mut values = HashMap::new();
        let mut args = args.peekable();
        while let Some(arg) = args.next() {
            let key = arg
                .strip_prefix("--")
                .unwrap_or_else(|| panic!("unexpected argument {arg:?}; flags are --key value"));
            let value = args
                .next()
                .unwrap_or_else(|| panic!("flag --{key} needs a value"));
            values.insert(key.to_string(), value);
        }
        Options { values }
    }

    /// Parses the process arguments.
    pub fn from_env() -> Self {
        Self::parse(std::env::args().skip(1))
    }

    /// A typed option with a default.
    pub fn get<T: std::str::FromStr>(&self, key: &str, default: T) -> T
    where
        T::Err: std::fmt::Display,
    {
        match self.values.get(key) {
            None => default,
            Some(raw) => raw
                .parse()
                .unwrap_or_else(|e| panic!("bad value for --{key}: {e}")),
        }
    }

    /// An optional string option.
    pub fn get_str(&self, key: &str) -> Option<&str> {
        self.values.get(key).map(|s| s.as_str())
    }

    /// Panics, naming the flag, on any `--key` outside `known`.
    pub fn reject_unknown(&self, known: &[&str]) {
        if let Some(key) = self.values.keys().find(|k| !known.contains(&k.as_str())) {
            panic!(
                "unknown flag --{key}; expected one of --{}",
                known.join(" --")
            );
        }
    }

    /// The CSV output directory, if `--csv` was given.
    pub fn csv_dir(&self) -> Option<PathBuf> {
        self.get_str("csv").map(PathBuf::from)
    }

    /// The worker-thread budget from `--threads N` (0, the default, means
    /// all available cores).
    pub fn threads(&self) -> usize {
        self.get("threads", 0usize)
    }

    /// Applies `--threads` to the process-global parallelism budget. Call
    /// once at the top of every binary's `main`.
    pub fn init_threads(&self) {
        epfis_par::set_threads(self.threads());
    }
}

/// Per-algorithm worst-case |error%| accumulator, preserving first-seen
/// algorithm order — the §5 "overall" summary shared by `repro_all`,
/// `gwl_errors`, and `synthetic_errors`.
#[derive(Debug, Clone, Default)]
pub struct MaxErrors {
    entries: Vec<(String, f64)>,
}

impl MaxErrors {
    /// An empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one figure's per-algorithm maxima into the running worst case.
    pub fn merge(&mut self, maxes: &[(String, f64)]) {
        for (name, worst) in maxes {
            match self.entries.iter_mut().find(|(n, _)| n == name) {
                Some((_, w)) => *w = w.max(*worst),
                None => self.entries.push((name.clone(), *worst)),
            }
        }
    }

    /// The accumulated `(algorithm, worst |error%|)` pairs in first-seen
    /// order.
    pub fn as_slice(&self) -> &[(String, f64)] {
        &self.entries
    }
}

/// Writes a figure's CSV into `dir/<slug>.csv`, creating the directory.
pub fn write_csv(dir: &Path, slug: &str, csv: &str) {
    std::fs::create_dir_all(dir).expect("create csv dir");
    let path = dir.join(format!("{slug}.csv"));
    std::fs::write(&path, csv).expect("write csv");
    println!("wrote {}", path.display());
}

/// Slugifies a figure title for use as a file name.
pub fn slug(title: &str) -> String {
    title
        .chars()
        .map(|c| {
            if c.is_alphanumeric() {
                c.to_ascii_lowercase()
            } else {
                '_'
            }
        })
        .collect::<String>()
        .split('_')
        .filter(|s| !s.is_empty())
        .collect::<Vec<_>>()
        .join("_")
}

/// Renders the §5-style max-error summary block as lines of text (useful
/// when output must be buffered, e.g. from parallel figure groups).
pub fn format_max_errors(label: &str, maxes: &[(String, f64)]) -> String {
    let mut out = format!("max |error| per algorithm for {label}:\n");
    for (name, worst) in maxes {
        out.push_str(&format!("  {name:>6}: {worst:8.1}%\n"));
    }
    out
}

/// Prints the §5-style max-error summary block.
pub fn print_max_errors(label: &str, maxes: &[(String, f64)]) {
    print!("{}", format_max_errors(label, maxes));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_flags_with_defaults() {
        let o = Options::parse(
            ["--scale", "10", "--theta", "0.86"]
                .iter()
                .map(|s| s.to_string()),
        );
        assert_eq!(o.get("scale", 1u32), 10);
        assert_eq!(o.get("theta", 0.0f64), 0.86);
        assert_eq!(o.get("seed", 7u64), 7);
        assert!(o.csv_dir().is_none());
    }

    #[test]
    fn csv_dir_round_trips() {
        let o = Options::parse(["--csv", "/tmp/x"].iter().map(|s| s.to_string()));
        assert_eq!(o.csv_dir().unwrap(), PathBuf::from("/tmp/x"));
    }

    #[test]
    fn slug_is_filesystem_safe() {
        assert_eq!(
            slug("Figure 12: error behavior for theta=0, K=0.10"),
            "figure_12_error_behavior_for_theta_0_k_0_10"
        );
    }

    #[test]
    #[should_panic(expected = "needs a value")]
    fn incomplete_flag_panics() {
        Options::parse(["--scale"].iter().map(|s| s.to_string()));
    }

    #[test]
    #[should_panic(expected = "unexpected argument")]
    fn stray_argument_panics() {
        Options::parse(["banana"].iter().map(|s| s.to_string()));
    }

    #[test]
    fn threads_flag_defaults_to_zero() {
        let o = Options::parse([].iter().map(|s: &&str| s.to_string()));
        assert_eq!(o.threads(), 0);
        let o = Options::parse(["--threads", "4"].iter().map(|s| s.to_string()));
        assert_eq!(o.threads(), 4);
    }

    #[test]
    fn max_errors_keeps_worst_per_algorithm_in_first_seen_order() {
        let mut m = MaxErrors::new();
        m.merge(&[("EPFIS".into(), 10.0), ("ML".into(), 50.0)]);
        m.merge(&[("ML".into(), 30.0), ("DC".into(), 99.0)]);
        m.merge(&[("EPFIS".into(), 12.5)]);
        assert_eq!(
            m.as_slice(),
            &[
                ("EPFIS".to_string(), 12.5),
                ("ML".to_string(), 50.0),
                ("DC".to_string(), 99.0),
            ]
        );
    }
}
