//! # pythia-bench
//!
//! The experiment harness of the PYTHIA reproduction: one binary per table
//! or figure of the paper's evaluation (§III).
//!
//! | Paper artifact | Binary |
//! |---|---|
//! | Table I (record overhead, # events, # rules) | `table1` |
//! | Fig. 7 (example BT grammar) | `table1 --show-grammar BT` |
//! | Fig. 8 (prediction accuracy vs distance) | `fig8_accuracy` |
//! | Fig. 9 (prediction cost vs distance) | `fig9_cost` |
//! | Figs. 10/11 (LULESH time vs problem size) | `fig10_11_problem_size` |
//! | Figs. 12/13 (LULESH time vs max threads) | `fig12_13_threads` |
//! | Fig. 14 (LULESH time vs error rate) | `fig14_error_rate` |
//!
//! Beyond the paper's artifacts, `pythia-analyze` ([`analyze_cli`]) runs
//! the static-analysis passes of `pythia_core::analyze` (grammar linter,
//! cross-rank MPI protocol verifier, predictability report) over saved
//! trace files without expanding them.
//!
//! Every binary accepts `--help`, prints an aligned text table to stdout,
//! and writes machine-readable JSON next to it with `--json <path>`.
//! Default scales are reduced so the full suite completes in minutes on a
//! laptop (see EXPERIMENTS.md for the paper-vs-here scale mapping).

pub mod analyze_cli;
pub mod lulesh;

use std::fmt::Write as _;

/// Minimal `--name value` / `--flag` argument access.
pub struct Args {
    argv: Vec<String>,
}

impl Args {
    /// Captures the process arguments.
    pub fn capture() -> Self {
        Args {
            argv: std::env::args().skip(1).collect(),
        }
    }

    /// For tests.
    pub fn from(argv: &[&str]) -> Self {
        Args {
            argv: argv.iter().map(|s| s.to_string()).collect(),
        }
    }

    /// The value following `--name`, if present.
    pub fn value(&self, name: &str) -> Option<&str> {
        let key = format!("--{name}");
        self.argv
            .iter()
            .position(|a| a == &key)
            .and_then(|i| self.argv.get(i + 1))
            .map(|s| s.as_str())
    }

    /// Whether `--name` appears (with or without a value).
    pub fn flag(&self, name: &str) -> bool {
        let key = format!("--{name}");
        self.argv.iter().any(|a| a == &key)
    }

    /// Parses the value of `--name`, falling back to `default` when the
    /// flag is absent. A value that does not parse is a usage error: the
    /// process exits 2 with a message naming the flag.
    pub fn parse_or<T: std::str::FromStr>(&self, name: &str, default: T) -> T {
        self.try_parse_or(name, default)
            .unwrap_or_else(|e| usage_error(&e))
    }

    /// Parses a comma-separated list of values for `--name`, falling back
    /// to `default` when the flag is absent. An item that does not parse
    /// is a usage error, as in [`Args::parse_or`].
    pub fn parse_list<T: std::str::FromStr + Clone>(&self, name: &str, default: &[T]) -> Vec<T> {
        self.try_parse_list(name, default)
            .unwrap_or_else(|e| usage_error(&e))
    }

    fn try_parse_or<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        self.value(name)
            .map_or(Ok(default), |v| parse_value(name, v))
    }

    fn try_parse_list<T: std::str::FromStr + Clone>(
        &self,
        name: &str,
        default: &[T],
    ) -> Result<Vec<T>, String> {
        match self.value(name) {
            None => Ok(default.to_vec()),
            Some(v) => v.split(',').map(|x| parse_value(name, x.trim())).collect(),
        }
    }
}

fn parse_value<T: std::str::FromStr>(name: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("--{name}: cannot parse {value:?}"))
}

fn usage_error(message: &str) -> ! {
    eprintln!("error: {message}");
    std::process::exit(2)
}

/// An aligned plain-text table, in the spirit of the paper's Table I.
#[derive(Debug, Default)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(headers: &[&str]) -> Self {
        Table {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row (must match the header count).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "column count mismatch");
        self.rows.push(cells);
    }

    /// Renders the aligned table.
    pub fn render(&self) -> String {
        let ncols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let write_row = |out: &mut String, cells: &[String]| {
            for (i, c) in cells.iter().enumerate() {
                if i > 0 {
                    out.push_str("  ");
                }
                let _ = write!(out, "{:>width$}", c, width = widths[i]);
            }
            out.push('\n');
        };
        write_row(&mut out, &self.headers);
        let total: usize = widths.iter().sum::<usize>() + 2 * (ncols - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            write_row(&mut out, row);
        }
        out
    }

    /// Prints the table to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Writes a JSON value to `path` if `--json` was given.
pub fn maybe_write_json(args: &Args, value: &serde_json::Value) {
    if let Some(path) = args.value("json") {
        match std::fs::write(path, serde_json::to_string_pretty(value).unwrap()) {
            Ok(()) => eprintln!("wrote {path}"),
            Err(e) => eprintln!("failed to write {path}: {e}"),
        }
    }
}

/// Mean of a slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// `(min, mean, max)` of a slice.
pub fn min_mean_max(xs: &[f64]) -> (f64, f64, f64) {
    let mn = xs.iter().copied().fold(f64::INFINITY, f64::min);
    let mx = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    (mn, mean(xs), mx)
}

/// Number of hardware threads available, clamped to `cap`.
pub fn host_threads(cap: usize) -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .min(cap)
        .max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn args_parse_values_and_flags() {
        let a = Args::from(&["--ranks", "16", "--fast"]);
        assert_eq!(a.value("ranks"), Some("16"));
        assert_eq!(a.parse_or("ranks", 4usize), 16);
        assert_eq!(a.parse_or("runs", 3usize), 3);
        assert!(a.flag("fast"));
        assert!(!a.flag("slow"));
    }

    #[test]
    fn args_parse_lists() {
        let a = Args::from(&["--sizes", "5, 10,20"]);
        assert_eq!(a.parse_list("sizes", &[1u64]), vec![5, 10, 20]);
        assert_eq!(a.parse_list("other", &[7u64]), vec![7]);
    }

    #[test]
    fn args_reject_values_that_do_not_parse() {
        let a = Args::from(&["--ranks", "abc", "--rates", "0,x", "--sizes", "5,"]);
        assert_eq!(
            a.try_parse_or("ranks", 4usize),
            Err("--ranks: cannot parse \"abc\"".to_string())
        );
        assert_eq!(
            a.try_parse_list("rates", &[0.5f64]),
            Err("--rates: cannot parse \"x\"".to_string())
        );
        assert!(a.try_parse_list("sizes", &[1u64]).is_err());
        // A flag given without a value swallows the next flag as its value.
        let a = Args::from(&["--ranks", "--fast"]);
        assert!(a.try_parse_or("ranks", 4usize).is_err());
        // Absent flags still fall back to their defaults.
        assert_eq!(a.try_parse_or("runs", 3usize), Ok(3));
        assert_eq!(a.try_parse_list("sizes", &[1u64]), Ok(vec![1]));
    }

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(&["App", "Events"]);
        t.row(vec!["BT".into(), "123".into()]);
        t.row(vec!["Quicksilver".into(), "9".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("App"));
        assert!(lines[2].ends_with("123"));
    }

    #[test]
    #[should_panic(expected = "column count mismatch")]
    fn table_rejects_bad_rows() {
        let mut t = Table::new(&["a", "b"]);
        t.row(vec!["only one".into()]);
    }

    #[test]
    fn stats_helpers() {
        assert_eq!(mean(&[1.0, 3.0]), 2.0);
        let (mn, me, mx) = min_mean_max(&[3.0, 1.0, 2.0]);
        assert_eq!((mn, me, mx), (1.0, 2.0, 3.0));
        assert!(host_threads(8) >= 1);
        assert!(host_threads(2) <= 2);
    }
}
