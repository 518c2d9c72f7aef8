//! Experiment output whose cells are tagged exact or timed.
//!
//! An experiment writes its table with [`outln!`](crate::outln) and
//! wraps every value that came from a clock in [`T`]. Printing drops
//! the tags; [`Report::diff`] compares a committed file with a fresh
//! run cell by cell, exact cells verbatim and timed cells not at all.
//! A cell is a whitespace-separated token. A line whose *presence*
//! depends on a clock starts with `~` and is skipped on both sides.

use std::fmt::{self, Display, Write};

const TIMED_OPEN: char = '\u{1}';
const TIMED_CLOSE: char = '\u{2}';

/// Tags a cell as timed: MB/s, seconds, speed-ups, and anything else
/// derived from a clock. Width, precision and alignment apply to the
/// wrapped value as if the wrapper were not there.
pub struct T<V>(pub V);

impl<V: Display> Display for T<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_char(TIMED_OPEN)?;
        self.0.fmt(f)?;
        f.write_char(TIMED_CLOSE)
    }
}

/// One experiment's output.
#[derive(Default)]
pub struct Report {
    tagged: String,
    /// Set when the experiment's own acceptance check failed (the
    /// `bench` exit code), with the reason.
    pub failure: Option<&'static str>,
}

impl Report {
    /// Append formatted text; the target of `out!` / `outln!`.
    pub fn write(&mut self, args: fmt::Arguments<'_>) {
        self.tagged.write_fmt(args).expect("writing to a String");
    }

    /// Append one line of fixed text: a header or a note.
    pub fn say(&mut self, line: &str) {
        self.tagged.push_str(line);
        self.tagged.push('\n');
    }

    /// The text as printed and committed: tags dropped.
    pub fn text(&self) -> String {
        self.tagged.replace([TIMED_OPEN, TIMED_CLOSE], "")
    }

    /// Compare `committed` with this run. The error names the line
    /// (1-based, in `committed`) and the cell.
    pub fn diff(&self, committed: &str) -> Result<(), String> {
        let kept = |line: &&str| !line.trim_start().starts_with('~');
        let mut theirs = committed.lines().enumerate().filter(|(_, l)| kept(l));
        for ours in self.tagged.lines().filter(kept) {
            let cells = cells(ours);
            let Some((i, line)) = theirs.next() else {
                let row: Vec<_> = cells.iter().map(|c| c.0.as_str()).collect();
                return Err(format!("ends before the row `{}`", row.join(" ")));
            };
            let (i, got) = (i + 1, line.split_whitespace().collect::<Vec<_>>());
            if got.len() != cells.len() {
                let (n, m) = (got.len(), cells.len());
                return Err(format!(
                    "line {i}: {n} cells, re-derived {m}: `{}`",
                    line.trim()
                ));
            }
            for (k, ((want, timed), got)) in cells.iter().zip(got).enumerate() {
                if !timed && want != got {
                    let k = k + 1;
                    return Err(format!(
                        "line {i}, cell {k}: committed `{got}`, re-derived `{want}`"
                    ));
                }
            }
        }
        match theirs.next() {
            Some((i, line)) => Err(format!("line {}: not re-derived: `{line}`", i + 1)),
            None => Ok(()),
        }
    }
}

/// Split a tagged line into `(cell, timed)`; a cell is timed when any
/// of its characters was written through [`T`].
fn cells(tagged: &str) -> Vec<(String, bool)> {
    let mut cells = Vec::new();
    let (mut cell, mut timed, mut inside) = (String::new(), false, false);
    for c in tagged.chars().chain([' ']) {
        match c {
            TIMED_OPEN => inside = true,
            TIMED_CLOSE => inside = false,
            c if c.is_whitespace() => {
                if !cell.is_empty() {
                    cells.push((std::mem::take(&mut cell), timed));
                }
                timed = false;
            }
            c => {
                cell.push(c);
                timed |= inside;
            }
        }
    }
    cells
}

/// The scale a results file was generated at, from its banner (line 2).
/// `None` for anything that does not start with a banner — a file
/// redirected from `cargo run`, for one.
pub fn banner_scale(committed: &str) -> Option<f64> {
    let banner = committed.lines().nth(1)?.strip_prefix("scale ")?;
    banner.split(' ').next()?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Bench;

    fn sample(sp: f64) -> Report {
        let mut out = crate::experiments::banner(&Bench::new(0.02), "Table");
        outln!(
            out,
            "{:<10} {:>6} {:>8.2} {:>6.3}",
            "gts_phi_l",
            "zlib",
            16.05,
            T(sp)
        );
        outln!(out, "  ~ listed because a clock said so: {:.0} MB/s", T(sp));
        outln!(out, "slower than zlib on {}/2, {:>5.1}x", T(1), T(sp));
        out
    }

    #[test]
    fn tags_do_not_disturb_the_printed_layout() {
        let text = sample(4.2461).text();
        assert!(
            text.contains("gts_phi_l    zlib    16.05  4.246\n"),
            "{text}"
        );
        assert!(!text.contains([TIMED_OPEN, TIMED_CLOSE]));
    }

    #[test]
    fn timed_cells_and_clock_lines_are_not_compared() {
        let committed = sample(4.2461).text();
        sample(123456.789).diff(&committed).unwrap();
        let no_clock_line: Vec<&str> = committed.lines().filter(|l| !l.contains('~')).collect();
        sample(1.0).diff(&no_clock_line.join("\n")).unwrap();
    }

    #[test]
    fn an_edited_exact_cell_a_dropped_row_or_another_scale_is_named() {
        let report = sample(4.2461);
        let committed = report.text();
        let edited = committed.replace("16.05", "16.00");
        let err = report.diff(&edited).unwrap_err();
        assert_eq!(err, "line 4, cell 3: committed `16.00`, re-derived `16.05`");

        let dropped = committed.replace("slower than zlib on 1/2,   4.2x\n", "");
        assert_ne!(dropped, committed);
        let err = report.diff(&dropped).unwrap_err();
        assert!(err.contains("ends before the row `slower than"), "{err}");
        let dropped_row: Vec<&str> = committed.lines().filter(|l| !l.contains("gts")).collect();
        let err = report.diff(&dropped_row.join("\n")).unwrap_err();
        assert!(err.starts_with("line 5: 6 cells, re-derived 4"), "{err}");

        let rescaled = committed.replace("scale 0.02", "scale 0.05");
        assert_eq!(banner_scale(&rescaled), Some(0.05));
        let err = report.diff(&rescaled).unwrap_err();
        assert_eq!(err, "line 2, cell 2: committed `0.05`, re-derived `0.02`");

        let extra = format!("{committed}one more row\n");
        assert!(report.diff(&extra).unwrap_err().starts_with("line 7: not"));
    }

    #[test]
    fn a_file_redirected_from_cargo_run_is_refused() {
        let report = sample(4.2461);
        let redirected = format!(
            "    Finished `release` profile [optimized] target(s) in 0.03s\n     Running `target/release/table6`\n{}",
            report.text()
        );
        assert_eq!(banner_scale(&redirected), None);
        assert_eq!(banner_scale(&report.text()), Some(0.02));
        assert!(report.diff(&redirected).unwrap_err().starts_with("line 1"));
    }
}
