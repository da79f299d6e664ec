//! Structured experiment results and markdown rendering.

use serde::{Deserialize, Serialize};

/// The outcome of one row of a reproduced table (or of one figure).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RowResult {
    /// Experiment identifier (e.g. `"T2-R1"`, `"F2"`).
    pub id: String,
    /// Which claim of the paper the row reproduces (e.g. `"Theorem 3"`).
    pub claim: String,
    /// The scenario assumptions, in the wording of the paper's tables.
    pub assumptions: String,
    /// What the paper states for this row.
    pub paper: String,
    /// What was measured.
    pub observed: String,
    /// Whether the measurement is consistent with the paper's claim.
    pub holds: bool,
    /// Number of individual runs aggregated into this row. For a sweep row
    /// this counts battery cells: identical cells execute once and share
    /// their report, but each still counts here.
    pub runs: usize,
}

impl RowResult {
    /// Creates a row.
    #[must_use]
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        id: impl Into<String>,
        claim: impl Into<String>,
        assumptions: impl Into<String>,
        paper: impl Into<String>,
        observed: impl Into<String>,
        holds: bool,
        runs: usize,
    ) -> Self {
        RowResult {
            id: id.into(),
            claim: claim.into(),
            assumptions: assumptions.into(),
            paper: paper.into(),
            observed: observed.into(),
            holds,
            runs,
        }
    }
}

/// Renders rows as a GitHub-flavoured markdown table mirroring the layout of
/// the paper's tables.
#[must_use]
pub fn markdown_table(title: &str, rows: &[RowResult]) -> String {
    let mut out = String::new();
    out.push_str(&format!("### {title}\n\n"));
    out.push_str("| id | claim | assumptions | paper | measured | holds | runs |\n");
    out.push_str("|---|---|---|---|---|---|---|\n");
    for row in rows {
        out.push_str(&format!(
            "| {} | {} | {} | {} | {} | {} | {} |\n",
            row.id,
            row.claim,
            row.assumptions,
            row.paper,
            row.observed,
            if row.holds { "yes" } else { "NO" },
            row.runs
        ));
    }
    out
}

/// A single point of a complexity sweep (cost as a function of the ring size).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SweepPoint {
    /// Ring size `n`.
    pub ring_size: usize,
    /// Worst observed number of rounds until exploration.
    pub worst_rounds: u64,
    /// Worst observed number of rounds until the relevant termination.
    pub worst_termination: u64,
    /// Worst observed total number of edge traversals.
    pub worst_moves: u64,
    /// Number of battery cells behind this point. Identical cells execute
    /// once and share their report, but each still counts here.
    pub runs: usize,
}

/// Renders a sweep as a markdown table, together with the claimed bound
/// evaluated at each size so that "the shape holds" is visible at a glance.
#[must_use]
pub fn markdown_sweep(
    title: &str,
    points: &[SweepPoint],
    bound_name: &str,
    bound: impl Fn(usize) -> u64,
) -> String {
    let mut out = String::new();
    out.push_str(&format!("### {title}\n\n"));
    out.push_str(&format!(
        "| n | worst rounds to explore | worst rounds to terminate | worst moves | {bound_name} |\n"
    ));
    out.push_str("|---|---|---|---|---|\n");
    for p in points {
        out.push_str(&format!(
            "| {} | {} | {} | {} | {} |\n",
            p.ring_size,
            p.worst_rounds,
            p.worst_termination,
            p.worst_moves,
            bound(p.ring_size)
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn markdown_table_contains_all_rows_and_flags_violations() {
        let rows = vec![
            RowResult::new("T2-R1", "Theorem 3", "known N", "3N-6", "18 <= 18", true, 12),
            RowResult::new("T2-R2", "Theorem 6", "landmark", "O(n)", "violated", false, 3),
        ];
        let md = markdown_table("Table 2", &rows);
        assert!(md.contains("### Table 2"));
        assert!(md.contains("T2-R1"));
        assert!(md.contains("| yes |"));
        assert!(md.contains("| NO |"));
        assert_eq!(md.lines().count(), 2 + 2 + 2); // title + blank + header + sep + 2 rows
    }

    #[test]
    fn markdown_sweep_evaluates_the_bound() {
        let points = vec![
            SweepPoint { ring_size: 4, worst_rounds: 6, worst_termination: 7, worst_moves: 9, runs: 5 },
            SweepPoint { ring_size: 8, worst_rounds: 18, worst_termination: 19, worst_moves: 30, runs: 5 },
        ];
        let md = markdown_sweep("Theorem 3 sweep", &points, "3N-6", |n| 3 * n as u64 - 6);
        assert!(md.contains("| 4 | 6 | 7 | 9 | 6 |"));
        assert!(md.contains("| 8 | 18 | 19 | 30 | 18 |"));
    }
}
