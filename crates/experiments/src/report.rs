//! Figure reports, rendered as plain-text tables.

use std::fmt;

use crate::sweep::SweepPoint;

/// One curve of a figure, e.g. "46-AS Normal BGP".
#[derive(Debug, Clone, PartialEq)]
pub struct SeriesReport {
    /// Human-readable curve label, matching the paper's legends.
    pub label: String,
    /// The averaged data points.
    pub points: Vec<SweepPoint>,
}

/// A reproduced figure: several curves over the same X axis.
#[derive(Debug, Clone, PartialEq)]
pub struct FigureReport {
    /// Identifier, e.g. `"fig9a"`.
    pub id: String,
    /// Title, e.g. the paper's caption.
    pub title: String,
    /// The curves.
    pub series: Vec<SeriesReport>,
}

impl FigureReport {
    /// Creates a figure report.
    #[must_use]
    pub fn new(id: impl Into<String>, title: impl Into<String>, series: Vec<SeriesReport>) -> Self {
        FigureReport {
            id: id.into(),
            title: title.into(),
            series,
        }
    }

    /// Renders the figure as an aligned text table: one row per attacker
    /// fraction, one adoption column per curve. This is the "same
    /// rows/series the paper reports" output used by the benches and
    /// EXPERIMENTS.md.
    #[must_use]
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("## {} — {}\n", self.id, self.title));
        out.push_str(&format!("{:>12}", "attackers%"));
        for s in &self.series {
            out.push_str(&format!(" | {:>28}", s.label));
        }
        out.push('\n');

        let rows = self
            .series
            .iter()
            .map(|s| s.points.len())
            .max()
            .unwrap_or(0);
        for row in 0..rows {
            let x = self
                .series
                .iter()
                .find_map(|s| s.points.get(row))
                .map_or(0.0, |p| 100.0 * p.requested_fraction);
            out.push_str(&format!("{x:>11.1}%"));
            for s in &self.series {
                match s.points.get(row) {
                    Some(p) => out.push_str(&format!(
                        " | {:>17.2}% (sd {:>5.2})",
                        p.mean_adoption_pct, p.stddev_adoption_pct
                    )),
                    None => out.push_str(&format!(" | {:>28}", "-")),
                }
            }
            out.push('\n');
        }
        out
    }
}

impl fmt::Display for FigureReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render_table())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point(pct: f64, adoption: f64) -> SweepPoint {
        SweepPoint {
            requested_fraction: pct / 100.0,
            attacker_count: 1,
            attacker_pct: pct,
            mean_adoption_pct: adoption,
            stddev_adoption_pct: 0.5,
            mean_alarms: 1.0,
            mean_queries: 1.0,
            mean_messages: 100.0,
        }
    }

    fn figure() -> FigureReport {
        FigureReport::new(
            "fig9a",
            "Spoof-resilience, 1 origin AS",
            vec![
                SeriesReport {
                    label: "Normal BGP".into(),
                    points: vec![point(4.0, 36.0), point(30.0, 51.0)],
                },
                SeriesReport {
                    label: "Full MOAS Detection".into(),
                    points: vec![point(4.0, 0.15)],
                },
            ],
        )
    }

    #[test]
    fn table_contains_labels_and_rows() {
        let table = figure().render_table();
        assert!(table.contains("fig9a"));
        assert!(table.contains("Normal BGP"));
        assert!(table.contains("Full MOAS Detection"));
        assert!(table.contains("36.00%"));
        // Row 2 has no point for the second series: dash.
        assert!(table.contains('-'));
        assert_eq!(table.lines().count(), 4);
    }

    #[test]
    fn display_matches_table() {
        let fig = figure();
        assert_eq!(fig.to_string(), fig.render_table());
    }
}
