//! ASCII line plots for the figure regenerators.
//!
//! The paper's Figures 3 and 5 are line plots (one series per
//! implementation); this module renders the same series as a terminal
//! chart so the regenerated output is visually comparable to the paper.

/// One plotted series.
#[derive(Debug, Clone)]
pub struct Series {
    /// Legend label.
    pub label: String,
    /// y value per x position (same length as the x axis).
    pub ys: Vec<f64>,
}

/// Render a chart of `series` over categorical x labels.
///
/// `log_y` plots log10(y) — the natural scale for the latency figures where
/// series span orders of magnitude.
pub fn line_chart(
    title: &str,
    x_labels: &[String],
    series: &[Series],
    height: usize,
    log_y: bool,
) -> String {
    assert!(height >= 2, "chart needs at least two rows");
    assert!(!series.is_empty(), "need at least one series");
    for s in series {
        assert_eq!(s.ys.len(), x_labels.len(), "series '{}' length mismatch", s.label);
    }
    let transform = |v: f64| if log_y { v.max(f64::MIN_POSITIVE).log10() } else { v };
    let all: Vec<f64> = series.iter().flat_map(|s| s.ys.iter().map(|&v| transform(v))).collect();
    let (mut lo, mut hi) =
        all.iter().fold((f64::INFINITY, f64::NEG_INFINITY), |(l, h), &v| (l.min(v), h.max(v)));
    if (hi - lo).abs() < 1e-12 {
        hi = lo + 1.0;
        lo -= 1.0;
    }
    let marks: &[u8] = b"*o+x#@%&";
    // Columns size to the widest x label (plus breathing room) instead of a
    // fixed 8 chars: a long label previously overflowed its column and pushed
    // every later label out of alignment with its data points.
    let col_width = x_labels.iter().map(|l| l.len() + 2).max().unwrap_or(0).max(8);
    let width = x_labels.len() * col_width;
    let mut grid = vec![vec![b' '; width]; height];
    for (si, s) in series.iter().enumerate() {
        let mark = marks[si % marks.len()];
        let mut prev: Option<(usize, usize)> = None;
        for (xi, &y) in s.ys.iter().enumerate() {
            let t = (transform(y) - lo) / (hi - lo);
            let row = ((1.0 - t) * (height - 1) as f64).round() as usize;
            let col = xi * col_width + col_width / 2;
            // Connect with a crude vertical run to the previous point.
            if let Some((prow, pcol)) = prev {
                let (a, b) = if prow < row { (prow, row) } else { (row, prow) };
                #[allow(clippy::needless_range_loop)]
                // r is a row coordinate, not an iterator index
                for r in a..=b {
                    let c = (pcol + col) / 2;
                    if grid[r][c] == b' ' {
                        grid[r][c] = b'.';
                    }
                }
            }
            grid[row][col] = mark;
            prev = Some((row, col));
        }
    }
    let mut out = String::new();
    out.push_str(title);
    out.push('\n');
    let fmt_y = |v: f64| {
        let raw = if log_y { 10f64.powf(v) } else { v };
        if raw >= 1e6 {
            format!("{raw:.2e}")
        } else {
            format!("{raw:.2}")
        }
    };
    // The y gutter sizes to the widest label (a negative or 6-digit value
    // previously overflowed the fixed 9 chars and bent the axis).
    let y_labels: Vec<String> =
        (0..height).map(|r| fmt_y(hi - (hi - lo) * r as f64 / (height - 1) as f64)).collect();
    let gutter = y_labels.iter().map(|l| l.len()).max().unwrap_or(0).max(9);
    for (label, row) in y_labels.iter().zip(&grid) {
        out.push_str(&format!("{label:>gutter$}"));
        out.push_str(" |");
        out.push_str(std::str::from_utf8(row).expect("ascii"));
        out.push('\n');
    }
    out.push_str(&" ".repeat(gutter));
    out.push_str(" +");
    out.push_str(&"-".repeat(width));
    out.push('\n');
    out.push_str(&" ".repeat(gutter + 2));
    for l in x_labels {
        out.push_str(&format!("{l:^col_width$}"));
    }
    out.push('\n');
    out.push_str("  legend: ");
    for (si, s) in series.iter().enumerate() {
        out.push_str(&format!("{}={}  ", marks[si % marks.len()] as char, s.label));
    }
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xs(n: usize) -> Vec<String> {
        (0..n).map(|i| i.to_string()).collect()
    }

    #[test]
    fn renders_all_series_marks() {
        let s = vec![
            Series { label: "a".into(), ys: vec![1.0, 2.0, 3.0] },
            Series { label: "b".into(), ys: vec![3.0, 2.0, 1.0] },
        ];
        let out = line_chart("t", &xs(3), &s, 10, false);
        assert!(out.contains('*'));
        assert!(out.contains('o'));
        assert!(out.contains("legend"));
        assert!(out.contains("a"));
    }

    #[test]
    fn log_scale_compresses_magnitudes() {
        let s = vec![Series { label: "big".into(), ys: vec![1.0, 1e6] }];
        let out = line_chart("t", &xs(2), &s, 8, true);
        // Axis top label should be near 1e6 in linear units.
        assert!(out.contains("e6") || out.contains("1000000") || out.contains("1.00e6"), "{out}");
    }

    #[test]
    fn flat_series_does_not_panic() {
        let s = vec![Series { label: "flat".into(), ys: vec![5.0, 5.0, 5.0] }];
        let out = line_chart("t", &xs(3), &s, 5, false);
        assert!(out.contains('*'));
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_series_rejected() {
        let s = vec![Series { label: "x".into(), ys: vec![1.0] }];
        line_chart("t", &xs(3), &s, 5, false);
    }

    #[test]
    fn long_labels_and_wide_values_stay_aligned() {
        // A 16-char x label and a negative 6-digit y value: both overflowed
        // the old fixed-width gutters.
        let labels = vec!["bw=1B/cy".to_string(), "bw=64B/cy (peak)".to_string()];
        let s = vec![Series { label: "a".into(), ys: vec![-123456.7, 400000.0] }];
        let out = line_chart("t", &labels, &s, 6, false);
        let lines: Vec<&str> = out.lines().collect();
        let bar_col = lines[1].find('|').expect("axis bar");
        for l in &lines[1..=6] {
            assert_eq!(l.find('|'), Some(bar_col), "axis bars align:\n{out}");
        }
        assert_eq!(lines[7].find('+'), Some(bar_col), "corner under the bars:\n{out}");
        assert!(lines[8].contains("bw=64B/cy (peak)"), "long label intact:\n{out}");
        // Each label is centered in its own column: the second column starts
        // after the first, so the long label begins past column one.
        let col_width = labels.iter().map(|l| l.len() + 2).max().unwrap().max(8);
        let second = lines[8].find("bw=64B/cy (peak)").unwrap();
        assert!(second >= bar_col + 2 + col_width, "second label in second column:\n{out}");
    }

    #[test]
    fn monotone_series_monotone_rows() {
        // The highest y should appear on an earlier (upper) row than the lowest.
        let s = vec![Series { label: "up".into(), ys: vec![1.0, 10.0] }];
        let out = line_chart("t", &xs(2), &s, 12, false);
        let rows: Vec<&str> = out.lines().collect();
        let first_mark = rows.iter().position(|r| r.contains('*')).unwrap();
        let last_mark = rows.iter().rposition(|r| r.contains('*')).unwrap();
        assert!(first_mark < last_mark);
    }
}
