//! Plain-text table / series rendering for the figure regenerators.

/// Render a table: `row_label` column followed by one column per header.
///
/// # Panics
/// Panics when a row carries more cells than there are column headers — the
/// extra cells have no column (and previously indexed past the width table).
pub fn render(
    title: &str,
    row_header: &str,
    col_headers: &[String],
    rows: &[(String, Vec<String>)],
) -> String {
    for (label, cells) in rows {
        assert!(
            cells.len() <= col_headers.len(),
            "table '{title}': row '{label}' has {} cells but only {} column headers",
            cells.len(),
            col_headers.len(),
        );
    }
    let mut widths: Vec<usize> = Vec::new();
    widths.push(row_header.len().max(rows.iter().map(|(l, _)| l.len()).max().unwrap_or(0)));
    for (i, h) in col_headers.iter().enumerate() {
        let w = h
            .len()
            .max(rows.iter().map(|(_, cs)| cs.get(i).map_or(0, |c| c.len())).max().unwrap_or(0));
        widths.push(w);
    }
    let mut out = String::new();
    out.push_str(title);
    out.push('\n');
    let mut line = format!("{:<w$}", row_header, w = widths[0]);
    for (i, h) in col_headers.iter().enumerate() {
        line.push_str(&format!("  {:>w$}", h, w = widths[i + 1]));
    }
    out.push_str(&line);
    out.push('\n');
    out.push_str(&"-".repeat(line.len()));
    out.push('\n');
    for (label, cells) in rows {
        out.push_str(&format!("{:<w$}", label, w = widths[0]));
        for (i, c) in cells.iter().enumerate() {
            out.push_str(&format!("  {:>w$}", c, w = widths[i + 1]));
        }
        out.push('\n');
    }
    out
}

/// Format a slowdown with the paper's green→red color coding as an ASCII
/// marker: values near 1.0 are plain, large slowdowns get `!` flags.
pub fn slowdown_cell(s: f64) -> String {
    let flag = if s < 1.15 {
        ""
    } else if s < 2.0 {
        "*"
    } else if s < 4.0 {
        "**"
    } else {
        "!!"
    };
    format!("{s:.2}{flag}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let t = render(
            "T",
            "lat",
            &["scalar".into(), "vl=256".into()],
            &[
                ("0".into(), vec!["1.00".into(), "1.00".into()]),
                ("1024".into(), vec!["8.78".into(), "3.39".into()]),
            ],
        );
        assert!(t.contains("scalar"));
        assert!(t.contains("8.78"));
        let lines: Vec<&str> = t.lines().collect();
        assert!(lines.len() >= 5);
        // Header and data lines are equally long (alignment).
        assert_eq!(lines[1].len(), lines[3].len());
    }

    #[test]
    fn short_rows_render_with_trailing_columns_empty() {
        let t = render(
            "T",
            "lat",
            &["a".into(), "b".into(), "c".into()],
            &[("0".into(), vec!["1.00".into()])],
        );
        assert!(t.contains("1.00"));
    }

    #[test]
    #[should_panic(expected = "has 3 cells but only 2 column headers")]
    fn oversized_row_is_rejected_with_a_clear_message() {
        render(
            "T",
            "lat",
            &["a".into(), "b".into()],
            &[("0".into(), vec!["1".into(), "2".into(), "3".into()])],
        );
    }

    #[test]
    fn slowdown_flags() {
        assert_eq!(slowdown_cell(1.0), "1.00");
        assert_eq!(slowdown_cell(1.5), "1.50*");
        assert_eq!(slowdown_cell(3.0), "3.00**");
        assert_eq!(slowdown_cell(8.78), "8.78!!");
    }
}
