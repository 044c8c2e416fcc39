//! Terminal rendering of the paper's tables and figures.
//!
//! Every experiment prints its series/rows through these helpers so the
//! output can be compared side-by-side with the paper's artwork. After
//! [`write_svgs_to`], every plot is additionally written there as an SVG
//! file (named from its title).

use std::path::PathBuf;
use std::sync::OnceLock;

static SVG_DIR: OnceLock<PathBuf> = OnceLock::new();

/// Makes every later plot of this process also write an SVG under `dir`.
/// `repro` calls it once, before the entry runs, when recording.
pub fn write_svgs_to(dir: PathBuf) {
    SVG_DIR
        .set(dir)
        .expect("the SVG directory is set once per process");
}

/// Prints a fixed-width table with a header row.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: &[String]| {
        let mut s = String::new();
        for (i, c) in cells.iter().enumerate() {
            s.push_str(&format!(
                "{:<w$}  ",
                c,
                w = widths.get(i).copied().unwrap_or(8)
            ));
        }
        s
    };
    println!(
        "{}",
        line(&headers.iter().map(|h| h.to_string()).collect::<Vec<_>>())
    );
    println!(
        "{}",
        "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len())
    );
    for row in rows {
        println!("{}", line(row));
    }
}

/// Renders an x/y scatter as an ASCII plot.
pub fn scatter(title: &str, xlabel: &str, ylabel: &str, points: &[(f64, f64)]) {
    plot_impl(title, xlabel, ylabel, &[("", points)], 72, 20);
    maybe_svg(title, xlabel, ylabel, &[("", points)], false);
}

/// Renders multiple named series on one ASCII plot (distinct glyphs).
pub fn multi_series(title: &str, xlabel: &str, ylabel: &str, series: &[(&str, &[(f64, f64)])]) {
    let owned: Vec<(&str, &[(f64, f64)])> = series.to_vec();
    plot_impl(title, xlabel, ylabel, &owned, 72, 20);
    maybe_svg(title, xlabel, ylabel, series, false);
}

/// Writes the plot to `<svg dir>/<slug>.svg` once [`write_svgs_to`] ran.
fn maybe_svg(
    title: &str,
    xlabel: &str,
    ylabel: &str,
    series: &[(&str, &[(f64, f64)])],
    lines: bool,
) {
    let Some(dir) = SVG_DIR.get() else {
        return;
    };
    let slug: String = title
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
        .join("_");
    let path = dir.join(format!("{slug}.svg"));
    // A lost figure is a failed entry, not a warning scrolling past on
    // stderr: a partial `repro check` would not notice it missing.
    crate::svg::save(&path, title, xlabel, ylabel, series, lines)
        .unwrap_or_else(|e| panic!("svg: could not write {}: {e}", path.display()));
}

const GLYPHS: [char; 6] = ['*', 'o', '+', 'x', '#', '@'];

fn plot_impl(
    title: &str,
    xlabel: &str,
    ylabel: &str,
    series: &[(&str, &[(f64, f64)])],
    width: usize,
    height: usize,
) {
    println!("\n== {title} ==");
    let all: Vec<(f64, f64)> = series
        .iter()
        .flat_map(|(_, pts)| pts.iter().copied())
        .filter(|(x, y)| x.is_finite() && y.is_finite())
        .collect();
    if all.is_empty() {
        println!("(no data)");
        return;
    }
    let (mut xmin, mut xmax) = (f64::INFINITY, f64::NEG_INFINITY);
    let (mut ymin, mut ymax) = (f64::INFINITY, f64::NEG_INFINITY);
    for &(x, y) in &all {
        xmin = xmin.min(x);
        xmax = xmax.max(x);
        ymin = ymin.min(y);
        ymax = ymax.max(y);
    }
    if (xmax - xmin).abs() < 1e-12 {
        xmax = xmin + 1.0;
    }
    if (ymax - ymin).abs() < 1e-12 {
        ymax = ymin + 1.0;
    }
    let mut grid = vec![vec![' '; width]; height];
    for (si, (_, pts)) in series.iter().enumerate() {
        let glyph = GLYPHS[si % GLYPHS.len()];
        for &(x, y) in pts.iter() {
            if !(x.is_finite() && y.is_finite()) {
                continue;
            }
            let cx = ((x - xmin) / (xmax - xmin) * (width - 1) as f64).round() as usize;
            let cy = ((y - ymin) / (ymax - ymin) * (height - 1) as f64).round() as usize;
            let row = height - 1 - cy.min(height - 1);
            grid[row][cx.min(width - 1)] = glyph;
        }
    }
    for (si, (name, _)) in series.iter().enumerate() {
        if !name.is_empty() {
            println!("  {} {}", GLYPHS[si % GLYPHS.len()], name);
        }
    }
    println!("{ymax:>10.3} +{}", "-".repeat(width));
    for (i, row) in grid.iter().enumerate() {
        let label = if i == height / 2 {
            format!("{ylabel:>10}")
        } else {
            " ".repeat(10)
        };
        println!("{label} |{}", row.iter().collect::<String>());
    }
    println!("{ymin:>10.3} +{}", "-".repeat(width));
    println!(
        "{:>11}{:<w$}{:>8}",
        format!("{xmin:.3}"),
        format!("  [{xlabel}]"),
        format!("{xmax:.3}"),
        w = width - 8
    );
}

/// Prints a CDF as an ASCII plot from raw observations.
pub fn cdf(title: &str, xlabel: &str, values: &[f64], points: usize) {
    if values.is_empty() {
        println!("\n== {title} ==\n(no data)");
        return;
    }
    let e = cpi2_stats::Ecdf::new(values.to_vec());
    let series = e.series(points);
    plot_impl(title, xlabel, "CDF", &[("", &series)], 72, 16);
    maybe_svg(title, xlabel, "CDF", &[("", &series)], true);
}

/// Formats a float compactly for table cells.
pub fn f(v: f64) -> String {
    if v.abs() >= 1000.0 {
        format!("{v:.0}")
    } else {
        format!("{v:.3}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders() {
        print_table(
            "t",
            &["a", "b"],
            &[vec!["1".into(), "2".into()], vec!["333".into(), "4".into()]],
        );
    }

    #[test]
    fn scatter_handles_degenerate_input() {
        scatter("deg", "x", "y", &[(1.0, 1.0)]);
        scatter("empty", "x", "y", &[]);
        scatter("nan", "x", "y", &[(f64::NAN, 1.0)]);
    }

    #[test]
    fn cdf_renders() {
        cdf("c", "v", &[1.0, 2.0, 3.0, 4.0], 10);
    }

    #[test]
    fn format_helper() {
        assert_eq!(f(1234.6), "1235");
        assert_eq!(f(0.1234), "0.123");
    }
}
