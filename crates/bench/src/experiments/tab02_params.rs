//! Table 2: CPI² parameters and their default values.
//!
//! Prints the live configuration defaults and checks them against the
//! paper's table verbatim.

use crate::plot;
use cpi2::core::Cpi2Config;

pub(crate) fn run() {
    let config = Cpi2Config::default();
    let rows: Vec<Vec<String>> = config
        .table2_rows()
        .into_iter()
        .map(|(k, v)| vec![k, v])
        .collect();
    plot::print_table(
        "Table 2: CPI2 parameters and default values",
        &["Parameter", "Value"],
        &rows,
    );

    // Verbatim checks against the paper.
    assert_eq!(config.sampling_duration_s, 10);
    assert_eq!(config.sampling_period_s, 60);
    assert_eq!(config.spec_refresh_hours, 24);
    assert_eq!(config.min_cpu_usage, 0.25);
    assert_eq!(config.outlier_sigma, 2.0);
    assert_eq!(config.violations_required, 3);
    assert_eq!(config.violation_window_s, 300);
    assert_eq!(config.correlation_threshold, 0.35);
    assert_eq!(config.cap_batch, 0.1);
    assert_eq!(config.cap_best_effort, 0.01);
    assert_eq!(config.cap_duration_s, 300);
    println!("\ntab02 OK (all defaults match the paper)");
}
