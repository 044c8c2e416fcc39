//! Statistics substrate for the CPI² reproduction.
//!
//! Everything statistical the paper relies on, implemented from scratch:
//!
//! * [`summary`] — streaming mean/σ (Welford), the machinery behind
//!   per-job CPI specs.
//! * [`histogram`] — histograms, empirical CDFs and quantiles for the
//!   paper's CDF figures.
//! * [`correlation`] — Pearson and autocorrelation for the motivation
//!   figures (TPS↔IPS, latency↔CPI, L3↔CPI).
//! * [`distribution`] / [`fit`] — normal, log-normal, Gamma and GEV with
//!   fitting and goodness-of-fit ranking (Fig. 7 model selection).
//! * [`ewma`] — the 0.9/day age weighting of historical CPI specs.
//! * [`rng`] — deterministic seedable RNG + samplers so every experiment
//!   is reproducible.
//! * [`name`] — [`Name`], the shared job and platform string every
//!   record of the detection chain carries.

#![warn(missing_docs)]

pub mod correlation;
pub mod distribution;
pub mod ewma;
pub mod fit;
pub mod histogram;
pub mod name;
pub mod optimize;
pub mod rng;
pub mod special;
pub mod summary;

pub use correlation::pearson;
pub use distribution::{ContinuousDist, Gamma, Gev, LogNormal, Normal};
pub use ewma::AgeWeighted;
pub use fit::{
    compare_fits, fit_gamma, fit_gev, fit_gev_mle, fit_lognormal, fit_normal, ks_p_value,
};
pub use histogram::{Ecdf, Histogram};
pub use name::Name;
pub use optimize::nelder_mead;
pub use rng::SimRng;
pub use summary::RunningStats;
