//! Statistical fleet mode: two-phase stratified sampling with
//! finite-population-corrected confidence intervals (DESIGN.md §12).
//!
//! Exhaustive simulation runs at ~1.5M machine-ticks/s (the benchmark's
//! `fleet_sparse` `work_per_s`, `benchmark/README.md`) — three orders of
//! magnitude short of a 10⁶-machine fleet. This module gets fleet-level
//! figures without exhaustive simulation: a [`Stratifier`] partitions the fleet description by platform × load
//! band × tenancy, a two-phase allocator spends a machine budget (pilot
//! phase measures per-stratum variance, the second phase allocates the
//! remainder Neyman-style), and a [`FleetEstimator`] extrapolates
//! incident rates, throttle totals and CPI spec moments with
//! stratum-weighted means and 95% confidence intervals.
//!
//! The construction is only trustworthy because every machine of the
//! described fleet is an *independent cell*: machine `i`'s simulation is
//! a pure function of `(fleet seed, i)`, so simulating a sampled subset
//! reproduces exactly what the exhaustive run would have produced for
//! those machines. The estimator-coverage test suite exploits the same
//! property to validate the CIs against exhaustive ground truth.
//!
//! All randomness (stratum assignment, within-stratum sampling order,
//! per-cell workloads) derives from the fleet seed through [`SimRng`] —
//! nothing here reads clocks, environment entropy or hash-map iteration
//! order, so a `(model, budget, seed)` triple fully determines the
//! output.

use cpi2::core::Cpi2Config;
use cpi2::harness::Cpi2Harness;
use cpi2::sim::{Cluster, ClusterConfig, JobSpec, Platform, SimDuration};
use cpi2::telemetry::Telemetry;
use cpi2::workloads::{self, TraceJob};
use cpi2_stats::rng::SimRng;
use cpi2_stats::special::norm_quantile;

/// Salt separating the stratum-assignment RNG stream from cell seeds.
const STRATUM_SALT: u64 = 0x57A7_1F1E_D000;
/// Salt separating the within-stratum sampling order from everything else.
const ORDER_SALT: u64 = 0x0DD_E4D0;
/// Salt for per-cell simulation seeds.
const CELL_SALT: u64 = 0xCE11_5EED;

/// Hardware platform class of a stratum (mirrors [`Platform`] catalog).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum PlatformClass {
    /// 12-core Westmere, 12 MB L3.
    Westmere,
    /// 16-core Sandy Bridge, 20 MB L3.
    SandyBridge,
    /// 8-core small node, 8 MB L3.
    SmallNode,
}

impl PlatformClass {
    /// The concrete platform for cells of this class.
    pub fn platform(self) -> Platform {
        match self {
            PlatformClass::Westmere => Platform::westmere(),
            PlatformClass::SandyBridge => Platform::sandy_bridge(),
            PlatformClass::SmallNode => Platform::small_node(),
        }
    }

    /// Short label for reports.
    pub fn label(self) -> &'static str {
        match self {
            PlatformClass::Westmere => "westmere",
            PlatformClass::SandyBridge => "sandybridge",
            PlatformClass::SmallNode => "smallnode",
        }
    }
}

/// Antagonist pressure band of a stratum.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LoadBand {
    /// No transient antagonists.
    Light,
    /// One transient cache thrasher during the measured window.
    Medium,
    /// A cache thrasher plus a memory-bandwidth hog.
    Heavy,
}

impl LoadBand {
    /// Short label for reports.
    pub fn label(self) -> &'static str {
        match self {
            LoadBand::Light => "light",
            LoadBand::Medium => "medium",
            LoadBand::Heavy => "heavy",
        }
    }
}

/// Tenancy band of a stratum: how crowded the machine's serving load is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TenancyBand {
    /// One five-task serving job.
    Sparse,
    /// Two serving jobs, eleven tasks.
    Dense,
}

impl TenancyBand {
    /// Short label for reports.
    pub fn label(self) -> &'static str {
        match self {
            TenancyBand::Sparse => "sparse",
            TenancyBand::Dense => "dense",
        }
    }
}

/// One stratum's identity: the cross product cell the machine falls in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StratumKey {
    /// Hardware platform class.
    pub platform: PlatformClass,
    /// Antagonist pressure band.
    pub load: LoadBand,
    /// Serving-load tenancy band.
    pub tenancy: TenancyBand,
}

impl StratumKey {
    /// `platform/load/tenancy` label for reports.
    pub fn label(&self) -> String {
        format!(
            "{}/{}/{}",
            self.platform.label(),
            self.load.label(),
            self.tenancy.label()
        )
    }

    /// Every possible key, in canonical (deterministic) order.
    pub fn all() -> Vec<StratumKey> {
        let mut keys = Vec::new();
        for platform in [
            PlatformClass::Westmere,
            PlatformClass::SandyBridge,
            PlatformClass::SmallNode,
        ] {
            for load in [LoadBand::Light, LoadBand::Medium, LoadBand::Heavy] {
                for tenancy in [TenancyBand::Sparse, TenancyBand::Dense] {
                    keys.push(StratumKey {
                        platform,
                        load,
                        tenancy,
                    });
                }
            }
        }
        keys
    }
}

/// Description of a fleet to sample: every machine index in
/// `0..machines` is an independent cell whose stratum and workload are a
/// pure function of `(seed, index)`.
#[derive(Debug, Clone)]
pub struct FleetModel {
    /// Fleet size (population `N`).
    pub machines: u32,
    /// Fleet seed: drives stratum assignment and every cell's workload.
    pub seed: u64,
    /// Spec warm-up per cell before the measured window.
    pub warmup: SimDuration,
    /// Measured window per cell (metrics are deltas over this window).
    pub measure: SimDuration,
}

impl FleetModel {
    /// A fleet of `machines` machines under `seed` with the default
    /// per-cell windows (1 h warm-up, 2 h measured).
    pub fn new(machines: u32, seed: u64) -> Self {
        FleetModel {
            machines,
            seed,
            warmup: SimDuration::from_hours(1),
            measure: SimDuration::from_hours(2),
        }
    }
}

/// One stratum of the partition: its key and every member machine index.
#[derive(Debug, Clone)]
pub struct Stratum {
    /// Stratum identity.
    pub key: StratumKey,
    /// Member machine indices, ascending.
    pub members: Vec<u32>,
}

/// Partitions a fleet description into strata.
pub struct Stratifier;

impl Stratifier {
    /// The stratum machine `index` of the fleet falls in: a seeded
    /// weighted draw over platform (50/30/20), load band (40/40/20) and
    /// tenancy (60/40) — mirroring a mostly-healthy production mix.
    pub fn stratum_of(model: &FleetModel, index: u32) -> StratumKey {
        let mut rng = SimRng::derive(model.seed ^ STRATUM_SALT, u64::from(index));
        let platform = match rng.weighted_index(&[5.0, 3.0, 2.0]) {
            0 => PlatformClass::Westmere,
            1 => PlatformClass::SandyBridge,
            _ => PlatformClass::SmallNode,
        };
        let load = match rng.weighted_index(&[4.0, 4.0, 2.0]) {
            0 => LoadBand::Light,
            1 => LoadBand::Medium,
            _ => LoadBand::Heavy,
        };
        let tenancy = match rng.weighted_index(&[3.0, 2.0]) {
            0 => TenancyBand::Sparse,
            _ => TenancyBand::Dense,
        };
        StratumKey {
            platform,
            load,
            tenancy,
        }
    }

    /// Partitions `0..machines` into strata: disjoint, exhaustive, in
    /// canonical key order, members ascending. Empty strata are dropped.
    pub fn partition(model: &FleetModel) -> Vec<Stratum> {
        let keys = StratumKey::all();
        let mut members: Vec<Vec<u32>> = keys.iter().map(|_| Vec::new()).collect();
        for index in 0..model.machines {
            let key = Self::stratum_of(model, index);
            if let Some(pos) = keys.iter().position(|k| *k == key) {
                if let Some(bucket) = members.get_mut(pos) {
                    bucket.push(index);
                }
            }
        }
        keys.into_iter()
            .zip(members)
            .filter(|(_, m)| !m.is_empty())
            .map(|(key, members)| Stratum { key, members })
            .collect()
    }
}

/// Tuning of the two-phase allocator.
#[derive(Debug, Clone)]
pub struct SamplingConfig {
    /// Total machine budget (pilot + second phase), cells.
    pub budget: u32,
    /// Pilot cells per stratum (capped by stratum size and budget).
    pub pilot_per_stratum: u32,
}

impl SamplingConfig {
    /// A budget with the default pilot size (4 cells per stratum).
    pub fn with_budget(budget: u32) -> Self {
        SamplingConfig {
            budget,
            pilot_per_stratum: 4,
        }
    }
}

/// Phase-1 pilot sizes: round-robin one cell at a time across strata (in
/// order) until each stratum reaches `min(pilot_per_stratum, N_h)` or the
/// budget is exhausted. Never exceeds `budget`; degenerates gracefully
/// when `budget < #strata` (later strata get zero pilots).
pub fn plan_pilot(populations: &[u32], budget: u32, pilot_per_stratum: u32) -> Vec<u32> {
    let mut pilots = vec![0u32; populations.len()];
    let mut left = budget;
    let mut progressed = true;
    while left > 0 && progressed {
        progressed = false;
        for (pilot, &pop) in pilots.iter_mut().zip(populations.iter()) {
            if left == 0 {
                break;
            }
            if *pilot < pilot_per_stratum.min(pop) {
                *pilot += 1;
                left -= 1;
                progressed = true;
            }
        }
    }
    pilots
}

/// Phase-2 Neyman allocation: splits the remaining budget across strata
/// proportionally to `N_h · s_h` (population × pilot standard deviation),
/// falling back to plain proportional (`N_h`) when every pilot variance
/// is zero. Uses largest-remainder rounding, caps each stratum at its
/// population, and redistributes capped surplus round-robin. Returns the
/// *final* per-stratum sample sizes (pilot included); the total never
/// exceeds `budget`.
pub fn plan_final(populations: &[u32], pilots: &[u32], pilot_std: &[f64], budget: u32) -> Vec<u32> {
    let mut finals: Vec<u32> = pilots.to_vec();
    let used: u32 = pilots.iter().sum();
    let mut left = budget.saturating_sub(used);
    if left == 0 {
        return finals;
    }

    // NaN counts as zero spread, matching `s.max(0.0)` in the weights.
    let all_zero = pilot_std.iter().all(|&s| s.max(0.0) == 0.0);
    let weights: Vec<f64> = populations
        .iter()
        .zip(pilot_std.iter())
        .map(|(&n, &s)| {
            if all_zero {
                f64::from(n)
            } else {
                f64::from(n) * s.max(0.0)
            }
        })
        .collect();
    let total_weight: f64 = weights.iter().sum();
    if total_weight > 0.0 {
        // Integer shares by largest remainder.
        let shares: Vec<f64> = weights
            .iter()
            .map(|w| f64::from(left) * w / total_weight)
            .collect();
        let mut granted = 0u32;
        for ((fin, &pop), &share) in finals.iter_mut().zip(populations.iter()).zip(shares.iter()) {
            let capacity = pop.saturating_sub(*fin);
            let base = (share.floor() as u32).min(capacity);
            *fin += base;
            granted += base;
        }
        left -= granted.min(left);
        // Remainder pass: biggest fractional part first (ties: stratum
        // order), one cell each, skipping full strata.
        let mut order: Vec<usize> = (0..shares.len()).collect();
        order.sort_by(|&a, &b| {
            let fa = shares.get(a).map_or(0.0, |s| s - s.floor());
            let fb = shares.get(b).map_or(0.0, |s| s - s.floor());
            fb.partial_cmp(&fa)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.cmp(&b))
        });
        for &i in &order {
            if left == 0 {
                break;
            }
            if let (Some(fin), Some(&pop)) = (finals.get_mut(i), populations.get(i)) {
                if *fin < pop {
                    *fin += 1;
                    left -= 1;
                }
            }
        }
    }
    // Capped surplus: round-robin over strata with remaining capacity.
    let mut progressed = true;
    while left > 0 && progressed {
        progressed = false;
        for (fin, &pop) in finals.iter_mut().zip(populations.iter()) {
            if left == 0 {
                break;
            }
            if *fin < pop {
                *fin += 1;
                left -= 1;
                progressed = true;
            }
        }
    }
    finals
}

/// Per-cell metrics over the measured window, as extrapolation targets.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CellMetrics {
    /// CPI outlier incidents raised during the window.
    pub incidents: f64,
    /// Incidents whose top suspect was throttle-eligible with correlation
    /// ≥ 0.35 (the paper's identification criterion).
    pub identifications: f64,
    /// CFS-bandwidth throttle events during the window.
    pub throttles: f64,
    /// Hard caps applied during the window.
    pub caps: f64,
    /// Mean published spec CPI at the end of the window (0 if none).
    pub spec_cpi: f64,
}

/// Metric names, in the order [`CellMetrics::get`] indexes them.
pub const METRIC_NAMES: [&str; 5] = [
    "incidents",
    "identifications",
    "throttles",
    "caps",
    "spec_cpi",
];

impl CellMetrics {
    /// Metric by index (order of [`METRIC_NAMES`]).
    pub fn get(&self, metric: usize) -> f64 {
        match metric {
            0 => self.incidents,
            1 => self.identifications,
            2 => self.throttles,
            3 => self.caps,
            _ => self.spec_cpi,
        }
    }
}

/// Simulates one cell: a single-machine cluster plus the full CPI²
/// harness, deterministic in `(model.seed, index)`. The workload follows
/// the cell's stratum: serving jobs per the tenancy band, transient
/// antagonists per the load band arriving *after* the spec warm-up, so
/// specs learn a clean baseline exactly as the paper's 24-hour refresh
/// does.
pub fn simulate_cell(model: &FleetModel, index: u32) -> CellMetrics {
    let key = Stratifier::stratum_of(model, index);
    let mut cell_rng = SimRng::derive(model.seed ^ CELL_SALT, u64::from(index));
    let cell_seed = cell_rng.next_u64();

    let mut cluster = Cluster::new(ClusterConfig {
        seed: cell_seed,
        overcommit: 2.0,
        parallelism: 1,
        telemetry: Telemetry::disabled(),
        ..ClusterConfig::default()
    });
    cluster.add_machines(&key.platform.platform(), 1);

    // Serving load per tenancy band. Every job has ≥ 5 tasks so its spec
    // clears the aggregation pipeline's min-task floor on this one
    // machine.
    cluster
        .submit_job(
            JobSpec::latency_sensitive("bigtable-tablet", 5, 0.6),
            true,
            workloads::factory("bigtable-tablet", cell_seed ^ 0xB16),
        )
        .expect("cell serving placement");
    if key.tenancy == TenancyBand::Dense {
        cluster
            .submit_job(
                JobSpec::latency_sensitive("image-frontend", 6, 0.5),
                true,
                workloads::factory("image-frontend", cell_seed ^ 0x1F0),
            )
            .expect("cell dense placement");
    }

    // Transient antagonists per load band, arriving a seeded offset into
    // the measured window (never during warm-up).
    let warmup_s = model.warmup.as_secs_f64() as i64;
    let measure_s = model.measure.as_secs_f64() as i64;
    let mut trace = Vec::new();
    let arrivals: &[&str] = match key.load {
        LoadBand::Light => &[],
        LoadBand::Medium => &["cache-thrasher"],
        LoadBand::Heavy => &["cache-thrasher", "membw-hog"],
    };
    for (i, name) in arrivals.iter().enumerate() {
        let offset = cell_rng.range_u64(60, (measure_s / 4).max(61) as u64) as i64;
        trace.push(TraceJob {
            at_s: warmup_s + offset,
            name: (*name).into(),
            class: "best-effort".into(),
            tasks: 1,
            cpu: 1.0,
            seed: cell_seed ^ (0xA17 + i as u64),
            duration_s: Some((measure_s / 2).max(600)),
        });
    }
    workloads::schedule_trace(&mut cluster, &trace);

    let mut system = Cpi2Harness::new(
        cluster,
        Cpi2Config {
            min_samples_per_task: 5,
            ..Cpi2Config::default()
        },
    );

    // Warm up specs on the clean machine, then publish and measure.
    system.run_for(model.warmup);
    system.force_spec_refresh();
    let caps_before = system.caps_applied();
    let throttles_before: u64 = system
        .cluster
        .machines()
        .iter()
        .map(|m| m.throttle_events())
        .sum();
    system.run_for(model.measure);

    let measure_start_us = model.warmup.as_us();
    let mut incidents = 0u32;
    let mut identifications = 0u32;
    for mi in system.incidents() {
        if mi.incident.at < measure_start_us {
            continue;
        }
        incidents += 1;
        if mi
            .incident
            .top_suspect()
            .is_some_and(|s| s.class.throttle_eligible() && s.correlation >= 0.35)
        {
            identifications += 1;
        }
    }
    let throttles_after: u64 = system
        .cluster
        .machines()
        .iter()
        .map(|m| m.throttle_events())
        .sum();
    let specs = system.spec_store.changed_since(0);
    let spec_cpi = if specs.is_empty() {
        0.0
    } else {
        specs.iter().map(|s| s.cpi_mean).sum::<f64>() / specs.len() as f64
    };

    CellMetrics {
        incidents: f64::from(incidents),
        identifications: f64::from(identifications),
        throttles: (throttles_after - throttles_before) as f64,
        caps: (system.caps_applied() - caps_before) as f64,
        spec_cpi,
    }
}

/// One metric's fleet-level estimate with a finite-population-corrected
/// 95% confidence interval.
#[derive(Debug, Clone, Copy)]
pub struct Estimate {
    /// Stratum-weighted per-machine mean `ȳ_st = Σ W_h ȳ_h`.
    pub mean: f64,
    /// Standard error of the mean, `√(Σ W_h² (1 − n_h/N_h) s_h²/n_h)`.
    pub se: f64,
    /// Fleet total `N · ȳ_st`.
    pub total: f64,
    /// Lower bound of the 95% CI on the fleet total.
    pub total_lo: f64,
    /// Upper bound of the 95% CI on the fleet total.
    pub total_hi: f64,
}

impl Estimate {
    /// Width of the 95% CI on the fleet total.
    pub fn total_width(&self) -> f64 {
        self.total_hi - self.total_lo
    }

    /// Whether `truth` lies inside the 95% CI on the fleet total.
    pub fn covers(&self, truth: f64) -> bool {
        truth >= self.total_lo && truth <= self.total_hi
    }
}

/// Per-stratum samples of one fleet: population plus the measured cells.
#[derive(Debug, Clone)]
pub struct StratumSamples {
    /// Stratum identity.
    pub key: StratumKey,
    /// Stratum population `N_h`.
    pub population: u32,
    /// Measured cells (pilot + second phase).
    pub samples: Vec<CellMetrics>,
}

/// Extrapolates fleet-level figures from per-stratum samples.
#[derive(Debug, Clone)]
pub struct FleetEstimator {
    /// Fleet population `N`.
    pub population: u32,
    /// Per-stratum samples.
    pub strata: Vec<StratumSamples>,
}

impl FleetEstimator {
    /// Estimate for metric `metric` (index into [`METRIC_NAMES`]).
    ///
    /// Classical stratified estimator: mean `Σ W_h ȳ_h` with variance
    /// `Σ W_h² (1 − n_h/N_h) s_h²/n_h` (finite population correction per
    /// stratum). Degenerate strata contribute no variance: a census
    /// stratum (`n_h = N_h`) has zero FPC, a single-sample or unsampled
    /// stratum has no measurable variance (documented limitation — its
    /// uncertainty is understated, which the coverage suite bounds).
    pub fn estimate(&self, metric: usize) -> Estimate {
        let n_total = f64::from(self.population.max(1));
        let mut mean = 0.0f64;
        let mut variance = 0.0f64;
        for stratum in &self.strata {
            let n_h = f64::from(stratum.population);
            let w_h = n_h / n_total;
            let sampled = stratum.samples.len();
            if sampled == 0 {
                continue;
            }
            let m = sampled as f64;
            let ybar: f64 = stratum.samples.iter().map(|c| c.get(metric)).sum::<f64>() / m;
            mean += w_h * ybar;
            if sampled >= 2 {
                let s2: f64 = stratum
                    .samples
                    .iter()
                    .map(|c| {
                        let d = c.get(metric) - ybar;
                        d * d
                    })
                    .sum::<f64>()
                    / (m - 1.0);
                let fpc = (1.0 - m / n_h).max(0.0);
                variance += w_h * w_h * fpc * s2 / m;
            }
        }
        let se = variance.max(0.0).sqrt();
        let z = norm_quantile(0.975);
        let total = n_total * mean;
        Estimate {
            mean,
            se,
            total,
            total_lo: n_total * (mean - z * se),
            total_hi: n_total * (mean + z * se),
        }
    }

    /// Estimates for every metric, in [`METRIC_NAMES`] order.
    pub fn all_estimates(&self) -> Vec<Estimate> {
        (0..METRIC_NAMES.len()).map(|m| self.estimate(m)).collect()
    }

    /// Cells actually simulated (Σ n_h).
    pub fn cells_sampled(&self) -> u32 {
        self.strata.iter().map(|s| s.samples.len() as u32).sum()
    }
}

/// One stratum's allocation in a sampled run, for reports.
#[derive(Debug, Clone)]
pub struct PlannedStratum {
    /// Stratum identity.
    pub key: StratumKey,
    /// Stratum population `N_h`.
    pub population: u32,
    /// Pilot cells measured in phase 1.
    pub pilot: u32,
    /// Final cells measured (pilot included).
    pub sampled: u32,
}

/// Result of a sampled fleet run: the allocation and the estimator.
#[derive(Debug, Clone)]
pub struct SampledFleet {
    /// Per-stratum allocation.
    pub plan: Vec<PlannedStratum>,
    /// The loaded estimator (call [`FleetEstimator::estimate`]).
    pub estimator: FleetEstimator,
}

/// Runs the two-phase sampled fleet: partition, pilot, Neyman second
/// phase, estimator. `metrics` maps a machine index to its cell metrics —
/// production callers pass [`simulate_cell`]; tests inject a cache so
/// exhaustive and sampled runs share one simulation per machine (valid
/// because cells are independent and per-index deterministic).
///
/// The pilot's incident counts drive the Neyman weights (`N_h · s_h`).
/// Within each stratum the sampled members are a seeded-shuffle prefix,
/// so the pilot is a subset of the final sample and no cell is simulated
/// twice.
pub fn run_sampled(
    model: &FleetModel,
    cfg: &SamplingConfig,
    metrics: &mut dyn FnMut(u32) -> CellMetrics,
) -> SampledFleet {
    let strata = Stratifier::partition(model);
    // Deterministic within-stratum order: one seeded shuffle per stratum.
    let shuffled: Vec<Vec<u32>> = strata
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let mut members = s.members.clone();
            SimRng::derive(model.seed ^ ORDER_SALT, i as u64).shuffle(&mut members);
            members
        })
        .collect();
    let populations: Vec<u32> = strata.iter().map(|s| s.members.len() as u32).collect();

    // Phase 1: pilots.
    let pilots = plan_pilot(&populations, cfg.budget, cfg.pilot_per_stratum);
    let mut samples: Vec<Vec<CellMetrics>> = shuffled
        .iter()
        .zip(pilots.iter())
        .map(|(members, &pilot)| {
            members
                .iter()
                .take(pilot as usize)
                .map(|&idx| metrics(idx))
                .collect()
        })
        .collect();

    // Pilot incident std per stratum → Neyman weights for phase 2.
    let pilot_std: Vec<f64> = samples
        .iter()
        .map(|cells| {
            if cells.len() < 2 {
                return 0.0;
            }
            let m = cells.len() as f64;
            let mean = cells.iter().map(|c| c.incidents).sum::<f64>() / m;
            let s2 = cells
                .iter()
                .map(|c| {
                    let d = c.incidents - mean;
                    d * d
                })
                .sum::<f64>()
                / (m - 1.0);
            s2.sqrt()
        })
        .collect();

    // Phase 2: extend each stratum's shuffled prefix to its final size.
    let finals = plan_final(&populations, &pilots, &pilot_std, cfg.budget);
    for ((cells, members), &fin) in samples.iter_mut().zip(shuffled.iter()).zip(finals.iter()) {
        for &idx in members.iter().take(fin as usize).skip(cells.len()) {
            cells.push(metrics(idx));
        }
    }

    let plan: Vec<PlannedStratum> = strata
        .iter()
        .zip(populations.iter())
        .zip(pilots.iter().zip(finals.iter()))
        .map(|((s, &population), (&pilot, &sampled))| PlannedStratum {
            key: s.key,
            population,
            pilot,
            sampled,
        })
        .collect();
    let estimator = FleetEstimator {
        population: model.machines,
        strata: strata
            .iter()
            .zip(samples)
            .map(|(s, samples)| StratumSamples {
                key: s.key,
                population: s.members.len() as u32,
                samples,
            })
            .collect(),
    };
    SampledFleet { plan, estimator }
}

/// Exhaustive ground truth: every cell simulated, metrics summed (means
/// for `spec_cpi`). The estimator-coverage suite compares sampled CIs
/// against these totals.
#[derive(Debug, Clone, Copy, Default)]
pub struct FleetTotals {
    /// Total incidents across the fleet's measured windows.
    pub incidents: f64,
    /// Total paper-criterion identifications.
    pub identifications: f64,
    /// Total CFS throttle events.
    pub throttles: f64,
    /// Total hard caps applied.
    pub caps: f64,
    /// Fleet mean of per-cell spec CPI.
    pub spec_cpi_mean: f64,
}

impl FleetTotals {
    /// Ground-truth fleet figure for metric `metric` on the same scale as
    /// [`Estimate::total`] (totals for counts, `N ×` mean for `spec_cpi`).
    pub fn for_metric(&self, metric: usize, machines: u32) -> f64 {
        match metric {
            0 => self.incidents,
            1 => self.identifications,
            2 => self.throttles,
            3 => self.caps,
            _ => self.spec_cpi_mean * f64::from(machines),
        }
    }
}

/// Sums every cell of the fleet through `metrics` (the exhaustive run).
pub fn exhaustive_totals(
    model: &FleetModel,
    metrics: &mut dyn FnMut(u32) -> CellMetrics,
) -> FleetTotals {
    let mut totals = FleetTotals::default();
    for index in 0..model.machines {
        let c = metrics(index);
        totals.incidents += c.incidents;
        totals.identifications += c.identifications;
        totals.throttles += c.throttles;
        totals.caps += c.caps;
        totals.spec_cpi_mean += c.spec_cpi;
    }
    if model.machines > 0 {
        totals.spec_cpi_mean /= f64::from(model.machines);
    }
    totals
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stratum_assignment_is_deterministic() {
        let model = FleetModel::new(64, 7);
        for index in 0..64 {
            assert_eq!(
                Stratifier::stratum_of(&model, index),
                Stratifier::stratum_of(&model, index)
            );
        }
    }

    #[test]
    fn pilot_never_exceeds_budget() {
        let pilots = plan_pilot(&[10, 10, 10], 5, 4);
        assert_eq!(pilots.iter().sum::<u32>(), 5);
        let pilots = plan_pilot(&[2, 10], 100, 4);
        assert_eq!(pilots, vec![2, 4]);
    }

    #[test]
    fn final_allocation_respects_budget_and_population() {
        let populations = [100u32, 50, 10];
        let pilots = plan_pilot(&populations, 40, 4);
        let finals = plan_final(&populations, &pilots, &[2.0, 1.0, 0.0], 40);
        assert!(finals.iter().sum::<u32>() <= 40);
        for (f, p) in finals.iter().zip(populations.iter()) {
            assert!(f <= p);
        }
        // Zero-variance stratum keeps only its pilot.
        assert_eq!(finals[2], pilots[2]);
    }

    #[test]
    fn estimator_census_has_zero_width() {
        // Sampling every member of every stratum leaves no sampling
        // uncertainty: FPC zeroes the variance.
        let samples: Vec<CellMetrics> = (0..4)
            .map(|i| CellMetrics {
                incidents: f64::from(i),
                ..CellMetrics::default()
            })
            .collect();
        let est = FleetEstimator {
            population: 4,
            strata: vec![StratumSamples {
                key: StratumKey {
                    platform: PlatformClass::Westmere,
                    load: LoadBand::Light,
                    tenancy: TenancyBand::Sparse,
                },
                population: 4,
                samples,
            }],
        }
        .estimate(0);
        assert!((est.total - 6.0).abs() < 1e-9);
        assert!(est.total_width() < 1e-9);
    }
}
