//! The shared-resource interference model.
//!
//! This is the *physical phenomenon* CPI² detects: co-running tasks compete
//! for last-level cache capacity and memory bandwidth, inflating each
//! other's CPI (§1). The model has two coupled parts:
//!
//! 1. **Cache occupancy.** Each active task claims L3 proportionally to its
//!    working set and activity. When total demand exceeds capacity every
//!    task retains only `L3 / demand` of its hot set, and its L3
//!    misses-per-kilo-instruction (MPKI) inflate by its *cache
//!    sensitivity*.
//! 2. **Memory-bandwidth queueing.** The resulting aggregate miss traffic
//!    loads the memory controllers; utilization ρ inflates the effective
//!    miss penalty by an M/M/1-style factor `1 + β·ρ/(1−ρ)`.
//!
//! CPI and miss traffic are mutually dependent (more stall cycles → fewer
//! instructions → less traffic), so the model runs a short fixed-point
//! iteration. Everything here is deterministic; per-tick noise is applied
//! by the machine.
//!
//! The solve comes in two halves, `solve_begin` (cache occupancy, MPKI,
//! starting CPI) and `solve_pass` (one damped fixed-point pass), and
//! [`compute_cols`] is the first followed by `iterations` of the second.
//! The machine tick calls the halves directly so that the passes of
//! several independent machines can run side by side.

use crate::platform::Platform;
use crate::task::ResourceProfile;

/// Machine-level summary of the contention state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ContentionSummary {
    /// Aggregate hot-set demand on the L3, in MB.
    pub cache_demand_mb: f64,
    /// Memory-bandwidth utilization ρ in `[0, 1)`.
    pub mem_utilization: f64,
}

/// Tuning constants of the interference model.
#[derive(Debug, Clone, Copy)]
pub struct InterferenceParams {
    /// MPKI inflation per unit cache loss per unit sensitivity.
    pub cache_slope: f64,
    /// Queueing-delay weight β on the miss penalty.
    pub queue_beta: f64,
    /// Utilization clamp to keep the queueing factor finite.
    pub rho_max: f64,
    /// Fixed-point iterations.
    pub iterations: u32,
    /// Damping factor on the CPI update in `(0, 1]`: 1 = undamped. Damping
    /// keeps the bandwidth fixed point stable for extreme memory hogs,
    /// whose instruction rate and miss traffic otherwise oscillate.
    pub damping: f64,
}

impl Default for InterferenceParams {
    fn default() -> Self {
        InterferenceParams {
            cache_slope: 4.0,
            queue_beta: 0.35,
            rho_max: 0.95,
            iterations: 6,
            damping: 0.5,
        }
    }
}

/// Struct-of-arrays view of the per-task [`ResourceProfile`] fields the
/// interference model reads: one contiguous column per field, indexed in
/// task order. The fixed point streams these columns instead of hopping
/// across an array of profile structs; callers (the machine tick) fill
/// them once per tick.
#[derive(Debug, Default)]
pub struct ProfileColumns {
    /// Hot working-set size per task, MB.
    pub cache_mb: Vec<f64>,
    /// MPKI inflation sensitivity to cache loss per task.
    pub cache_sensitivity: Vec<f64>,
    /// Solo L3 misses per kilo-instruction per task.
    pub mpki_solo: Vec<f64>,
    /// Uncontended CPI per task.
    pub base_cpi: Vec<f64>,
}

impl ProfileColumns {
    /// Clears every column (capacity retained).
    pub fn clear(&mut self) {
        self.cache_mb.clear();
        self.cache_sensitivity.clear();
        self.mpki_solo.clear();
        self.base_cpi.clear();
    }

    /// Appends one task's profile to every column.
    pub fn push(&mut self, p: &ResourceProfile) {
        self.cache_mb.push(p.cache_mb);
        self.cache_sensitivity.push(p.cache_sensitivity);
        self.mpki_solo.push(p.mpki_solo);
        self.base_cpi.push(p.base_cpi);
    }

    /// Number of tasks in the columns.
    pub fn len(&self) -> usize {
        self.base_cpi.len()
    }

    /// Whether the columns are empty.
    pub fn is_empty(&self) -> bool {
        self.base_cpi.is_empty()
    }
}

/// Tasks per stack chunk of the traffic sum: four SSE2 `f64` pairs. The
/// dense fleet's 25 tasks are three chunks and a tail of one.
const LANES: usize = 8;

/// One task's miss traffic in giga-lines/sec at CPI estimate `c`.
#[inline(always)]
fn traffic(activity: f64, clock_hz: f64, c: f64, mpki: f64) -> f64 {
    let instr_per_sec = activity * clock_hz / c;
    instr_per_sec * mpki / 1000.0 / 1e9
}

/// The machine's miss traffic: [`traffic`] summed over the columns in
/// task order, stopping at the shortest column as a zip of them would.
///
/// A fixed-point pass is bound by its divides — three per task here, one
/// in the update — and they cannot vectorise while they sit inside an
/// ordered `f64` sum. So each full chunk's terms go to a stack array
/// first (independent lanes, packed divides; IEEE division rounds each
/// lane exactly as the scalar instruction does) and are then added to the
/// running sum in task order: same per-element roundings, same addition
/// order, same bits as the one-loop sum. The sum starts from −0.0, the
/// identity of IEEE addition (`−0.0 + x` is `x` for every `x`; it is
/// where `Iterator::sum` starts too since Rust 1.83), so the first add is
/// exact and costs nothing on the dependency chain.
// lint: hot-path
#[inline]
fn miss_traffic(activity: &[f64], cpi: &[f64], mpki: &[f64], clock_hz: f64) -> f64 {
    // Cut to the shortest column first, so the three walk in step and
    // their tails line up.
    let n = activity.len().min(cpi.len()).min(mpki.len());
    let (activity, cpi, mpki) = (
        activity.get(..n).unwrap_or_default(),
        cpi.get(..n).unwrap_or_default(),
        mpki.get(..n).unwrap_or_default(),
    );
    let mut glines = -0.0f64;
    let (a_chunks, c_chunks, m_chunks) = (
        activity.chunks_exact(LANES),
        cpi.chunks_exact(LANES),
        mpki.chunks_exact(LANES),
    );
    let tail = a_chunks
        .remainder()
        .iter()
        .zip(c_chunks.remainder())
        .zip(m_chunks.remainder());
    for ((a, c), m) in a_chunks.zip(c_chunks).zip(m_chunks) {
        let mut terms = [0.0f64; LANES];
        for (((t, &a), &c), &m) in terms.iter_mut().zip(a).zip(c).zip(m) {
            *t = traffic(a, clock_hz, c, m);
        }
        for t in terms {
            glines += t;
        }
    }
    for ((&a, &c), &m) in tail {
        glines += traffic(a, clock_hz, c, m);
    }
    glines
}

/// The columnar interference kernel: per-task CPI and MPKI for one tick,
/// streamed over struct-of-arrays inputs. `activity` and `profiles` are
/// parallel columns in task order; `cpi` and `mpki` are cleared and
/// refilled with one output per task (same order). Returns the machine
/// summary plus the global cache-retention fraction shared by every task
/// this tick (1.0 when demand fits in the L3).
///
/// It is `solve_begin` then `params.iterations` × `solve_pass`: the
/// machine tick runs the same two halves, but interleaves the passes of
/// a group of machines (see `machine::tick_group`), so the two orders
/// are bit-identical by construction.
// lint: hot-path
pub fn compute_cols(
    platform: &Platform,
    activity: &[f64],
    profiles: &ProfileColumns,
    params: &InterferenceParams,
    cpi: &mut Vec<f64>,
    mpki: &mut Vec<f64>,
) -> (ContentionSummary, f64) {
    let (demand, retained_global) = solve_begin(platform, activity, profiles, params, cpi, mpki);
    let mut rho = 0.0;
    for _ in 0..params.iterations {
        rho = solve_pass(platform, activity, profiles, params, cpi, mpki);
    }
    (
        ContentionSummary {
            cache_demand_mb: demand,
            // An empty column's traffic sum is its −0.0 start; −0.0 + 0.0
            // is +0.0 and every other value is unchanged.
            mem_utilization: rho + 0.0,
        },
        retained_global,
    )
}

/// The part of a solve that precedes the bandwidth fixed point: the cache
/// occupancy, each task's MPKI after cache loss (refilled into `mpki`),
/// and the starting CPI estimates (refilled into `cpi`). Returns the
/// aggregate hot-set demand and the global retention fraction.
// lint: hot-path
#[inline]
pub(crate) fn solve_begin(
    platform: &Platform,
    activity: &[f64],
    profiles: &ProfileColumns,
    params: &InterferenceParams,
    cpi: &mut Vec<f64>,
    mpki: &mut Vec<f64>,
) -> (f64, f64) {
    mpki.clear();
    cpi.clear();

    // --- Cache occupancy -------------------------------------------------
    // Hot-set demand saturates with activity: idle tasks hold nothing, a
    // task at 1 core keeps ~63 % of its set hot, heavily threaded tasks
    // approach their full footprint. Accumulated in input order, exactly
    // as summing a per-task vector would.
    let mut demand = 0.0f64;
    for (&cache_mb, &a) in profiles.cache_mb.iter().zip(activity.iter()) {
        demand += cache_mb * (1.0 - (-a).exp());
    }

    let retained_global = if demand <= platform.l3_mb || demand == 0.0 {
        1.0
    } else {
        platform.l3_mb / demand
    };

    // MPKI after cache loss (independent of the bandwidth fixed point).
    for (&solo, &sensitivity) in profiles
        .mpki_solo
        .iter()
        .zip(profiles.cache_sensitivity.iter())
    {
        let loss = 1.0 - retained_global;
        mpki.push(solo * (1.0 + sensitivity * loss * params.cache_slope));
    }

    // --- Bandwidth fixed point: starting estimates -------------------------
    for &base in &profiles.base_cpi {
        cpi.push(base * platform.cpi_factor);
    }
    (demand, retained_global)
}

/// One damped pass of the bandwidth fixed point: miss traffic at the
/// current `cpi` estimates, the memory utilization ρ it implies, and each
/// task's CPI moved toward its target at that ρ. Returns ρ.
///
/// A pass is one serial chain of divides (traffic → ρ → queue factor →
/// update); on a machine of a few tasks little else can run beside it,
/// which is why the machine tick interleaves the passes of independent
/// machines.
// lint: hot-path
#[inline]
pub(crate) fn solve_pass(
    platform: &Platform,
    activity: &[f64],
    profiles: &ProfileColumns,
    params: &InterferenceParams,
    cpi: &mut [f64],
    mpki: &[f64],
) -> f64 {
    // Miss traffic in giga-lines/sec at current CPI estimates.
    let glines = miss_traffic(activity, cpi, mpki, platform.clock_hz);
    let rho = (glines / platform.mem_bw_glines).min(params.rho_max);
    let queue_mult = 1.0 + params.queue_beta * rho / (1.0 - rho);
    let eff_penalty = platform.miss_penalty_cycles * queue_mult;
    let rows = profiles
        .mpki_solo
        .iter()
        .zip(profiles.base_cpi.iter())
        .zip(cpi.iter_mut().zip(mpki.iter()));
    for ((&solo, &base), (c, &m)) in rows {
        // base_cpi already prices solo misses at nominal latency; add
        // only the extra stall cycles from lost cache and queueing.
        let extra_mpki = (m - solo).max(0.0);
        let extra = (extra_mpki * eff_penalty
            + solo * platform.miss_penalty_cycles * (queue_mult - 1.0))
            / 1000.0;
        let target = base * platform.cpi_factor + extra;
        // Damped update for fixed-point stability.
        *c += params.damping * (target - *c);
    }
    rho
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Kernel outputs for one call, per task in input order.
    struct Solved {
        cpi: Vec<f64>,
        mpki: Vec<f64>,
        cache_retained: f64,
        summary: ContentionSummary,
    }

    /// Splits `(activity, profile)` pairs into columns and runs the kernel.
    fn solve(
        platform: &Platform,
        loads: &[(f64, ResourceProfile)],
        params: &InterferenceParams,
    ) -> Solved {
        let mut profiles = ProfileColumns::default();
        let mut activity = Vec::new();
        for (a, p) in loads {
            activity.push(*a);
            profiles.push(p);
        }
        let (mut cpi, mut mpki) = (Vec::new(), Vec::new());
        let (summary, cache_retained) =
            compute_cols(platform, &activity, &profiles, params, &mut cpi, &mut mpki);
        Solved {
            cpi,
            mpki,
            cache_retained,
            summary,
        }
    }

    fn solo(profile: ResourceProfile, activity: f64) -> Solved {
        solve(
            &Platform::westmere(),
            &[(activity, profile)],
            &InterferenceParams::default(),
        )
    }

    #[test]
    fn solo_task_sees_base_cpi() {
        let t = solo(ResourceProfile::compute_bound(), 1.0);
        assert!((t.cpi[0] - 0.9).abs() < 0.02, "cpi={}", t.cpi[0]);
        assert_eq!(t.cache_retained, 1.0);
        assert!((t.mpki[0] - 0.3).abs() < 1e-9);
    }

    #[test]
    fn idle_task_unperturbed() {
        let t = solo(ResourceProfile::cache_heavy(), 0.0);
        assert!((t.mpki[0] - 2.0).abs() < 1e-9);
    }

    #[test]
    fn antagonist_inflates_victim_cpi() {
        let p = Platform::westmere();
        let victim = (2.0, ResourceProfile::cache_heavy());
        let antagonist = (6.0, ResourceProfile::streaming());
        let params = InterferenceParams::default();
        let alone = solve(&p, &[victim], &params);
        let together = solve(&p, &[victim, antagonist], &params);
        assert!(
            together.cpi[0] > alone.cpi[0] * 1.3,
            "alone={} together={}",
            alone.cpi[0],
            together.cpi[0]
        );
        assert!(together.mpki[0] > alone.mpki[0]);
        assert!(together.summary.cache_demand_mb > p.l3_mb);
        assert!(together.summary.mem_utilization > 0.1);
    }

    #[test]
    fn interference_scales_with_antagonist_activity() {
        // More antagonist CPU ⇒ more victim CPI: the monotonicity that the
        // §4.2 correlation score relies on.
        let p = Platform::westmere();
        let params = InterferenceParams::default();
        let victim = (2.0, ResourceProfile::cache_heavy());
        let mut last = 0.0;
        for a in [0.0, 1.0, 2.0, 4.0, 8.0] {
            let antagonist = (a, ResourceProfile::streaming());
            let v = solve(&p, &[victim, antagonist], &params);
            assert!(
                v.cpi[0] >= last - 1e-9,
                "activity={a}: cpi={} < last={last}",
                v.cpi[0]
            );
            last = v.cpi[0];
        }
        assert!(last > 1.5, "max victim cpi={last}");
    }

    #[test]
    fn insensitive_task_barely_affected_by_cache_loss() {
        let p = Platform::westmere();
        let params = InterferenceParams::default();
        let mut insensitive = ResourceProfile::compute_bound();
        insensitive.cache_sensitivity = 0.0;
        insensitive.mpki_solo = 0.1;
        let victim = (1.0, insensitive);
        let antagonist = (8.0, ResourceProfile::streaming());
        let v = solve(&p, &[victim, antagonist], &params);
        let base = insensitive.base_cpi * p.cpi_factor;
        assert!(v.cpi[0] < base * 1.15, "cpi={} base={base}", v.cpi[0]);
    }

    #[test]
    fn bigger_cache_platform_suffers_less() {
        let params = InterferenceParams::default();
        let victim = ResourceProfile::cache_heavy();
        let tasks = [(2.0, victim), (4.0, ResourceProfile::streaming())];
        let w = solve(&Platform::westmere(), &tasks, &params);
        let s = solve(&Platform::sandy_bridge(), &tasks, &params);
        // Normalize out the per-platform base factor before comparing.
        let w_rel = w.cpi[0] / (victim.base_cpi * Platform::westmere().cpi_factor);
        let s_rel = s.cpi[0] / (victim.base_cpi * Platform::sandy_bridge().cpi_factor);
        assert!(s_rel < w_rel, "sandy={s_rel} westmere={w_rel}");
    }

    #[test]
    fn utilization_clamped() {
        let p = Platform::westmere();
        let params = InterferenceParams::default();
        let hogs = [(4.0, ResourceProfile::streaming()); 20];
        let v = solve(&p, &hogs, &params);
        assert!(v.summary.mem_utilization <= params.rho_max + 1e-12);
        assert!(v.cpi.iter().all(|c| c.is_finite() && *c > 0.0));
    }

    #[test]
    fn traffic_sum_stops_at_the_shortest_column() {
        // Columns of unequal length (the fields are public): the chunked
        // sum pairs index with index and ends where a zip would, wherever
        // the shortest column ends relative to a chunk boundary.
        let col = |n: usize, k: f64| (0..n).map(|i| k + i as f64 * 0.37).collect::<Vec<f64>>();
        for (a_len, c_len, m_len) in [
            (17, 9, 17),
            (9, 8, 9),
            (8, 9, 9),
            (12, 10, 16),
            (25, 25, 24),
            (16, 16, 16),
            (3, 0, 3),
        ] {
            let (a, c, m) = (col(a_len, 0.5), col(c_len, 1.1), col(m_len, 0.2));
            let want = a
                .iter()
                .zip(&c)
                .zip(&m)
                .fold(-0.0, |sum, ((&a, &c), &m)| sum + traffic(a, 2.6e9, c, m));
            let got = miss_traffic(&a, &c, &m, 2.6e9);
            assert_eq!(got.to_bits(), want.to_bits(), "{a_len}/{c_len}/{m_len}");
        }
    }

    #[test]
    fn empty_input_ok() {
        let v = solve(&Platform::westmere(), &[], &InterferenceParams::default());
        assert!(v.cpi.is_empty());
        assert_eq!(v.summary.cache_demand_mb, 0.0);
    }
}
