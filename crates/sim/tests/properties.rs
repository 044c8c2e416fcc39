//! Property-based tests for the cluster simulator's invariants.

use cpi2_sim::interference::{compute_cols, ContentionSummary, InterferenceParams, ProfileColumns};
use cpi2_sim::{
    Cgroup, Cluster, ClusterConfig, ConstantLoad, JobId, Machine, MachineId, Platform, Priority,
    ResourceProfile, SchedClass, Scheduler, SimDuration, SimTime, TaskAction, TaskDemand, TaskId,
    TaskInstance, TaskModel, TickOutcome, TraceEvent,
};
use cpi2_stats::rng::SimRng;
use proptest::prelude::*;

fn profile_strategy() -> impl Strategy<Value = ResourceProfile> {
    (0.5..3.0f64, 0.1..40.0f64, 0.0..15.0f64, 0.0..2.0f64).prop_map(
        |(base_cpi, cache_mb, mpki_solo, sens)| ResourceProfile {
            base_cpi,
            cache_mb,
            mpki_solo,
            cache_sensitivity: sens,
            cpi_noise: 0.0,
        },
    )
}

/// One task's input to the interference model for one tick.
#[derive(Debug, Clone, Copy)]
struct TaskLoad {
    activity: f64,
    profile: ResourceProfile,
}

/// Per-task kernel outputs in input order, plus the machine-wide ones.
struct Solved {
    cpi: Vec<f64>,
    mpki: Vec<f64>,
    cache_retained: f64,
    summary: ContentionSummary,
}

/// Column and output buffers for [`compute_cols`], reused across calls the
/// way a machine's tick scratch is.
#[derive(Default)]
struct Kernel {
    activity: Vec<f64>,
    profiles: ProfileColumns,
    cpi: Vec<f64>,
    mpki: Vec<f64>,
}

impl Kernel {
    /// Splits `loads` into columns and runs the kernel over them.
    fn run(
        &mut self,
        platform: &Platform,
        loads: &[TaskLoad],
        params: &InterferenceParams,
    ) -> Solved {
        self.activity.clear();
        self.profiles.clear();
        for l in loads {
            self.activity.push(l.activity);
            self.profiles.push(&l.profile);
        }
        let (summary, cache_retained) = compute_cols(
            platform,
            &self.activity,
            &self.profiles,
            params,
            &mut self.cpi,
            &mut self.mpki,
        );
        Solved {
            cpi: self.cpi.clone(),
            mpki: self.mpki.clone(),
            cache_retained,
            summary,
        }
    }
}

fn loads_strategy(tasks: std::ops::Range<usize>) -> impl Strategy<Value = Vec<TaskLoad>> {
    prop::collection::vec(
        (0.0..8.0f64, profile_strategy())
            .prop_map(|(activity, profile)| TaskLoad { activity, profile }),
        tasks,
    )
}

proptest! {
    #[test]
    fn interference_cpi_never_below_base(loads in loads_strategy(1..12)) {
        let platform = Platform::westmere();
        let got = Kernel::default().run(&platform, &loads, &InterferenceParams::default());
        prop_assert_eq!(got.cpi.len(), loads.len());
        prop_assert_eq!(got.mpki.len(), loads.len());
        for ((l, &cpi), &mpki) in loads.iter().zip(&got.cpi).zip(&got.mpki) {
            let base = l.profile.base_cpi * platform.cpi_factor;
            prop_assert!(cpi >= base - 1e-9, "cpi {cpi} below base {base}");
            prop_assert!(cpi.is_finite());
            prop_assert!(mpki >= l.profile.mpki_solo - 1e-9);
        }
        prop_assert!((0.0..=1.0 + 1e-9).contains(&got.cache_retained));
        prop_assert!((0.0..=0.95 + 1e-9).contains(&got.summary.mem_utilization));
    }

    #[test]
    fn interference_adding_antagonist_never_helps(loads in loads_strategy(1..8)) {
        let platform = Platform::westmere();
        let params = InterferenceParams::default();
        let before = Kernel::default().run(&platform, &loads, &params);
        let mut with_extra = loads.clone();
        with_extra.push(TaskLoad {
            activity: 6.0,
            profile: ResourceProfile::streaming(),
        });
        let after = Kernel::default().run(&platform, &with_extra, &params);
        for (&b, &a) in before.cpi.iter().zip(&after.cpi) {
            prop_assert!(a >= b - 1e-9, "antagonist lowered CPI {b} -> {a}");
        }
    }

    #[test]
    fn cgroup_clamp_never_exceeds_request_or_cap(
        want in 0.0..32.0f64,
        cap in 0.001..4.0f64,
    ) {
        let mut g = Cgroup::new();
        g.apply_hard_cap(cap, SimTime::from_mins(5));
        let got = g.clamp_cpu(want, SimTime::ZERO, SimDuration::from_secs(1));
        prop_assert!(got <= want + 1e-12);
        prop_assert!(got <= cap + 1e-12);
    }

    #[test]
    fn machine_never_over_allocates(demands in prop::collection::vec((0.0..6.0f64, 0..3u8), 1..20)) {
        let platform = Platform::westmere();
        let cores = platform.cores as f64;
        let mut m = Machine::new(MachineId(0), platform, 7);
        for (i, &(cpu, class)) in demands.iter().enumerate() {
            let class = match class {
                0 => SchedClass::LatencySensitive,
                1 => SchedClass::Batch,
                _ => SchedClass::BestEffort,
            };
            m.add_task(
                TaskInstance {
                    id: TaskId { job: JobId(i as u32), index: 0 },
                    model: Box::new(ConstantLoad::new(cpu, 2, ResourceProfile::compute_bound())),
                },
                format!("j{i}"),
                class,
                Priority::NonProduction,
            );
        }
        m.tick(SimTime::ZERO, SimDuration::from_secs(1), &mut Vec::new());
        let granted: f64 = m
            .tasks()
            .map(|t| t.last_outcome().map(|o| o.cpu_granted).unwrap_or(0.0))
            .sum();
        prop_assert!(granted <= cores + 1e-6, "granted {granted} > cores {cores}");
        prop_assert!((0.0..=1.0 + 1e-9).contains(&m.utilization()));
        // No task got more than it asked for.
        for (t, &(cpu, _)) in m.tasks().zip(&demands) {
            let got = t.last_outcome().unwrap().cpu_granted;
            prop_assert!(got <= cpu * 1.0 + 1e-9);
        }
    }

    #[test]
    fn scheduler_ls_reservations_bounded(requests in prop::collection::vec(0.1..4.0f64, 1..40)) {
        let mut s = Scheduler::new(1.5, 1);
        for i in 0..4 {
            s.register_machine(MachineId(i), 12, 12.0);
        }
        for (i, &cpu) in requests.iter().enumerate() {
            let _ = s.place(JobId(i as u32), SchedClass::LatencySensitive, cpu, 1.0, None);
        }
        // Admission control invariant: per-machine LS reservations ≤ cores.
        for i in 0..4 {
            let (ls, _) = s.reservations(MachineId(i)).unwrap();
            prop_assert!(ls <= 12.0 + 1e-9, "machine {i} oversubscribed: {ls}");
        }
    }

    #[test]
    fn scheduler_batch_overcommit_bounded(requests in prop::collection::vec(0.1..4.0f64, 1..60)) {
        let overcommit = 1.5;
        let mut s = Scheduler::new(overcommit, 2);
        for i in 0..4 {
            s.register_machine(MachineId(i), 12, 12.0);
        }
        for (i, &cpu) in requests.iter().enumerate() {
            let _ = s.place(JobId(i as u32), SchedClass::Batch, cpu, 1.0, None);
        }
        for i in 0..4 {
            let (ls, batch) = s.reservations(MachineId(i)).unwrap();
            prop_assert!(ls + batch <= 12.0 * overcommit + 1e-9);
        }
    }

    #[test]
    fn cfs_granted_never_exceeds_bandwidth_quota(
        caps in prop::collection::vec(prop::option::of((0.01..4.0f64, 1..40i64)), 1..10),
        demands in prop::collection::vec(0.0..16.0f64, 1..60),
    ) {
        // CFS bandwidth accounting under an arbitrary cap/demand script:
        // per tick, granted CPU-time never exceeds quota x elapsed
        // periods, and the throttle counter is monotone with per-tick
        // increments bounded by the tick itself.
        let mut g = Cgroup::new();
        let dt = SimDuration::from_secs(1);
        let mut prev_throttled = 0i64;
        for (i, &want) in demands.iter().enumerate() {
            let now = SimTime::from_secs(i as i64);
            match caps[i % caps.len()] {
                Some((rate, dur_s)) => {
                    g.apply_hard_cap(rate, now + SimDuration::from_secs(dur_s));
                }
                None => g.remove_hard_cap(),
            }
            let got = g.clamp_cpu(want, now, dt);
            prop_assert!(got <= want + 1e-12, "granted {got} > requested {want}");
            let rate = g.effective_rate(now);
            if let Some(rate) = rate {
                prop_assert!(got <= rate + 1e-12, "granted {got} > rate limit {rate}");
                let quota = g.quota_us(now).expect("rate-limited cgroup has a quota");
                // quota_us really is rate x period (within truncation).
                prop_assert!(
                    (quota as f64 - rate * g.period().as_us() as f64).abs() <= 1.0,
                    "quota {quota} inconsistent with rate {rate}"
                );
                // Granted CPU-µs over the tick stays within quota x periods.
                let periods = dt.as_us() as f64 / g.period().as_us() as f64;
                prop_assert!(
                    got * dt.as_us() as f64 <= (quota + 1) as f64 * periods + 1e-6,
                    "granted {got} CPU-sec/sec exceeds quota {quota}µs x {periods} periods"
                );
            }
            let th = g.throttled_us();
            prop_assert!(th >= prev_throttled, "throttle counter went backwards");
            prop_assert!(
                th - prev_throttled <= dt.as_us(),
                "throttled {}µs in a {}µs tick", th - prev_throttled, dt.as_us()
            );
            if rate.is_none() || rate.is_some_and(|r| want <= r) {
                prop_assert_eq!(th, prev_throttled, "throttled although bandwidth sufficed");
            }
            prev_throttled = th;
        }
    }

    #[test]
    fn cgroup_charge_keeps_counters_monotone(
        blocks in prop::collection::vec(
            (0.0..1e9f64, 0.0..1e9f64, 0.0..1e6f64, 0..1_000_000u64, 0.0..1e7f64),
            1..40,
        ),
    ) {
        let mut g = Cgroup::new();
        let mut prev = *g.counters();
        for &(cycles, instructions, l3, switches, cpu_us) in &blocks {
            g.charge(&cpi2_sim::CounterBlock {
                cycles,
                instructions,
                l3_misses: l3,
                context_switches: switches,
                cpu_time_us: cpu_us,
            });
            let c = *g.counters();
            prop_assert!(c.cycles >= prev.cycles);
            prop_assert!(c.instructions >= prev.instructions);
            prop_assert!(c.l3_misses >= prev.l3_misses);
            prop_assert!(c.context_switches >= prev.context_switches);
            prop_assert!(c.cpu_time_us >= prev.cpu_time_us);
            // The delta view agrees with what was just charged.
            let d = c.delta(&prev);
            prop_assert!((d.cycles - cycles).abs() < 1e-3);
            prop_assert!((d.instructions - instructions).abs() < 1e-3);
            prev = c;
        }
    }

    #[test]
    fn counters_are_monotonic(cpus in prop::collection::vec(0.1..3.0f64, 1..6), ticks in 1..30i64) {
        let mut m = Machine::new(MachineId(0), Platform::westmere(), 3);
        for (i, &cpu) in cpus.iter().enumerate() {
            m.add_task(
                TaskInstance {
                    id: TaskId { job: JobId(i as u32), index: 0 },
                    model: Box::new(ConstantLoad::new(cpu, 2, ResourceProfile::cache_heavy())),
                },
                format!("j{i}"),
                SchedClass::Batch,
                Priority::NonProduction,
            );
        }
        let mut last: Vec<cpi2_sim::CounterBlock> =
            m.tasks().map(|t| *t.cgroup.counters()).collect();
        for tick in 0..ticks {
            m.tick(SimTime::from_secs(tick), SimDuration::from_secs(1), &mut Vec::new());
            for (t, prev) in m.tasks().zip(&last) {
                let c = t.cgroup.counters();
                prop_assert!(c.cycles >= prev.cycles);
                prop_assert!(c.instructions >= prev.instructions);
                prop_assert!(c.l3_misses >= prev.l3_misses);
                prop_assert!(c.cpu_time_us >= prev.cpu_time_us);
            }
            last = m.tasks().map(|t| *t.cgroup.counters()).collect();
        }
    }
}

// --- compute_cols vs the pre-refactor reference --------------------------

/// The interference model as it was before the allocation-free and
/// struct-of-arrays refactors, pinned verbatim: per-call `Vec` storage
/// over an array of per-task structs, identical arithmetic. The column
/// kernel must match it bit for bit.
fn reference_compute(
    platform: &Platform,
    loads: &[TaskLoad],
    params: &InterferenceParams,
) -> Solved {
    let hot: Vec<f64> = loads
        .iter()
        .map(|l| l.profile.cache_mb * (1.0 - (-l.activity).exp()))
        .collect();
    let demand: f64 = hot.iter().sum();
    let retained_global = if demand <= platform.l3_mb || demand == 0.0 {
        1.0
    } else {
        platform.l3_mb / demand
    };

    let mpki: Vec<f64> = loads
        .iter()
        .map(|l| {
            let loss = 1.0 - retained_global;
            l.profile.mpki_solo * (1.0 + l.profile.cache_sensitivity * loss * params.cache_slope)
        })
        .collect();

    let mut cpi: Vec<f64> = loads
        .iter()
        .map(|l| l.profile.base_cpi * platform.cpi_factor)
        .collect();
    let mut rho = 0.0;
    for _ in 0..params.iterations {
        let glines: f64 = loads
            .iter()
            .zip(&cpi)
            .zip(&mpki)
            .map(|((l, &c), &m)| {
                let instr_per_sec = l.activity * platform.clock_hz / c;
                instr_per_sec * m / 1000.0 / 1e9
            })
            .sum();
        rho = (glines / platform.mem_bw_glines).min(params.rho_max);
        let queue_mult = 1.0 + params.queue_beta * rho / (1.0 - rho);
        let eff_penalty = platform.miss_penalty_cycles * queue_mult;
        for ((l, c), &m) in loads.iter().zip(cpi.iter_mut()).zip(&mpki) {
            let extra_mpki = (m - l.profile.mpki_solo).max(0.0);
            let extra = (extra_mpki * eff_penalty
                + l.profile.mpki_solo * platform.miss_penalty_cycles * (queue_mult - 1.0))
                / 1000.0;
            let target = l.profile.base_cpi * platform.cpi_factor + extra;
            *c += params.damping * (target - *c);
        }
    }

    Solved {
        cpi,
        mpki,
        cache_retained: retained_global,
        summary: ContentionSummary {
            cache_demand_mb: demand,
            mem_utilization: rho,
        },
    }
}

fn assert_bits_equal(
    got: &Solved,
    want: &Solved,
) -> Result<(), proptest::test_runner::TestCaseError> {
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
    prop_assert_eq!(
        bits(&got.cpi),
        bits(&want.cpi),
        "cpi {:?} vs {:?}",
        got.cpi,
        want.cpi
    );
    prop_assert_eq!(bits(&got.mpki), bits(&want.mpki));
    prop_assert_eq!(got.cache_retained.to_bits(), want.cache_retained.to_bits());
    prop_assert_eq!(
        got.summary.cache_demand_mb.to_bits(),
        want.summary.cache_demand_mb.to_bits()
    );
    prop_assert_eq!(
        got.summary.mem_utilization.to_bits(),
        want.summary.mem_utilization.to_bits()
    );
    Ok(())
}

/// Which tasks of a column are forced idle.
#[derive(Debug, Clone, Copy)]
enum Idle {
    /// None: the column as drawn.
    AsDrawn,
    /// Every task: zero total activity. The kernel has no branch for it,
    /// so the general path must leave every CPI at its base and every
    /// MPKI at its solo value, to the bit, as the reference does.
    All,
    /// Every task but the first: a single non-zero entry.
    AllButFirst,
    /// Every other task: idle lanes inside busy chunks.
    Alternate,
}

/// Runs the kernel over `loads` on both platforms — into fresh buffers,
/// and into buffers a different-sized prior solve left dirty — and holds
/// every output to the pinned reference bit for bit.
fn check_against_reference(
    loads: &[TaskLoad],
    idle: Idle,
) -> Result<(), proptest::test_runner::TestCaseError> {
    let mut loads = loads.to_vec();
    for (i, l) in loads.iter_mut().enumerate() {
        match idle {
            Idle::AsDrawn => {}
            Idle::All => l.activity = 0.0,
            Idle::AllButFirst => {
                if i != 0 {
                    l.activity = 0.0;
                }
            }
            Idle::Alternate => {
                if i % 2 == 0 {
                    l.activity = 0.0;
                }
            }
        }
    }
    let params = InterferenceParams::default();
    for platform in [Platform::westmere(), Platform::sandy_bridge()] {
        let mut want = reference_compute(&platform, &loads, &params);
        if loads.is_empty() {
            // The reference's machine totals over no tasks are
            // `Iterator::sum` of nothing, whose sign of zero is the
            // toolchain's (+0.0 before Rust 1.83, −0.0 since); the
            // kernel's have always been +0.0.
            want.summary.cache_demand_mb += 0.0;
            want.summary.mem_utilization += 0.0;
        }

        // Fresh buffers.
        let mut kernel = Kernel::default();
        assert_bits_equal(&kernel.run(&platform, &loads, &params), &want)?;

        // Buffers deliberately dirtied by a different prior
        // computation: reuse must not leak state between calls.
        let decoys = [
            TaskLoad {
                activity: 6.0,
                profile: ResourceProfile::streaming(),
            },
            TaskLoad {
                activity: 3.0,
                profile: ResourceProfile::cache_heavy(),
            },
        ];
        kernel.run(&platform, &decoys, &params);
        let got = kernel.run(&platform, &loads, &params);
        assert_bits_equal(&got, &want)?;
    }
    Ok(())
}

proptest! {
    #[test]
    fn compute_cols_bit_identical_to_reference(
        // 0..=40 tasks: past the dense fleet's 25 and into a fifth chunk.
        loads in loads_strategy(0..41),
        idle in 0..4u8,
    ) {
        let idle = [Idle::AsDrawn, Idle::All, Idle::AllButFirst, Idle::Alternate][idle as usize];
        check_against_reference(&loads, idle)?;
    }
}

/// Every column length from 0 through 40, which for the kernel's chunk
/// width W = 8 (or any width up to 19) includes 0, 1, W−1, W, W+1, 2W and
/// 2W+1, and the dense fleet's 25 — each as drawn, all idle, all idle but
/// one and mixed-idle.
#[test]
fn compute_cols_bit_identical_at_every_chunk_boundary() {
    // A fixed stream of plausible, all-different values.
    let mut rng = cpi2_stats::rng::SimRng::new(17);
    for n in 0..=40usize {
        let loads: Vec<TaskLoad> = (0..n)
            .map(|_| TaskLoad {
                activity: rng.range_f64(0.01, 6.0),
                profile: ResourceProfile {
                    base_cpi: rng.range_f64(0.5, 3.0),
                    cache_mb: rng.range_f64(0.1, 30.0),
                    mpki_solo: rng.range_f64(0.0, 15.0),
                    cache_sensitivity: rng.range_f64(0.0, 2.0),
                    cpi_noise: 0.0,
                },
            })
            .collect();
        for idle in [Idle::AsDrawn, Idle::All, Idle::AllButFirst, Idle::Alternate] {
            check_against_reference(&loads, idle)
                .unwrap_or_else(|e| panic!("{n} tasks, {idle:?}: {e:?}"));
        }
    }
}

// --- the grouped machine phase vs one machine at a time -------------------

/// Machines per group of the cluster's machine phase (`machine::GROUP`,
/// which is private): fleets are drawn up to three groups and one
/// machine, so their sizes fall on both sides of group boundaries.
const GROUP: usize = 8;

/// A task whose demand draws from the machine's RNG each tick and which
/// exits after `exit_after` ticks if that is set, so exits land in the
/// middle of a group.
struct Jittery {
    cpu: f64,
    threads: u32,
    profile: ResourceProfile,
    exit_after: Option<u32>,
}

impl TaskModel for Jittery {
    fn profile(&self) -> ResourceProfile {
        self.profile
    }

    fn demand(&mut self, _now: SimTime, _dt: SimDuration, rng: &mut SimRng) -> TaskDemand {
        TaskDemand {
            cpu_want: self.cpu * rng.range_f64(0.5, 1.5),
            threads: self.threads,
        }
    }

    fn observe(&mut self, _now: SimTime, _outcome: &TickOutcome) -> TaskAction {
        match &mut self.exit_after {
            Some(0) => TaskAction::Exit,
            Some(n) => {
                *n -= 1;
                TaskAction::Continue
            }
            None => TaskAction::Continue,
        }
    }
}

/// One drawn task: CPU, threads, profile (noisy), class 0–2, hard cap
/// 0 none / 1 live / 2 expired / 3 expiring mid-run at `rate`, and when
/// its model exits.
type TaskDraw = (f64, u32, ResourceProfile, u8, (u8, f64), Option<u32>);

fn task_draw() -> impl Strategy<Value = TaskDraw> {
    let noisy = (profile_strategy(), 0.0..0.3f64).prop_map(|(mut p, noise)| {
        p.cpi_noise = noise;
        p
    });
    (
        0.0..6.0f64,
        1..8u32,
        noisy,
        0..3u8,
        (0..4u8, 0.05..2.0f64),
        prop::option::of(0..4u32),
    )
}

/// Two clusters built alike from `fleet`: one per tick path.
fn twin_clusters(fleet: &[Vec<TaskDraw>], seed: u64) -> [Cluster; 2] {
    let build = || {
        let mut cluster = Cluster::new(ClusterConfig {
            seed,
            ..ClusterConfig::default()
        });
        cluster.add_machines(&Platform::westmere(), fleet.len() as u32);
        for (m, tasks) in fleet.iter().enumerate() {
            let machine = cluster.machine_mut(MachineId(m as u32)).unwrap();
            for (i, &(cpu, threads, profile, class, (cap, rate), exit_after)) in
                tasks.iter().enumerate()
            {
                let id = TaskId {
                    job: JobId(m as u32),
                    index: i as u32,
                };
                let class = [
                    SchedClass::LatencySensitive,
                    SchedClass::Batch,
                    SchedClass::BestEffort,
                ][class as usize];
                machine.add_task(
                    TaskInstance {
                        id,
                        model: Box::new(Jittery {
                            cpu,
                            threads,
                            profile,
                            exit_after,
                        }),
                    },
                    format!("j{m}"),
                    class,
                    Priority::NonProduction,
                );
                let until = match cap {
                    1 => Some(SimTime::from_mins(60)),
                    2 => Some(SimTime::ZERO),
                    3 => Some(SimTime::from_secs(2)),
                    _ => None,
                };
                if let Some(until) = until {
                    let t = machine.task_mut(id).unwrap();
                    t.cgroup.apply_hard_cap(rate, until);
                }
            }
        }
        cluster
    };
    [build(), build()]
}

/// Every per-task and per-machine value a tick writes, as bits.
fn tick_state(cluster: &Cluster) -> Vec<Vec<u64>> {
    cluster
        .machines()
        .iter()
        .map(|m| {
            let mut row = vec![
                m.id.0 as u64,
                m.utilization().to_bits(),
                m.throttle_events(),
                m.task_count() as u64,
            ];
            for t in m.tasks() {
                row.extend([
                    t.id.index as u64,
                    t.threads() as u64,
                    t.starved_ticks() as u64,
                ]);
                if let Some(o) = t.last_outcome() {
                    row.extend([
                        o.cpu_granted.to_bits(),
                        o.capped as u64,
                        o.cpi.to_bits(),
                        o.instructions.to_bits(),
                        o.l3_misses.to_bits(),
                    ]);
                }
                let c = t.cgroup.counters();
                row.extend([
                    c.cycles.to_bits(),
                    c.instructions.to_bits(),
                    c.l3_misses.to_bits(),
                    c.context_switches,
                    c.cpu_time_us.to_bits(),
                ]);
            }
            row
        })
        .collect()
}

proptest! {
    #[test]
    fn grouped_tick_is_bit_identical_to_one_machine_at_a_time(
        fleet in prop::collection::vec(
            prop::collection::vec(task_draw(), 0..31),
            0..3 * GROUP + 2,
        ),
        seed in 0..1000u64,
    ) {
        let [mut grouped, mut single] = twin_clusters(&fleet, seed);
        let dt = grouped.tick_len();
        let mut single_exits = Vec::new();
        // Five ticks: exits at ticks 1–4 and a cap expiring at 2 s, with
        // each tick's output reading the RNG state the last one left.
        for tick in 0..5 {
            let now = SimTime::from_secs(tick);
            grouped.step();
            let ids: Vec<MachineId> = single.machines().iter().map(|m| m.id).collect();
            for id in ids {
                let mut exits = Vec::new();
                single.machine_mut(id).unwrap().tick(now, dt, &mut exits);
                single_exits.extend(exits.into_iter().map(|e| (id, e.id, e.at, e.capped)));
            }
            prop_assert_eq!(tick_state(&grouped), tick_state(&single), "tick {}", tick);
        }
        let grouped_exits: Vec<_> = grouped
            .trace()
            .entries()
            .filter_map(|e| match &e.event {
                TraceEvent::TaskExited { task, machine, capped } => {
                    Some((*machine, *task, e.at, *capped))
                }
                _ => None,
            })
            .collect();
        prop_assert_eq!(grouped_exits, single_exits);
    }
}

// --- scheduler accounting across every task-lifecycle path ----------------

/// A task wanting `want` cores that exits after `exit_after` ticks, if set.
struct Lifecycle {
    want: f64,
    profile: ResourceProfile,
    exit_after: Option<u32>,
}

impl TaskModel for Lifecycle {
    fn profile(&self) -> ResourceProfile {
        self.profile
    }

    fn demand(&mut self, _now: SimTime, _dt: SimDuration, _rng: &mut SimRng) -> TaskDemand {
        TaskDemand {
            cpu_want: self.want,
            threads: 2,
        }
    }

    fn observe(&mut self, _now: SimTime, _outcome: &TickOutcome) -> TaskAction {
        match &mut self.exit_after {
            Some(0) => TaskAction::Exit,
            Some(n) => {
                *n -= 1;
                TaskAction::Continue
            }
            None => TaskAction::Continue,
        }
    }
}

/// One step of a lifecycle script.
#[derive(Debug, Clone)]
enum LifecycleOp {
    /// Submit a job: class 0–2, task count, CPU reservation, demand
    /// multiple of it, cache footprint, `restart_on_exit`, model exit.
    Submit {
        class: u8,
        tasks: u32,
        cpu: f64,
        want: f64,
        cache_mb: f64,
        restart: bool,
        exit_after: Option<u32>,
    },
    /// Kill the n-th (mod count) resident task.
    Kill(usize),
    /// Migrate the n-th (mod count) resident task.
    Migrate(usize),
    /// Crash machine n (mod machines; may name one past the end).
    Crash(u32),
    /// Run this many ticks.
    Tick(u8),
}

fn lifecycle_op() -> impl Strategy<Value = LifecycleOp> {
    (
        0..5u8,
        (0..3u8, 1..7u32, 0.2..5.0f64, 0.5..3.0f64, 0.5..10.0f64),
        (any::<bool>(), prop::option::of(0..4u32), 0..64usize, 1..4u8),
    )
        .prop_map(
            |(kind, (class, tasks, cpu, want, cache_mb), (restart, exit_after, n, ticks))| {
                match kind {
                    0 => LifecycleOp::Submit {
                        class,
                        tasks,
                        cpu,
                        want: cpu * want,
                        cache_mb,
                        restart,
                        exit_after,
                    },
                    1 => LifecycleOp::Kill(n),
                    2 => LifecycleOp::Migrate(n),
                    3 => LifecycleOp::Crash(n as u32),
                    _ => LifecycleOp::Tick(ticks),
                }
            },
        )
}

/// The scheduler's books agree with the placement map, and the placement
/// map with what machines run: per machine, the (LS, batch) reservation
/// and the cache reservation are the sums over the tasks
/// [`Cluster::locate`] puts there, every located task is resident there,
/// and every resident task is located where it runs.
fn check_accounting(
    c: &Cluster,
    cache_of: &std::collections::BTreeMap<JobId, f64>,
) -> Result<(), proptest::test_runner::TestCaseError> {
    let n = c.machines().len();
    let mut want = vec![(0.0f64, 0.0f64, 0.0f64); n];
    // A job's indices run past its task count by one per migration.
    let mut migrations: std::collections::BTreeMap<JobId, u32> = Default::default();
    for e in c.trace().entries() {
        if let TraceEvent::TaskMigrated { task, .. } = &e.event {
            *migrations.entry(task.job).or_default() += 1;
        }
    }
    for (job, spec) in c.jobs() {
        let bound = spec.task_count + migrations.get(&job).copied().unwrap_or(0);
        for index in 0..bound {
            let id = TaskId { job, index };
            let Some(m) = c.locate(id) else { continue };
            prop_assert!(
                c.machine(m).and_then(|mm| mm.task(id)).is_some(),
                "{:?} located on {:?} but not resident there",
                id,
                m
            );
            let row = &mut want[m.0 as usize];
            match spec.class {
                SchedClass::LatencySensitive => row.0 += spec.cpu_reservation,
                _ => row.1 += spec.cpu_reservation,
            }
            row.2 += cache_of[&job];
        }
    }
    for (m, &(ls, batch, cache)) in c.machines().iter().zip(&want) {
        for t in m.tasks() {
            prop_assert_eq!(
                c.locate(t.id),
                Some(m.id),
                "resident {:?} not located",
                t.id
            );
        }
        let (got_ls, got_batch) = c.scheduler().reservations(m.id).unwrap();
        let got_cache = c.scheduler().reserved_cache_mb(m.id).unwrap();
        prop_assert!(
            (got_ls - ls).abs() < 1e-6 && (got_batch - batch).abs() < 1e-6,
            "{:?}: reserved ({}, {}), located tasks sum to ({}, {})",
            m.id,
            got_ls,
            got_batch,
            ls,
            batch
        );
        prop_assert!(
            (got_cache - cache).abs() < 1e-6,
            "{:?}: reserved cache {} MB, located tasks sum to {}",
            m.id,
            got_cache,
            cache
        );
    }
    Ok(())
}

proptest! {
    #[test]
    fn lifecycle_keeps_scheduler_books_equal_to_placements(
        machines in 1..5u32,
        ops in prop::collection::vec(lifecycle_op(), 1..40),
        seed in 0..1000u64,
    ) {
        let mut c = Cluster::new(ClusterConfig {
            seed,
            preempt_starved_batch_after: Some(2),
            ..ClusterConfig::default()
        });
        // Four cores: submissions fail often and demand starves batch.
        let platform = Platform { cores: 4, ..Platform::westmere() };
        c.add_machines(&platform, machines);
        let mut cache_of = std::collections::BTreeMap::new();
        for op in ops {
            match op {
                LifecycleOp::Submit { class, tasks, cpu, want, cache_mb, restart, exit_after } => {
                    let class = [
                        SchedClass::LatencySensitive,
                        SchedClass::Batch,
                        SchedClass::BestEffort,
                    ][class as usize];
                    let mut spec = cpi2_sim::JobSpec::batch("j", tasks, cpu);
                    spec.class = class;
                    let profile = ResourceProfile { cache_mb, ..ResourceProfile::compute_bound() };
                    let factory: cpi2_sim::ModelFactory = Box::new(move |_| {
                        Box::new(Lifecycle { want, profile, exit_after })
                    });
                    if let Ok(job) = c.submit_job(spec, restart, factory) {
                        cache_of.insert(job, cache_mb);
                    }
                }
                LifecycleOp::Kill(n) | LifecycleOp::Migrate(n) => {
                    let resident: Vec<TaskId> =
                        c.machines().iter().flat_map(|m| m.tasks()).map(|t| t.id).collect();
                    if let Some(&task) = resident.get(n % resident.len().max(1)) {
                        if matches!(op, LifecycleOp::Kill(_)) {
                            c.kill_task(task);
                        } else {
                            let _ = c.migrate_task(task);
                        }
                    }
                }
                LifecycleOp::Crash(n) => {
                    c.crash_machine(MachineId(n % (machines + 1)));
                }
                LifecycleOp::Tick(n) => {
                    for _ in 0..n {
                        c.step();
                    }
                }
            }
            check_accounting(&c, &cache_of)?;
        }
    }
}
