//! Kernel replays: single calls into `sim` and `workloads`, timed in a
//! loop on inputs harvested from a workload's own machines after its
//! run, so a layer's number is measured at that workload's tenancy.
//! Every figure is the median of per-round means.

use std::time::{Duration, Instant};

use cpi2::core::Cpi2Config;
use cpi2::sim::interference::compute_cols;
use cpi2::sim::{
    Cluster, ClusterConfig, InterferenceParams, JobSpec, MachineId, Platform, ProfileColumns,
    ResourceProfile, SimDuration, SimTime, TaskId, TaskModel,
};
use cpi2::stats::rng::SimRng;
use cpi2::workloads::{self, CacheThrasher, LsService};

use crate::fleet::{plant_antagonists, small_tenant, Driver, FleetKind, FleetPlan, Mirror};
use crate::stats::median;

/// Wall time each kernel loop runs for.
const BUDGET: Duration = Duration::from_millis(250);
const TICK: SimDuration = SimDuration(1_000_000);

/// Repeats `round` (which returns how many calls it made) until
/// [`BUDGET`] is spent; returns the median ns per call over rounds.
fn ns_per_call(mut round: impl FnMut() -> u64) -> f64 {
    let mut per_round = Vec::new();
    let start = Instant::now();
    while start.elapsed() < BUDGET || per_round.len() < 3 {
        let t0 = Instant::now();
        let calls = round().max(1);
        per_round.push(t0.elapsed().as_nanos() as f64 / calls as f64);
    }
    median(per_round)
}

/// `compute_cols` on every machine's last-tick activity and profiles.
pub fn interference_ns_per_call(cluster: &Cluster) -> f64 {
    let inputs: Vec<(Platform, Vec<f64>, ProfileColumns)> = cluster
        .machines()
        .iter()
        .map(|m| {
            let mut cols = ProfileColumns::default();
            let mut activity = Vec::new();
            for t in m.tasks() {
                cols.push(&t.model().profile());
                activity.push(t.last_outcome().map_or(0.0, |o| o.cpu_granted));
            }
            (m.platform.clone(), activity, cols)
        })
        .collect();
    let params = InterferenceParams::default();
    let (mut cpi, mut mpki) = (Vec::new(), Vec::new());
    ns_per_call(|| {
        for (platform, activity, cols) in &inputs {
            std::hint::black_box(compute_cols(
                platform, activity, cols, &params, &mut cpi, &mut mpki,
            ));
        }
        inputs.len() as u64
    })
}

/// `Machine::tick` on every machine of the finished fleet, per resident
/// task.
pub fn machine_tick_ns_per_task(cluster: &mut Cluster) -> f64 {
    let ids: Vec<MachineId> = cluster.machines().iter().map(|m| m.id).collect();
    let mut now = cluster.now();
    let mut exits = Vec::new();
    ns_per_call(|| {
        let mut tasks = 0u64;
        for &id in &ids {
            let m = cluster.machine_mut(id).expect("machine exists");
            tasks += m.task_count() as u64;
            exits.clear();
            m.tick(now, TICK, &mut exits);
        }
        now += TICK;
        tasks
    })
}

/// `TaskModel::demand`, task-weighted over the fleet's job kinds.
pub fn demand_ns_per_call(kind: FleetKind, seed: u64) -> f64 {
    let catalog = |name: &str| workloads::factory(name, seed)(0);
    let victim: Box<dyn TaskModel> =
        Box::new(LsService::new(ResourceProfile::cache_heavy(), 1.0, 8, seed));
    let thrasher: Box<dyn TaskModel> =
        Box::new(CacheThrasher::new(8.0, 240, 240, seed).with_footprint(32.0));
    // (model, tasks of that kind in the full-size fleet)
    let mut models: Vec<(Box<dyn TaskModel>, f64)> = match kind {
        FleetKind::Sparse => vec![
            (catalog("websearch-leaf"), 100.0),
            (catalog("bigtable-tablet"), 80.0),
            (catalog("storage-server"), 60.0),
            (catalog("image-frontend"), 60.0),
            (small_tenant(seed), 800.0),
        ],
        FleetKind::Dense => vec![
            (victim, 384.0),
            (small_tenant(seed), 1920.0),
            (thrasher, 96.0),
        ],
    };
    let total: f64 = models.iter().map(|(_, w)| w).sum();
    let mut rng = SimRng::new(seed);
    let mut weighted = 0.0;
    for (model, weight) in &mut models {
        let mut now = SimTime::from_hours(1);
        let ns = ns_per_call(|| {
            for _ in 0..1000 {
                std::hint::black_box(model.demand(now, TICK, &mut rng));
                now += TICK;
            }
            1000
        });
        weighted += ns * *weight / total;
    }
    weighted
}

/// `Cluster::apply_hard_cap` on resident tasks (the caps expire at once).
pub fn cap_ns_per_call(cluster: &mut Cluster) -> f64 {
    let tasks: Vec<TaskId> = cluster
        .machines()
        .iter()
        .flat_map(|m| m.tasks())
        .map(|t| t.id)
        .collect();
    if tasks.is_empty() {
        return 0.0;
    }
    let until = cluster.now();
    ns_per_call(|| {
        for &task in &tasks {
            std::hint::black_box(cluster.apply_hard_cap(task, 0.5, until));
        }
        tasks.len() as u64
    })
}

/// µs of a spec refresh with data pending (`dirty`) and of the one
/// right after it, every shard clean.
pub fn refresh_us(mirror: &mut Mirror) -> (f64, f64) {
    let now = mirror.cluster.now().as_us();
    let t0 = Instant::now();
    mirror
        .detect
        .aggregator
        .refresh_at(&mirror.detect.spec_store, now);
    let dirty = t0.elapsed().as_nanos() as f64 / 1e3;
    let t1 = Instant::now();
    mirror
        .detect
        .aggregator
        .refresh_at(&mirror.detect.spec_store, now + 1);
    (dirty, t1.elapsed().as_nanos() as f64 / 1e3)
}

/// ns per machine-tick of `Cluster::step` and of the whole chain in
/// one-machine cells — the sampled-fleet cell shape (five serving tasks
/// on one Westmere), `cells` of them for `minutes` simulated minutes
/// each after a ten-minute warm-up.
pub fn one_machine_cells(cells: u32, minutes: i64, seed: u64) -> (f64, f64) {
    let (mut sim_ns, mut step_ns, mut mticks) = (0u64, 0u64, 0u64);
    for cell in 0..u64::from(cells) {
        let cell_seed = seed ^ (cell << 20) ^ 0xCE11;
        let mut cluster = Cluster::new(ClusterConfig {
            seed: cell_seed,
            overcommit: 2.0,
            parallelism: 1,
            ..ClusterConfig::default()
        });
        cluster.add_machines(&Platform::westmere(), 1);
        cluster
            .submit_job(
                JobSpec::latency_sensitive("bigtable-tablet", 5, 0.6),
                true,
                workloads::factory("bigtable-tablet", cell_seed ^ 0xB16),
            )
            .expect("cell placement");
        let mut m = Mirror::new(
            cluster,
            Cpi2Config {
                min_samples_per_task: 5,
                ..Cpi2Config::default()
            },
        );
        for _ in 0..600 {
            m.step();
        }
        m.start_tracing();
        for _ in 0..minutes * 60 {
            m.step();
        }
        for s in m.tracer.summaries() {
            match s.name {
                "sim.step" => sim_ns += s.total_ns,
                "harness.step" => {
                    step_ns += s.total_ns;
                    mticks += s.count;
                }
                _ => {}
            }
        }
    }
    let per = |ns: u64| ns as f64 / mticks.max(1) as f64;
    (per(sim_ns), per(step_ns))
}

/// Wall time of `ticks` bare `Cluster::step`s of the planted dense
/// fleet at parallelism 1 over that at `workers` (> 1 means the pool
/// helps).
pub fn pool_speedup(plan: &FleetPlan, seed: u64, ticks: u64, workers: usize) -> f64 {
    let mut wall = [0.0f64; 2];
    for (slot, parallelism) in [(0, 1), (1, workers.max(1))] {
        let plan = FleetPlan {
            parallelism,
            ..*plan
        };
        let mut cluster = plan.build(seed);
        plant_antagonists(&mut cluster, &plan, seed);
        for _ in 0..60 {
            cluster.step();
        }
        let t0 = Instant::now();
        for _ in 0..ticks {
            cluster.step();
        }
        wall[slot] = t0.elapsed().as_secs_f64();
    }
    wall[0] / wall[1].max(1e-12)
}
