//! Heap allocations on the §3.1 sample path, counted rather than timed.
//!
//! A counting global allocator makes this file its own test binary. Each
//! count is of `alloc` and `realloc` calls made by the measuring thread
//! while one operation runs. Before job and platform names were shared
//! `Arc<str>`s and analysis reused one pair buffer, the same operations
//! counted:
//!
//! - cloning then dropping a 25-sample batch: 51 (the `Vec` and two
//!   `String`s per sample);
//! - `rank_suspects` over 24 suspects with an 11-point victim window:
//!   97 — per suspect a name copy and three for the growing pair vector,
//!   plus the ranking;
//! - one `ClusterSampler::poll` that closes a window over N tasks:
//!   1 + 2N (the readings and two `String`s per reading).
//!
//! A warm `Agent::ingest` with no incident counted 0 then as now, and so
//! does a warm `Cluster::step` since its machine phase ticks machines in
//! groups.
//!
//! Before a spec install probed with borrowed names and a new instant's
//! dedup set was sized to its batch, re-installing a known spec counted 2
//! (the owned key built to replace one) and a 25-sample batch at a new
//! instant through `Aggregator::ingest` 5 (the set grown four times from
//! empty, and a new tree for the evicted instant). A warm
//! `SpecBuilder::add_sample` and steady `TimeSeries` push + evict steps
//! counted 0 then as now.

use cpi2_core::{
    rank_suspects, Agent, Cpi2Config, CpiSample, CpiSpec, SpecBuilder, SuspectInput, TaskClass,
    TaskHandle,
};
use cpi2_perf::sampler::ClusterSampler;
use cpi2_pipeline::Aggregator;
use cpi2_sim::{
    Cluster, ClusterConfig, ConstantLoad, JobId, JobSpec, Machine, MachineId, Platform, Priority,
    ResourceProfile, SchedClass, SimDuration, SimTime, TaskId, TaskInstance,
};
use cpi2_stats::timeseries::TimeSeries;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: a thread being torn down may still allocate.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is forwarded unchanged to the system allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `f`'s result and how many allocations this thread made running it.
fn counted<R>(f: impl FnOnce() -> R) -> (R, usize) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

const MINUTE_US: i64 = 60_000_000;

/// One machine's batch at `minute`: 25 tasks of 25 jobs on one platform,
/// the names shared as the simulator shares them.
fn batch(names: &[Arc<str>], platform: &Arc<str>, minute: i64) -> Vec<CpiSample> {
    names
        .iter()
        .enumerate()
        .map(|(i, job)| CpiSample {
            task: TaskHandle(i as u64),
            jobname: Arc::clone(job),
            platforminfo: Arc::clone(platform),
            timestamp: minute * MINUTE_US,
            cpu_usage: 1.0,
            cpi: 1.0 + 0.01 * ((minute + i as i64) % 5) as f64,
            l3_mpki: 1.0,
            class: if i == 0 {
                TaskClass::latency_sensitive()
            } else {
                TaskClass::batch()
            },
        })
        .collect()
}

fn job_names(n: usize) -> Vec<Arc<str>> {
    (0..n).map(|i| Arc::from(format!("job-{i}"))).collect()
}

#[test]
fn cloning_a_batch_allocates_its_vector_alone() {
    let samples = batch(&job_names(25), &"westmere".into(), 0);
    let ((), n) = counted(|| drop(samples.clone()));
    assert_eq!(n, 1);
}

#[test]
fn warm_ingest_without_an_incident_allocates_nothing() {
    let (names, platform) = (job_names(25), Arc::<str>::from("westmere"));
    let mut agent = Agent::new(Cpi2Config::default());
    for job in &names {
        agent.install_spec(CpiSpec {
            jobname: job.to_string(),
            platforminfo: platform.to_string(),
            num_samples: 100_000,
            cpu_usage_mean: 1.0,
            cpi_mean: 1.0,
            cpi_stddev: 0.1,
        });
    }
    // Past two correlation windows: every history is at its bound.
    for minute in 0..30 {
        agent.ingest(&batch(&names, &platform, minute));
    }
    for minute in 30..35 {
        let samples = batch(&names, &platform, minute);
        let (commands, n) = counted(|| agent.ingest(&samples));
        assert!(commands.is_empty());
        assert_eq!(n, 0, "minute {minute}");
    }
    assert!(agent.incidents().is_empty());
}

#[test]
fn ranking_24_suspects_allocates_twice() {
    let points = |f: &dyn Fn(i64) -> f64| {
        TimeSeries::from_points((0..11).map(|m| (m * MINUTE_US, f(m))).collect())
    };
    let victim = points(&|m| if m % 2 == 1 { 3.0 } else { 1.0 });
    let usage: Vec<TimeSeries> = (0..24).map(|i| points(&|m| ((m + i) % 3) as f64)).collect();
    let names = job_names(24);
    let suspects: Vec<SuspectInput<'_>> = usage
        .iter()
        .zip(&names)
        .enumerate()
        .map(|(i, (usage, jobname))| SuspectInput {
            task: TaskHandle(i as u64),
            jobname,
            class: TaskClass::batch(),
            usage,
        })
        .collect();
    let (ranked, n) = counted(|| rank_suspects(&victim, &suspects, 2.0, MINUTE_US / 2));
    assert_eq!(ranked.len(), 24);
    assert!(n <= 2, "{n} allocations");
}

#[test]
fn closing_a_window_allocates_the_readings_alone() {
    const TASKS: u32 = 25;
    let mut machine = Machine::new(MachineId(0), Platform::westmere(), 1);
    for job in 0..TASKS {
        machine.add_task(
            TaskInstance {
                id: TaskId {
                    job: JobId(job),
                    index: 0,
                },
                model: Box::new(ConstantLoad::new(0.3, 1, ResourceProfile::compute_bound())),
            },
            format!("job-{job}"),
            SchedClass::Batch,
            Priority::NonProduction,
        );
    }
    let mut sampler = ClusterSampler::new();
    let dt = SimDuration::from_secs(1);
    let mut closes = 0;
    for s in 0..120 {
        let now = SimTime::from_secs(s);
        machine.tick(now, dt, &mut Vec::new());
        let (readings, n) = counted(|| sampler.poll(&machine, now + dt));
        // The first window's open grows the baseline; a close is one
        // vector of readings whose names are reference-counted copies.
        if !readings.is_empty() {
            assert_eq!(readings.len(), TASKS as usize);
            assert_eq!(n, 1, "close at {s} s");
            closes += 1;
        }
    }
    assert_eq!(closes, 2);
}

fn spec_for(job: &str, platform: &str) -> CpiSpec {
    CpiSpec {
        jobname: job.to_string(),
        platforminfo: platform.to_string(),
        num_samples: 100_000,
        cpu_usage_mean: 1.0,
        cpi_mean: 1.0,
        cpi_stddev: 0.1,
    }
}

#[test]
fn reinstalling_a_known_spec_allocates_nothing() {
    let mut agent = Agent::new(Cpi2Config::default());
    for i in 0..25 {
        agent.install_spec(spec_for(&format!("job-{i}"), "westmere"));
    }
    for i in 0..25 {
        let spec = spec_for(&format!("job-{i}"), "westmere");
        let ((), n) = counted(|| agent.install_spec_at(spec, i));
        assert_eq!(n, 0, "job-{i}");
    }
}

#[test]
fn a_warm_spec_builder_sample_allocates_nothing() {
    let (names, platform) = (job_names(25), Arc::<str>::from("westmere"));
    let mut builder = SpecBuilder::new(Cpi2Config::default());
    builder.add_sample(&batch(&names, &platform, 0)[0]);
    for s in &batch(&names, &platform, 1) {
        builder.add_sample(s);
    }
    for minute in 2..5 {
        for s in &batch(&names, &platform, minute) {
            let ((), n) = counted(|| builder.add_sample(s));
            assert_eq!(n, 0, "minute {minute}, {}", s.task);
        }
    }
}

#[test]
fn steady_push_and_evict_allocate_nothing() {
    let mut series = TimeSeries::new();
    // Two 10-minute windows of one-minute points, as a task's history.
    let horizon = 20 * MINUTE_US;
    let step = |series: &mut TimeSeries, minute: i64| {
        series.push(minute * MINUTE_US, minute as f64);
        series.evict_before(minute * MINUTE_US - horizon);
    };
    for minute in 0..100 {
        step(&mut series, minute);
    }
    let ((), n) = counted(|| {
        for minute in 100..1_100 {
            step(&mut series, minute);
        }
    });
    assert_eq!(n, 0);
    assert_eq!(series.len(), 21);
}

#[test]
fn a_batch_at_a_new_instant_allocates_its_dedup_set_alone() {
    let (names, platform) = (job_names(25), Arc::<str>::from("westmere"));
    let mut aggregator = Aggregator::new(Cpi2Config::default(), 0);
    // A few instants inside the horizon: the map stays one B-tree node.
    aggregator.set_dedup_horizon(Some(3 * MINUTE_US));
    for minute in 0..10 {
        aggregator.ingest(&batch(&names, &platform, minute));
    }
    for minute in 10..15 {
        let samples = batch(&names, &platform, minute);
        let ((), n) = counted(|| aggregator.ingest(&samples));
        assert_eq!(n, 1, "minute {minute}");
    }
    assert_eq!(aggregator.samples_seen(), 15 * 25);
    assert_eq!(aggregator.duplicates_dropped(), 0);
}

#[test]
fn a_warm_cluster_step_allocates_nothing() {
    // 13 machines: one full group of eight and a partial one of five.
    let mut cluster = Cluster::new(ClusterConfig {
        seed: 3,
        ..ClusterConfig::default()
    });
    cluster.add_machines(&Platform::westmere(), 13);
    for (job, (tasks, profile)) in [
        (20, ResourceProfile::compute_bound()),
        (9, ResourceProfile::streaming()),
        (13, ResourceProfile::cache_heavy()),
    ]
    .into_iter()
    .enumerate()
    {
        cluster
            .submit_job(
                JobSpec::batch(format!("job-{job}"), tasks, 0.5),
                false,
                Box::new(move |_| Box::new(ConstantLoad::new(0.5, 2, profile))),
            )
            .unwrap();
    }
    for _ in 0..5 {
        cluster.step();
    }
    for tick in 5..15 {
        let ((), n) = counted(|| cluster.step());
        assert_eq!(n, 0, "tick {tick}");
    }
    let tasks: usize = cluster.machines().iter().map(Machine::task_count).sum();
    assert_eq!(tasks, 42);
}
