//! Heap allocations on the §3.1 sample path, counted rather than timed.
//!
//! A counting global allocator makes this file its own test binary. Each
//! count is of `alloc` and `realloc` calls made by the measuring thread
//! while one operation runs; the byte counts at the end are of what it
//! left allocated. Before job and platform names were shared
//! `Arc<str>`s and analysis reused one pair buffer, the same operations
//! counted:
//!
//! - cloning then dropping a 25-sample batch: 51 (the `Vec` and two
//!   `String`s per sample);
//! - `rank_suspects` over 24 suspects with an 11-point victim window:
//!   97 — per suspect a name copy and three for the growing pair vector,
//!   plus the ranking — and 3 once it was 2, while the agent still copied
//!   the victim's window out of its history first;
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
//! `SpecBuilder::add_sample` and steady history push + evict steps
//! counted 0 then as now. Since agents share the spec store's copies,
//! re-installing the store's spec counts 0 and an owned one 1 (its
//! `Arc`).

use cpi2_core::{
    rank_suspects, Agent, Cpi2Config, CpiSample, CpiSpec, History, IncidentAction, Name,
    SpecBuilder, Suspect, SuspectInput, TaskClass, TaskHandle,
};
use cpi2_perf::sampler::ClusterSampler;
use cpi2_pipeline::{Aggregator, RetryQueue, SpecStore};
use cpi2_sim::{
    Cluster, ClusterConfig, ConstantLoad, JobId, JobSpec, Machine, MachineId, Platform, Priority,
    ResourceProfile, SchedClass, SimDuration, SimTime, TaskId, TaskInstance,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
    /// Bytes this thread allocated less those it freed.
    static LIVE: Cell<isize> = const { Cell::new(0) };
}

/// One `alloc` or `realloc` that moved this thread's live bytes by
/// `bytes` (a `dealloc` moves them alone).
fn count(allocations: usize, bytes: isize) {
    // `try_with`: a thread being torn down may still allocate.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + allocations));
    let _ = LIVE.try_with(|n| n.set(n.get() + bytes));
}

// SAFETY: every call is forwarded unchanged to the system allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(1, layout.size() as isize);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(0, -(layout.size() as isize));
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(1, new_size as isize - layout.size() as isize);
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

/// `f`'s result and how many bytes this thread allocated running it and
/// did not free.
fn held<R>(f: impl FnOnce() -> R) -> (R, isize) {
    let before = LIVE.with(Cell::get);
    let out = f();
    (out, LIVE.with(Cell::get) - before)
}

const MINUTE_US: i64 = 60_000_000;

/// One machine's batch at `minute`: 25 tasks of 25 jobs on one platform,
/// the names shared as the simulator shares them.
fn batch(names: &[Name], platform: &Name, minute: i64) -> Vec<CpiSample> {
    names
        .iter()
        .enumerate()
        .map(|(i, job)| CpiSample {
            task: TaskHandle(i as u64),
            jobname: job.clone(),
            platforminfo: platform.clone(),
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

fn job_names(n: usize) -> Vec<Name> {
    (0..n).map(|i| Name::from(format!("job-{i}"))).collect()
}

#[test]
fn cloning_a_batch_allocates_its_vector_alone() {
    let samples = batch(&job_names(25), &"westmere".into(), 0);
    let ((), n) = counted(|| drop(samples.clone()));
    assert_eq!(n, 1);
}

#[test]
fn warm_ingest_without_an_incident_allocates_nothing() {
    let (names, platform) = (job_names(25), Name::from("westmere"));
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

/// 21 one-minute rows, as a task's history holds two correlation windows.
fn history(f: &dyn Fn(i64) -> (f64, f64)) -> History {
    let mut h = History::new();
    for m in 0..21 {
        let (cpi, usage) = f(m);
        h.push(m * MINUTE_US, cpi, usage);
    }
    h
}

#[test]
fn ranking_24_suspects_allocates_twice() {
    let victim = history(&|m| (if m % 2 == 1 { 3.0 } else { 1.0 }, 1.0));
    let usage: Vec<History> = (0..24)
        .map(|i| history(&|m| (1.0, ((m + i) % 3) as f64)))
        .collect();
    let names = job_names(24);
    let suspects: Vec<SuspectInput<'_>> = usage
        .iter()
        .zip(&names)
        .enumerate()
        .map(|(i, (usage, jobname))| SuspectInput {
            task: TaskHandle(i as u64),
            jobname,
            class: TaskClass::batch(),
            usage: usage.usage(),
        })
        .collect();
    // The victim's last ten minutes, read in place as `Agent::analyze`
    // reads them.
    let (ranked, n) = counted(|| {
        let window = victim.cpi().window(10 * MINUTE_US, 20 * MINUTE_US + 1);
        rank_suspects(window, &suspects, 2.0, MINUTE_US / 2)
    });
    assert_eq!(ranked.len(), 24);
    assert_eq!(n, 2);
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
        // As the spec store hands it out: shared, so held, not copied.
        let spec = Arc::new(spec_for(&format!("job-{i}"), "westmere"));
        let ((), n) = counted(|| agent.install_spec_at(spec, i));
        assert_eq!(n, 0, "job-{i}");
    }
    // An owned spec moves into an `Arc` of its own.
    let spec = spec_for("job-0", "westmere");
    let ((), n) = counted(|| agent.install_spec(spec));
    assert_eq!(n, 1);
}

#[test]
fn a_warm_spec_builder_sample_allocates_nothing() {
    let (names, platform) = (job_names(25), Name::from("westmere"));
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
    let mut history = History::new();
    // Two 10-minute windows of one-minute rows, as a task's history.
    let horizon = 20 * MINUTE_US;
    let step = |history: &mut History, minute: i64| {
        history.push(minute * MINUTE_US, minute as f64, 1.0);
        history.evict_before(minute * MINUTE_US - horizon);
    };
    for minute in 0..100 {
        step(&mut history, minute);
    }
    let ((), n) = counted(|| {
        for minute in 100..1_100 {
            step(&mut history, minute);
        }
    });
    assert_eq!(n, 0);
    assert_eq!((history.len(), history.capacity()), (21, 24));
}

#[test]
fn a_batch_at_a_new_instant_allocates_its_dedup_set_alone() {
    let (names, platform) = (job_names(25), Name::from("westmere"));
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

// What the detection chain holds, in bytes. Before a task's names were one
// pointer each, an agent held 728 B per resident task here; before a
// task's CPI and usage were one history of rows, 1 208 B
// (two 32-point series for 21 live points, each timestamp twice); before
// agents shared the spec store's copies, 164 B per installed spec (its own
// key and spec, names included); before an instant's dedup handles were
// one sorted slice, the aggregator held 22 440 B of dedup for this hour
// (a hash set an instant, ≈ 15.0 B per handle).

#[test]
fn an_agent_holds_its_resident_tasks_in_bytes() {
    let (names, platform) = (job_names(25), Name::from("westmere"));
    let batches: Vec<Vec<CpiSample>> = (0..40).map(|m| batch(&names, &platform, m)).collect();
    let (agent, bytes) = held(|| {
        let mut agent = Agent::new(Cpi2Config::default());
        for samples in &batches {
            agent.ingest(samples);
        }
        agent
    });
    assert!(agent.incidents().is_empty());
    // Per task: its handle, its state and 24 rows of 24 B.
    assert_eq!(bytes, 25 * 712);
}

/// A record pays one pointer a name. With fat `Arc<str>` names a sample
/// was 80 B, a suspect 48 B, an incident 128 B and a reading 120 B. A
/// reading is the §3.1 record plus L3 MPKI, and nothing more; the
/// simulator's counter block is the five counters something reads (it
/// was 56 B with L2 misses and memory lines).
#[test]
fn records_hold_a_pointer_per_name() {
    use std::mem::size_of;
    assert_eq!(size_of::<Name>(), 8);
    assert_eq!(size_of::<CpiSample>(), 64);
    assert_eq!(size_of::<Suspect>(), 40);
    assert_eq!(size_of::<cpi2_core::Incident>(), 112);
    assert_eq!(size_of::<cpi2_perf::CounterReading>(), 64);
    assert_eq!(size_of::<cpi2_sim::CounterBlock>(), 40);
}

#[test]
fn agents_sharing_a_store_hold_a_pointer_per_spec() {
    let store = SpecStore::new();
    let specs = (0..57).map(|j| spec_for(&format!("job-{j:02}"), "westmere"));
    let version = store.publish_at(specs.collect(), 0);
    let mut agents: Vec<Agent> = (0..4).map(|_| Agent::new(Cpi2Config::default())).collect();
    let ((), bytes) = held(|| {
        for agent in &mut agents {
            let (synced, specs) = store.pull(0, 0);
            assert_eq!(synced, version);
            for (spec, published_at) in specs {
                agent.install_spec_at(spec, published_at);
            }
        }
    });
    assert_eq!(bytes, 4 * 57 * 16);
}

#[test]
fn an_hour_of_dedup_holds_a_handle_in_bytes() {
    let (names, platform) = (job_names(25), Name::from("westmere"));
    let batches: Vec<Vec<CpiSample>> = (0..60).map(|m| batch(&names, &platform, m)).collect();
    let ingest_all = |horizon_us| {
        let mut aggregator = Aggregator::new(Cpi2Config::default(), 0);
        aggregator.set_dedup_horizon(horizon_us);
        let ((), bytes) = held(|| {
            for samples in &batches {
                aggregator.ingest(samples);
            }
        });
        bytes
    };
    // The hour's 60 instants of 25 handles each, all inside the horizon:
    // with dedup on, less with it off, is what dedup holds. That is 8 B a
    // handle, the tree's nodes and one batch's scratch: ≈ 9.9 B per
    // (instant, handle).
    let dedup = ingest_all(Some(60 * MINUTE_US)) - ingest_all(None);
    assert_eq!(dedup, 14_816);
}

// Before an incident shared its names with the samples and named its
// no-action reason by variant, each incident held a copy of its victim's
// job name and, when capped, of its target's (an 8 B `String` a name
// here), and each incident that took no action a formatted sentence
// (22–45 B here). Before its suspect list was sized before filling, an
// incident whose eligible suspect ranked below ten latency-sensitive
// neighbours (the Case-4 shape) held 20 slots for its 11 suspects.

#[test]
fn an_incident_holds_its_suspects_alone() {
    let (victim, hog) = (Name::from("victim"), Name::from("hog"));
    let (neighbour, platform) = (Name::from("neighbour"), Name::from("westmere"));
    let sample = |task, jobname: &Name, minute: i64, cpi, cpu_usage, class| CpiSample {
        task: TaskHandle(task),
        jobname: jobname.clone(),
        platforminfo: platform.clone(),
        timestamp: minute * MINUTE_US,
        cpu_usage,
        cpi,
        l3_mpki: 1.0,
        class,
    };
    // The victim's CPI climbs whenever the hog runs; in the Case-4 shape
    // ten latency-sensitive neighbours run in step with it, and outrank
    // it on their lower handles.
    let batches = |neighbours: u64| -> Vec<Vec<CpiSample>> {
        (0..12)
            .map(|m| {
                let on = m % 2 == 1;
                let usage = if on { 6.0 } else { 0.0 };
                let mut samples = vec![
                    sample(
                        1,
                        &victim,
                        m,
                        if on { 3.0 } else { 1.0 },
                        1.0,
                        TaskClass::latency_sensitive(),
                    ),
                    sample(20, &hog, m, 1.8, usage, TaskClass::batch()),
                ];
                samples.extend((0..neighbours).map(|n| {
                    let class = TaskClass::latency_sensitive();
                    sample(2 + n, &neighbour, m, 1.8, usage, class)
                }));
                samples
            })
            .collect()
    };
    let capped = Cpi2Config::default();
    let unthrottled = Cpi2Config {
        auto_throttle: false,
        ..Cpi2Config::default()
    };
    let uncorrelated = Cpi2Config {
        correlation_threshold: 0.99,
        ..Cpi2Config::default()
    };
    let mut actions = Vec::new();
    for (config, neighbours) in [
        (capped.clone(), 0),
        (unthrottled, 0),
        (uncorrelated, 0),
        (capped, 10),
    ] {
        let mut agent = Agent::new(config);
        agent.install_spec(spec_for("victim", "westmere"));
        for samples in &batches(neighbours) {
            agent.ingest(samples);
        }
        let mut incidents = agent.take_incidents();
        let incident = incidents.remove(0);
        assert_eq!(incident.suspects.len() as u64, 1 + neighbours.min(10));
        assert_eq!(incident.suspects.capacity(), incident.suspects.len());
        let suspects = incident.suspects.capacity() * std::mem::size_of::<Suspect>();
        actions.push(incident.action.clone());
        // The agent and the batches still hold every name.
        let ((), freed) = held(|| drop(incident));
        assert_eq!(-freed, suspects as isize, "{:?}", actions.last());
    }
    assert!(matches!(actions[0], IncidentAction::HardCap { .. }));
    assert!(actions[1..3]
        .iter()
        .all(|a| matches!(a, IncidentAction::None { .. })));
    assert!(matches!(
        actions[3],
        IncidentAction::HardCap {
            target: TaskHandle(20),
            ..
        }
    ));
}

/// The harness's dedup window: as long as the retry queue can redeliver
/// a copy at one-second ticks.
#[test]
fn the_harness_dedup_holds_as_many_bytes_after_two_hours_as_after_one() {
    let (names, platform) = (job_names(25), Name::from("westmere"));
    // Sixty machines sampled a second apart, each once a minute: one
    // 25-task batch every second.
    let batches: Vec<Vec<CpiSample>> = (0..7_200)
        .map(|s| {
            let mut samples = batch(&names, &platform, 0);
            for (i, sample) in samples.iter_mut().enumerate() {
                sample.task = TaskHandle(((s % 60) * 25 + i as i64) as u64);
                sample.timestamp = s * 1_000_000;
            }
            samples
        })
        .collect();
    let dedup_after = |seconds: usize| {
        let ingest_all = |horizon_us| {
            let mut aggregator = Aggregator::new(Cpi2Config::default(), 0);
            aggregator.set_dedup_horizon(horizon_us);
            let ((), bytes) = held(|| {
                for samples in &batches[..seconds] {
                    aggregator.ingest(samples);
                }
            });
            bytes
        };
        let horizon = RetryQueue::redelivery_span_us(1_000_000);
        ingest_all(Some(horizon)) - ingest_all(None)
    };
    let hour = dedup_after(3_600);
    assert_eq!(hour, dedup_after(7_200));
    // The seven instants inside 6 s, 25 handles of 8 B each (1 400 B),
    // one 280 B tree leaf and one batch's 200 B of scratch. An hour's
    // horizon held 895 704 B here after one hour (3 600 instants), and
    // an instant's 200 B more after two.
    assert_eq!(hour, 1_880);
}
