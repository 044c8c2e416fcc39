//! Persistent worker pool for the parallel per-machine tick phase.
//!
//! [`Cluster::step`](crate::cluster::Cluster::step) shards machines
//! across these workers by contiguous [`MachineId`] range. Machines move
//! to a worker by value over a channel and come back the same way, so no
//! borrows cross threads and the pool outlives any one tick — spawning
//! threads per tick costs tens of microseconds each, which would swamp
//! the tick work itself on small fleets. Each worker ticks its shard with
//! the serial path's own grouped machine phase
//! ([`tick_group`](crate::machine::tick_group)), and results are
//! reassembled in shard order, keeping machine order (and therefore the
//! trace) identical to the serial path.

use crate::machine::{tick_group, Machine, MachineId, TaskExit};
use crate::time::{SimDuration, SimTime};
use cpi2_telemetry::{Gauge, Histo, Telemetry};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::thread::JoinHandle;
use std::time::Instant;

/// One tick's worth of work for one worker: a contiguous run of machines,
/// an empty (but warm) buffer to collect exits into, the tick window, and
/// whether to measure shard wall-clock time (clock reads are skipped
/// entirely when telemetry is disabled).
type ShardJob = (
    Vec<Machine>,
    Vec<(MachineId, TaskExit)>,
    SimTime,
    SimDuration,
    bool,
);

/// A worker's answer: the machines handed back, the exits they produced
/// (in machine order), and busy wall-clock µs when measurement was on.
/// `Err` means the shard panicked. The machine and exit vectors are the
/// job's own buffers coming home, so the pool can reuse them next tick.
type ShardOutcome = Result<(Vec<Machine>, Vec<(MachineId, TaskExit)>, u64), ()>;

/// Cached telemetry handles for the worker pool, resolved by
/// [`crate::cluster::Cluster`] when its config carries live telemetry.
#[derive(Debug, Clone, Default)]
pub(crate) struct PoolMetrics {
    /// Wall-clock µs each dispatched shard spent ticking its machines.
    pub(crate) shard_busy_us: Histo,
    /// Mean worker utilization over the last parallel tick: total shard
    /// busy time divided by (dispatched shards × tick wall time).
    pub(crate) utilization: Gauge,
    /// Shards dispatched in the last parallel tick.
    pub(crate) shards: Gauge,
}

impl PoolMetrics {
    pub(crate) fn new(telemetry: &Telemetry) -> PoolMetrics {
        PoolMetrics {
            shard_busy_us: telemetry.histogram("cpi_sim_pool_shard_busy_us", &[]),
            utilization: telemetry.gauge("cpi_sim_pool_utilization", &[]),
            shards: telemetry.gauge("cpi_sim_pool_shards", &[]),
        }
    }

    fn enabled(&self) -> bool {
        self.shard_busy_us.enabled()
    }
}

pub(crate) struct TickPool {
    txs: Vec<Sender<ShardJob>>,
    rx: Receiver<(usize, ShardOutcome)>,
    handles: Vec<JoinHandle<()>>,
    /// Recycled shard machine buffers (empty, warm capacity).
    shard_bufs: Vec<Vec<Machine>>,
    /// Recycled per-shard exit buffers (empty, warm capacity).
    exit_bufs: Vec<Vec<(MachineId, TaskExit)>>,
    /// Recycled reassembly slots, indexed by worker.
    slots: Vec<Option<ShardOutcome>>,
}

impl TickPool {
    /// Spawns `workers` (≥ 1) long-lived worker threads.
    pub(crate) fn new(workers: usize) -> Self {
        let (res_tx, rx) = channel::<(usize, ShardOutcome)>();
        let mut txs = Vec::with_capacity(workers);
        let mut handles = Vec::with_capacity(workers);
        for idx in 0..workers.max(1) {
            let (tx, job_rx) = channel::<ShardJob>();
            let res_tx = res_tx.clone();
            handles.push(std::thread::spawn(move || {
                while let Ok((mut machines, mut exits, now, dt, measure)) = job_rx.recv() {
                    let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        let started = measure.then(Instant::now);
                        tick_group(&mut machines, now, dt, |id, exit| exits.push((id, exit)));
                        started.map_or(0, |t| t.elapsed().as_micros().min(u64::MAX as u128) as u64)
                    }));
                    let outcome = match res {
                        Ok(busy_us) => Ok((machines, exits, busy_us)),
                        Err(_) => Err(()),
                    };
                    if res_tx.send((idx, outcome)).is_err() {
                        break;
                    }
                }
            }));
            txs.push(tx);
        }
        TickPool {
            txs,
            rx,
            handles,
            shard_bufs: Vec::new(),
            exit_bufs: Vec::new(),
            slots: Vec::new(),
        }
    }

    /// Number of worker threads.
    pub(crate) fn workers(&self) -> usize {
        self.txs.len()
    }

    /// Runs one tick across the pool: `machines` is carved into contiguous
    /// shards, dispatched, and reassembled in the original order; exits are
    /// *appended* to `exits` in machine order. Shard and exit buffers are
    /// recycled across ticks, so a warmed-up pool dispatches a tick without
    /// heap allocation.
    ///
    /// # Panics
    ///
    /// Propagates a panic from any worker's machine tick.
    pub(crate) fn tick(
        &mut self,
        machines: &mut Vec<Machine>,
        now: SimTime,
        dt: SimDuration,
        exits: &mut Vec<(MachineId, TaskExit)>,
        metrics: Option<&PoolMetrics>,
    ) {
        let measure = metrics.is_some_and(PoolMetrics::enabled);
        let wall_start = measure.then(Instant::now);
        let total = machines.len();
        let shard_len = total.div_ceil(self.txs.len()).max(1);
        let mut rest = std::mem::take(machines);
        let mut dispatched = 0;
        {
            let mut drain = rest.drain(..);
            loop {
                let mut shard = self.shard_bufs.pop().unwrap_or_default();
                shard.extend(drain.by_ref().take(shard_len));
                if shard.is_empty() {
                    self.shard_bufs.push(shard);
                    break;
                }
                let exit_buf = self.exit_bufs.pop().unwrap_or_default();
                self.txs[dispatched]
                    .send((shard, exit_buf, now, dt, measure))
                    .expect("tick worker exited early");
                dispatched += 1;
            }
        }
        // Hand the (now empty, still warm) fleet buffer back to the caller
        // before refilling it in shard order.
        *machines = rest;
        self.slots.clear();
        self.slots.resize_with(dispatched, || None);
        for _ in 0..dispatched {
            let (idx, outcome) = self.rx.recv().expect("tick worker exited early");
            self.slots[idx] = Some(outcome);
        }
        let mut total_busy_us = 0u64;
        for slot in self.slots.iter_mut() {
            let (mut ms, mut ex, busy_us) = slot
                .take()
                .expect("every dispatched shard reports once")
                .expect("machine shard worker panicked");
            machines.append(&mut ms);
            exits.append(&mut ex);
            self.shard_bufs.push(ms);
            self.exit_bufs.push(ex);
            total_busy_us += busy_us;
            if measure {
                if let Some(metrics) = metrics {
                    metrics.shard_busy_us.record(busy_us as f64);
                }
            }
        }
        if let (Some(metrics), Some(wall_start)) = (metrics, wall_start) {
            if dispatched > 0 {
                metrics.shards.set(dispatched as f64);
                let wall_us = wall_start.elapsed().as_secs_f64() * 1e6;
                if wall_us > 0.0 {
                    metrics
                        .utilization
                        .set(total_busy_us as f64 / (wall_us * dispatched as f64));
                }
            }
        }
    }
}

impl Drop for TickPool {
    fn drop(&mut self) {
        // Closing the job channels ends each worker's recv loop.
        self.txs.clear();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

impl std::fmt::Debug for TickPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TickPool")
            .field("workers", &self.txs.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::Platform;

    fn machines(n: u32) -> Vec<Machine> {
        (0..n)
            .map(|i| Machine::new(MachineId(i), Platform::westmere(), i as u64))
            .collect()
    }

    #[test]
    fn preserves_machine_order() {
        let mut pool = TickPool::new(3);
        let mut ms = machines(10);
        let mut exits = Vec::new();
        for _ in 0..5 {
            pool.tick(
                &mut ms,
                SimTime::ZERO,
                SimDuration::from_secs(1),
                &mut exits,
                None,
            );
        }
        assert_eq!(ms.len(), 10);
        for (i, m) in ms.iter().enumerate() {
            assert_eq!(m.id, MachineId(i as u32));
        }
    }

    #[test]
    fn more_workers_than_machines() {
        let mut pool = TickPool::new(8);
        let mut ms = machines(3);
        pool.tick(
            &mut ms,
            SimTime::ZERO,
            SimDuration::from_secs(1),
            &mut Vec::new(),
            None,
        );
        assert_eq!(ms.len(), 3);
    }

    #[test]
    fn empty_fleet_is_a_no_op() {
        let mut pool = TickPool::new(2);
        let mut ms = Vec::new();
        let mut exits = Vec::new();
        pool.tick(
            &mut ms,
            SimTime::ZERO,
            SimDuration::from_secs(1),
            &mut exits,
            None,
        );
        assert!(exits.is_empty());
        assert!(ms.is_empty());
    }

    #[test]
    fn drop_joins_workers() {
        let pool = TickPool::new(4);
        assert_eq!(pool.workers(), 4);
        drop(pool); // must not hang
    }
}
