//! Cluster-wide sample collection (the left half of Fig. 6).
//!
//! Per-machine agents push CPI sample batches into a per-cluster
//! collector over a bounded queue; the collector drains them into the
//! aggregation service. The queue is shared behind a lock so a threaded
//! deployment can run many agent threads against one collector.
//! Incidents do not travel here: the harness takes them from each
//! `Agent` directly.

use crate::aggregator::Aggregator;
use cpi2_core::CpiSample;
use cpi2_telemetry::{Counter, Gauge, Telemetry};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
// Poison is ignored: a holder pushes or pops whole batches, so the queue stays whole.
use std::sync::{Mutex, PoisonError};

/// The bounded FIFO of sample batches between the agents' handles and
/// the collector. Never blocks: a push at capacity hands the batch back.
#[derive(Debug, Clone)]
struct Queue {
    items: Arc<Mutex<VecDeque<Vec<CpiSample>>>>,
    capacity: usize,
}

impl Queue {
    fn try_push(&self, batch: Vec<CpiSample>) -> Result<(), Vec<CpiSample>> {
        let mut items = self.items.lock().unwrap_or_else(PoisonError::into_inner);
        if items.len() >= self.capacity {
            return Err(batch);
        }
        items.push_back(batch);
        Ok(())
    }

    /// The lock is released on return, so a drain never holds it while
    /// the aggregator ingests.
    fn pop(&self) -> Option<Vec<CpiSample>> {
        let mut items = self.items.lock().unwrap_or_else(PoisonError::into_inner);
        items.pop_front()
    }

    fn len(&self) -> usize {
        let items = self.items.lock().unwrap_or_else(PoisonError::into_inner);
        items.len()
    }
}

/// Sending side handed to each machine agent.
#[derive(Debug, Clone)]
pub struct CollectorHandle {
    queue: Queue,
    dropped: Arc<AtomicU64>,
    metrics: CollectorMetrics,
}

/// Cached telemetry handles shared by the collector and its handles.
///
/// `dropped_total` mirrors the message-level [`Collector::dropped`]
/// counter into the registry so back-pressure loss is finally visible in
/// exports instead of only through an accessor nothing called.
#[derive(Debug, Clone, Default)]
struct CollectorMetrics {
    messages_total: Counter,
    samples_total: Counter,
    dropped_total: Counter,
    queue_depth: Gauge,
}

impl CollectorMetrics {
    fn new(telemetry: &Telemetry) -> CollectorMetrics {
        CollectorMetrics {
            messages_total: telemetry.counter("cpi_collector_messages_total", &[]),
            samples_total: telemetry.counter("cpi_collector_samples_total", &[]),
            dropped_total: telemetry.counter("cpi_collector_dropped_total", &[]),
            queue_depth: telemetry.gauge("cpi_collector_queue_depth", &[]),
        }
    }
}

impl CollectorHandle {
    /// Sends one batch of samples, dropping it if the collector is
    /// saturated (the pipeline is lossy by design — §4.1 detection runs
    /// locally, so lost telemetry degrades aggregation only). Returns
    /// `false` if dropped; a refusal is counted in
    /// [`Collector::dropped`]. The harness ships through a
    /// [`RetryQueue`] instead, whose lost batches are
    /// [`RetryQueue::abandoned_batches`].
    pub fn send_samples(&self, samples: Vec<CpiSample>) -> bool {
        match self.offer_samples(samples) {
            Ok(()) => true,
            Err(_) => {
                self.dropped.fetch_add(1, Ordering::Relaxed);
                self.metrics.dropped_total.inc();
                false
            }
        }
    }

    /// Attempts to send a sample batch **without** giving up on failure:
    /// on back-pressure the batch comes back to the caller (nothing is
    /// counted as dropped) so a [`RetryQueue`] can try again later.
    pub fn offer_samples(&self, samples: Vec<CpiSample>) -> Result<(), Vec<CpiSample>> {
        let count = samples.len() as u64;
        self.queue.try_push(samples)?;
        self.metrics.messages_total.inc();
        self.metrics.samples_total.add(count);
        Ok(())
    }
}

/// Total send attempts per batch (first try included) before the batch
/// is abandoned. The pipeline stays lossy by design — §4.1 detection runs
/// locally — retries just shrink the loss window.
const MAX_ATTEMPTS: u32 = 3;
/// Backoff before attempt `n + 1`, doubling each retry:
/// `BASE_BACKOFF_US << (n - 1)` µs after the `n`-th failure.
const BASE_BACKOFF_US: i64 = 2_000_000;

/// The wait after a batch's `attempts`-th failed offer.
fn backoff_us(attempts: u32) -> i64 {
    BASE_BACKOFF_US << (attempts - 1).min(32)
}

/// One sample batch awaiting re-send.
#[derive(Debug)]
struct PendingBatch {
    samples: Vec<CpiSample>,
    attempts: u32,
    next_attempt_us: i64,
}

/// Agent-side bounded retry-with-backoff for sample shipments.
///
/// Wraps [`CollectorHandle::offer_samples`]: a batch the collector can't
/// take right now is parked and re-offered on later [`RetryQueue::flush`]
/// calls with exponential backoff, until its three attempts are
/// exhausted — then it is abandoned and counted, never silently lost.
/// Purely deterministic: ordering is FIFO and timing comes from the
/// caller's clock.
#[derive(Debug, Default)]
pub struct RetryQueue {
    pending: VecDeque<PendingBatch>,
    abandoned_batches: u64,
    retries_total: Counter,
    abandoned_total: Counter,
}

impl RetryQueue {
    /// Attaches telemetry: retry attempts and abandoned batches.
    pub fn set_telemetry(&mut self, telemetry: &Telemetry) {
        self.retries_total = telemetry.counter("cpi_collector_retries_total", &[]);
        self.abandoned_total = telemetry.counter("cpi_collector_retry_abandoned_total", &[]);
    }

    /// Sends `samples` through `handle`, parking the batch for retry if
    /// the collector is saturated. Returns `true` when delivered
    /// immediately.
    pub fn send_or_queue(
        &mut self,
        handle: &CollectorHandle,
        samples: Vec<CpiSample>,
        now_us: i64,
    ) -> bool {
        match handle.offer_samples(samples) {
            Ok(()) => true,
            Err(samples) => {
                self.park(samples, 1, now_us);
                false
            }
        }
    }

    /// Re-offers every parked batch whose backoff has elapsed. Returns how
    /// many batches were delivered this call.
    pub fn flush(&mut self, handle: &CollectorHandle, now_us: i64) -> usize {
        let mut delivered = 0;
        for _ in 0..self.pending.len() {
            let Some(batch) = self.pending.pop_front() else {
                break;
            };
            if batch.next_attempt_us > now_us {
                self.pending.push_back(batch);
                continue;
            }
            self.retries_total.inc();
            match handle.offer_samples(batch.samples) {
                Ok(()) => delivered += 1,
                Err(samples) => self.park(samples, batch.attempts + 1, now_us),
            }
        }
        delivered
    }

    fn park(&mut self, samples: Vec<CpiSample>, attempts: u32, now_us: i64) {
        if attempts >= MAX_ATTEMPTS {
            self.abandoned_batches += 1;
            self.abandoned_total.inc();
            return;
        }
        self.pending.push_back(PendingBatch {
            samples,
            attempts,
            next_attempt_us: now_us.saturating_add(backoff_us(attempts)),
        });
    }

    /// How long after a batch's first offer its last re-offer can come,
    /// for a caller that offers and flushes only at multiples of
    /// `flush_every_us`: each backoff (2 s, then 4 s) ends at the first
    /// flush at or after it elapses, and the attempt after the last
    /// backoff is the final one. At a 1 s flush period it is the
    /// backoffs' sum, 6 s. A receiver that remembers what it took for
    /// this long, measured from the batch's first offer, recognises every
    /// copy the queue re-sends.
    pub fn redelivery_span_us(flush_every_us: i64) -> i64 {
        let flush = flush_every_us.max(1);
        (1..MAX_ATTEMPTS)
            .map(|attempts| ((backoff_us(attempts) - 1) / flush + 1) * flush)
            .sum()
    }

    /// Batches currently parked for retry.
    pub fn pending(&self) -> usize {
        self.pending.len()
    }

    /// Batches abandoned after exhausting every attempt.
    pub fn abandoned_batches(&self) -> u64 {
        self.abandoned_batches
    }
}

/// The per-cluster collector: drains agents' sample batches into the
/// aggregator.
#[derive(Debug)]
pub struct Collector {
    queue: Queue,
    dropped: Arc<AtomicU64>,
    metrics: CollectorMetrics,
}

impl Collector {
    /// Creates a collector whose queue holds `capacity` batches
    /// (telemetry disabled; see [`Collector::with_telemetry`]).
    pub fn new(capacity: usize) -> Self {
        Collector::with_telemetry(capacity, &Telemetry::disabled())
    }

    /// Creates a collector whose handles report ingest/drop counters to
    /// `telemetry`.
    pub fn with_telemetry(capacity: usize, telemetry: &Telemetry) -> Self {
        Collector {
            queue: Queue {
                items: Arc::default(),
                capacity,
            },
            dropped: Arc::new(AtomicU64::new(0)),
            metrics: CollectorMetrics::new(telemetry),
        }
    }

    /// Batches currently queued and awaiting a drain.
    pub fn queue_depth(&self) -> usize {
        self.queue.len()
    }

    /// A handle for an agent to send through.
    pub fn handle(&self) -> CollectorHandle {
        CollectorHandle {
            queue: self.queue.clone(),
            dropped: Arc::clone(&self.dropped),
            metrics: self.metrics.clone(),
        }
    }

    /// Drains queued sample batches straight into `agg`, each batch as
    /// one [`Aggregator::ingest`] call. Returns the number of samples
    /// ingested.
    pub fn drain_into(&mut self, agg: &mut Aggregator) -> usize {
        let mut n = 0;
        while let Some(batch) = self.queue.pop() {
            n += batch.len();
            agg.ingest(&batch);
        }
        self.metrics.queue_depth.set(self.queue.len() as f64);
        n
    }

    /// Batches [`CollectorHandle::send_samples`] refused because the
    /// queue was full, across all handles (for monitoring).
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpi2_core::{TaskClass, TaskHandle};

    /// Every queued sample, in arrival order.
    fn drain(c: &Collector) -> Vec<CpiSample> {
        let mut out = Vec::new();
        while let Some(batch) = c.queue.pop() {
            out.extend(batch);
        }
        out
    }

    fn sample(task: u64) -> CpiSample {
        CpiSample {
            task: TaskHandle(task),
            jobname: "j".into(),
            platforminfo: "p".into(),
            timestamp: 0,
            cpu_usage: 1.0,
            cpi: 1.5,
            l3_mpki: 1.0,
            class: TaskClass::batch(),
        }
    }

    #[test]
    fn samples_flow_through() {
        let c = Collector::new(16);
        let h = c.handle();
        assert!(h.send_samples(vec![sample(1), sample(2)]));
        assert!(h.send_samples(vec![sample(3)]));
        assert_eq!(c.queue_depth(), 2);
        assert_eq!(drain(&c).len(), 3);
        assert!(drain(&c).is_empty());
    }

    #[test]
    fn backpressure_drops() {
        let c = Collector::new(1);
        let h = c.handle();
        assert!(h.send_samples(vec![sample(1)]));
        assert!(!h.send_samples(vec![sample(2)]));
        assert!(!h.send_samples(vec![sample(3)]));
        assert_eq!(c.dropped(), 2);

        // Capacity 2: the third message is refused and counted, the two
        // that fit stay queued and drain in arrival order.
        let c = Collector::new(2);
        let h = c.handle();
        assert!(h.send_samples(vec![sample(1)]));
        assert!(h.send_samples(vec![sample(2)]));
        assert!(!h.send_samples(vec![sample(3)]));
        assert_eq!(c.dropped(), 1);
        assert_eq!(c.queue_depth(), 2);
        let tasks: Vec<u64> = drain(&c).iter().map(|s| s.task.0).collect();
        assert_eq!(c.queue_depth(), 0);
        assert_eq!(tasks, [1, 2]);
    }

    #[test]
    fn drain_into_feeds_aggregator() {
        use cpi2_core::Cpi2Config;

        let mut c = Collector::new(64);
        let h = c.handle();
        for t in 0..6u64 {
            let batch: Vec<_> = (0..20).map(|_| sample(t * 100)).collect();
            assert!(h.send_samples(batch));
        }
        let config = Cpi2Config {
            min_samples_per_task: 10,
            ..Cpi2Config::default()
        };
        let mut agg = Aggregator::new(config, 0);
        let n = c.drain_into(&mut agg);
        assert_eq!(n, 120);
        assert_eq!(agg.samples_seen(), 120);
        assert_eq!(c.queue_depth(), 0);
        let store = crate::specstore::SpecStore::new();
        let specs = agg.refresh_now(&store);
        assert_eq!(specs.len(), 1);
        assert!((specs[0].cpi_mean - 1.5).abs() < 1e-9);
    }

    #[test]
    fn offer_returns_batch_on_backpressure() {
        let c = Collector::new(1);
        let h = c.handle();
        assert!(h.offer_samples(vec![sample(1)]).is_ok());
        let back = h.offer_samples(vec![sample(2), sample(3)]).unwrap_err();
        assert_eq!(back.len(), 2);
        // Nothing counted as dropped: the caller still owns the batch.
        assert_eq!(c.dropped(), 0);
    }

    #[test]
    fn retry_queue_delivers_after_backoff() {
        let c = Collector::new(1);
        let h = c.handle();
        let mut q = RetryQueue::default();
        assert!(q.send_or_queue(&h, vec![sample(1)], 0));
        assert!(!q.send_or_queue(&h, vec![sample(2)], 0));
        assert_eq!(q.pending(), 1);
        // Backoff (2 s after the first failure) not elapsed: the parked
        // batch is not retried yet.
        assert_eq!(drain(&c).len(), 1);
        assert_eq!(q.flush(&h, 1_999_999), 0);
        assert_eq!(q.pending(), 1);
        // Once due (and with channel space) the retry delivers.
        assert_eq!(q.flush(&h, 2_000_000), 1);
        assert_eq!(q.pending(), 0);
        assert_eq!(drain(&c).len(), 1);
        assert_eq!(q.abandoned_batches(), 0);
    }

    #[test]
    fn retry_queue_abandons_after_max_attempts() {
        let tel = Telemetry::enabled();
        let c = Collector::new(1);
        let h = c.handle();
        let mut q = RetryQueue::default();
        q.set_telemetry(&tel);
        assert!(q.send_or_queue(&h, vec![sample(1)], 0)); // fills the channel
        assert!(!q.send_or_queue(&h, vec![sample(2)], 0)); // attempt 1 parked
        assert_eq!(q.flush(&h, 2_000_000), 0); // attempt 2 fails → parked, backoff doubled
        assert_eq!(q.pending(), 1);
        assert_eq!(q.flush(&h, 5_999_999), 0); // 2 s + 4 s not yet elapsed
        assert_eq!(q.abandoned_batches(), 0);
        assert_eq!(q.flush(&h, 6_000_000), 0); // attempt 3 fails → abandoned
        assert_eq!(q.pending(), 0);
        assert_eq!(q.abandoned_batches(), 1);
        let text = tel.prometheus_text().unwrap();
        assert!(text.contains("cpi_collector_retries_total 2"), "{text}");
        assert!(
            text.contains("cpi_collector_retry_abandoned_total 1"),
            "{text}"
        );
    }

    #[test]
    fn redelivery_span_rounds_each_backoff_up_to_a_flush() {
        assert_eq!(RetryQueue::redelivery_span_us(1_000_000), 6_000_000);
        assert_eq!(RetryQueue::redelivery_span_us(1), 6_000_000);
        // 2 s waits for the flush at 3 s, then 4 s for the one at 9 s.
        assert_eq!(RetryQueue::redelivery_span_us(3_000_000), 9_000_000);
        assert_eq!(RetryQueue::redelivery_span_us(60_000_000), 120_000_000);
    }

    /// The latest copy the queue can re-send: a duplicated shipment whose
    /// second copy the collector refuses at once and again at +2 s, so it
    /// is taken at +6 s, its last attempt, after the aggregator has seen
    /// samples 6 s newer. A dedup horizon of the redelivery span still
    /// remembers the first copy; any shorter one does not.
    #[test]
    fn a_copy_re_sent_on_its_last_attempt_is_dropped_at_the_redelivery_horizon() {
        const SECOND: i64 = 1_000_000;
        let at = |task: u64, t: i64| {
            let mut s = sample(task);
            s.timestamp = t;
            vec![s]
        };
        let dropped_with = |horizon_us: i64| {
            let mut c = Collector::new(1);
            let h = c.handle();
            let mut q = RetryQueue::default();
            let mut agg = Aggregator::new(cpi2_core::Cpi2Config::default(), 0);
            agg.set_dedup_horizon(Some(horizon_us));
            // t = 0: the first copy is taken, the second parked.
            assert!(q.send_or_queue(&h, at(1, 0), 0));
            assert!(!q.send_or_queue(&h, at(1, 0), 0));
            c.drain_into(&mut agg);
            // t = 2 s: another machine's batch fills the collector, so
            // the re-offer fails and the copy waits 4 s more.
            assert!(h.offer_samples(at(2, 2 * SECOND)).is_ok());
            assert_eq!(q.flush(&h, 2 * SECOND), 0);
            c.drain_into(&mut agg);
            assert_eq!(q.flush(&h, 6 * SECOND - 1), 0);
            // t = 6 s: the aggregator sees 6 s before the copy arrives.
            assert!(h.offer_samples(at(2, 6 * SECOND)).is_ok());
            c.drain_into(&mut agg);
            assert_eq!(q.flush(&h, 6 * SECOND), 1);
            c.drain_into(&mut agg);
            assert_eq!((q.pending(), q.abandoned_batches()), (0, 0));
            agg.duplicates_dropped()
        };
        let horizon = RetryQueue::redelivery_span_us(SECOND);
        assert_eq!(dropped_with(horizon), 1);
        assert_eq!(dropped_with(horizon - 1), 0);
    }

    #[test]
    fn telemetry_counts_ingest_and_drops() {
        let tel = Telemetry::enabled();
        let mut c = Collector::with_telemetry(1, &tel);
        let h = c.handle();
        assert!(h.send_samples(vec![sample(1), sample(2)]));
        assert!(!h.send_samples(vec![sample(3)]));
        assert!(!h.send_samples(Vec::new()));
        c.drain_into(&mut Aggregator::new(cpi2_core::Cpi2Config::default(), 0));
        let text = tel.prometheus_text().unwrap();
        assert!(text.contains("cpi_collector_messages_total 1"), "{text}");
        assert!(text.contains("cpi_collector_samples_total 2"), "{text}");
        assert!(text.contains("cpi_collector_dropped_total 2"), "{text}");
        // A drain leaves the depth it found behind it in the gauge.
        assert!(text.contains("cpi_collector_queue_depth 0"), "{text}");
        // The registry mirrors the message-level accessor.
        assert_eq!(c.dropped(), 2);
    }

    #[test]
    fn threaded_agents() {
        fn assert_shareable<T: Clone + Send + Sync>() {}
        assert_shareable::<CollectorHandle>();

        let c = Collector::new(1024);
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let h = c.handle();
                std::thread::spawn(move || {
                    for i in 0..50 {
                        h.send_samples(vec![sample(t * 100 + i)]);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(drain(&c).len(), 200);
    }
}
