//! The receiving end: checks every delivered record against the
//! reference computation and keeps the latencies, one fixed-size
//! histogram per second of schedule.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use bytes::Bytes;
use elasticutor_core::ids::Key;
use elasticutor_egress::DeliverFn;
use elasticutor_runtime::{monotonic_ns, FifoChecker};

use crate::gen::{payload, read_u64, OpKind, Workload};
use crate::sys::Hist;

/// Stamps a traced record carries in the last 24 bytes of its output
/// payload: decode (`Record::created_ns`), count start, count end.
pub const TRACE_BYTES: usize = 24;

/// One traced record, as seen at delivery.
#[derive(Clone, Copy, Debug)]
pub struct TraceSample {
    pub delivery_seq: u64,
    pub key: u64,
    pub rec_seq: u64,
    pub due: u64,
    pub decode: u64,
    pub count_start: u64,
    pub count_end: u64,
    pub delivered: u64,
}

/// Keeps one traced record in this many (by delivery seq).
pub const TRACE_STRIDE: u64 = 8;

#[derive(Default)]
struct Inner {
    /// Last delivered seq per key; a delivery is correct only when it is
    /// exactly the next one.
    last_seq: Vec<u64>,
    /// Schedule start of the current phase.
    start: u64,
    /// Latencies of the correct deliveries since the last `begin`, by
    /// whole second of due time after `start`; the last window also takes
    /// anything later.
    windows: Vec<Hist>,
    /// `(due, latency)` of every traced delivery; untraced deliveries
    /// only enter the histograms, so the benchmark's memory stays flat.
    traced: Vec<(u64, u64)>,
    traces: Vec<TraceSample>,
    wrong: u64,
    first_errors: Vec<String>,
}

/// Checks deliveries and collects samples; shared with the egress
/// server's delivery callback.
pub struct Collector {
    seed: u64,
    op: OpKind,
    record_bytes: usize,
    inner: Mutex<Inner>,
    fifo: FifoChecker,
    delivered: AtomicU64,
}

impl Collector {
    pub fn new(w: &Workload, seed: u64) -> Arc<Self> {
        Arc::new(Self {
            seed,
            op: w.op,
            record_bytes: w.record_bytes,
            inner: Mutex::new(Inner {
                last_seq: vec![0; w.keys + 1],
                windows: vec![Hist::default()],
                ..Inner::default()
            }),
            fifo: FifoChecker::new(),
            delivered: AtomicU64::new(0),
        })
    }

    /// Bytes of an untraced output payload.
    pub fn output_bytes(&self) -> usize {
        match self.op {
            OpKind::Count => 16,
            OpKind::PutEcho => self.record_bytes,
        }
    }

    /// The egress server's delivery callback.
    pub fn deliver_fn(self: &Arc<Self>) -> Box<DeliverFn> {
        let me = Arc::clone(self);
        Box::new(move |seq, key, rec_seq, payload| me.deliver(seq, key, rec_seq, &payload))
    }

    fn deliver(&self, delivery_seq: u64, key: Key, rec_seq: u64, out: &Bytes) {
        let now = monotonic_ns();
        self.delivered.fetch_add(1, Ordering::AcqRel);
        let fifo_ok = self.fifo.observe(key, rec_seq);
        let base = self.output_bytes();
        let traced = out.len() == base + TRACE_BYTES;
        let mut inner = self.inner.lock().expect("collector lock");
        let problem = if !traced && out.len() != base {
            Some(format!("payload of {} bytes", out.len()))
        } else if inner.last_seq.get(key.value() as usize).map(|&s| s + 1) != Some(rec_seq) {
            Some("not the key's next seq (lost, duplicated or reordered)".to_string())
        } else if !fifo_ok {
            Some("FifoChecker violation".to_string())
        } else {
            let due = read_u64(out, 0);
            match self.op {
                OpKind::Count if read_u64(out, 8) != rec_seq => {
                    Some(format!("count {} != rec_seq", read_u64(out, 8)))
                }
                OpKind::PutEcho
                    if out[..base] != payload(self.seed, key.value(), rec_seq, due, base)[..] =>
                {
                    Some("echoed payload differs from the generated one".to_string())
                }
                _ => None,
            }
        };
        if let Some(p) = problem {
            inner.wrong += 1;
            if inner.first_errors.len() < 5 {
                inner
                    .first_errors
                    .push(format!("key {} seq {rec_seq}: {p}", key.value()));
            }
            if let Some(s) = inner.last_seq.get_mut(key.value() as usize) {
                *s = (*s).max(rec_seq);
            }
            return;
        }
        inner.last_seq[key.value() as usize] = rec_seq;
        let due = read_u64(out, 0);
        let latency = now.saturating_sub(due);
        let w = (due.saturating_sub(inner.start) / 1_000_000_000) as usize;
        let last = inner.windows.len() - 1;
        inner.windows[w.min(last)].record(latency);
        if traced {
            inner.traced.push((due, latency));
        }
        if traced && delivery_seq.is_multiple_of(TRACE_STRIDE) {
            let t = out.len() - TRACE_BYTES;
            inner.traces.push(TraceSample {
                delivery_seq,
                key: key.value(),
                rec_seq,
                due,
                decode: read_u64(out, t),
                count_start: read_u64(out, t + 8),
                count_end: read_u64(out, t + 16),
                delivered: now,
            });
        }
    }

    /// Records delivered so far (correct or not).
    pub fn delivered(&self) -> u64 {
        self.delivered.load(Ordering::Acquire)
    }

    /// Starts a phase whose schedule runs `secs` from `start`: drops
    /// what the last phase left and sets up one histogram per second.
    pub fn begin(&self, start: u64, secs: f64) {
        let mut inner = self.inner.lock().expect("collector lock");
        inner.start = start;
        inner.windows = vec![Hist::default(); secs.ceil().max(1.0) as usize];
        inner.traced = Vec::new();
        inner.traces = Vec::new();
    }

    /// Takes the phase's per-second histograms, traced `(due, latency)`
    /// pairs and traced samples.
    pub fn take(&self) -> (Vec<Hist>, Vec<(u64, u64)>, Vec<TraceSample>) {
        let mut inner = self.inner.lock().expect("collector lock");
        (
            std::mem::replace(&mut inner.windows, vec![Hist::default()]),
            std::mem::take(&mut inner.traced),
            std::mem::take(&mut inner.traces),
        )
    }

    /// Final check against what the generator sent per key: returns the
    /// number of failed records and a few descriptions.
    pub fn reconcile(&self, sent_per_key: &[u64]) -> (u64, Vec<String>) {
        let inner = self.inner.lock().expect("collector lock");
        let mut failed = inner.wrong;
        let mut errors = inner.first_errors.clone();
        for (key, (&sent, &got)) in sent_per_key.iter().zip(&inner.last_seq).enumerate() {
            if got < sent {
                failed += sent - got;
                if errors.len() < 10 {
                    errors.push(format!(
                        "key {key}: {} of {sent} never delivered",
                        sent - got
                    ));
                }
            }
        }
        if !self.fifo.is_clean() {
            errors.push(format!(
                "{} FifoChecker violations",
                self.fifo.violation_count()
            ));
        }
        (failed, errors)
    }
}
