//! Workloads and the open-loop record generator.
//!
//! The generator is a pure function of `(workload, seed)` up to the due
//! times: the same seed yields the same keys, sequence numbers and
//! payload bytes, so the same frame stream reaches the sockets.

use std::io::Write;
use std::time::Duration;

use bytes::Bytes;
use elasticutor_core::ids::Key;
use elasticutor_core::wire;
use elasticutor_ingress::{encode_batch, RECORD_FRAME};
use elasticutor_runtime::{monotonic_ns, Record};
use elasticutor_sim::SimRng;
use elasticutor_workload::ShuffledKeySpace;

/// What the keyed `count` operator does with each record.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpKind {
    /// Read-modify-write of a per-key `u64` counter; emits the count.
    Count,
    /// `put`s the payload as the key's latest value and echoes it.
    PutEcho,
}

/// The committed geometric rate ladder behind `sustainable_rps`.
#[derive(Clone, Copy, Debug)]
pub struct Ladder {
    /// Rate of the lowest rung, records per second.
    pub base: f64,
    /// Ratio between neighbouring rungs (at most 1.05).
    pub ratio: f64,
    /// Number of rungs.
    pub rungs: usize,
}

impl Ladder {
    pub fn rate(&self, rung: usize) -> f64 {
        self.base * self.ratio.powi(rung as i32)
    }
}

/// One benchmark workload. Every number is absolute and committed here;
/// nothing is scaled by a capacity measured on the day.
#[derive(Clone, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub record_bytes: usize,
    pub keys: usize,
    pub zipf_s: f64,
    /// Key-frequency shuffles per minute (the paper's ω); 0 = none.
    pub omega_per_min: f64,
    /// The fixed open-loop rate of the latency and CPU measurements.
    pub rate: f64,
    pub op: OpKind,
    /// Task threads per `count` instance.
    pub count_tasks: u32,
    /// Period of the scripted `scale_out`/`scale_in` alternation.
    pub rescale_every: Option<Duration>,
    /// The ladder behind `sustainable_rps`, for the workloads that
    /// report it.
    pub ladder: Option<Ladder>,
}

pub const WORKLOADS: &[Workload] = &[
    // Per-record costs dominate: frame decode, routing, pumps and rings,
    // egress framing. WAL and outbox bytes are a small share.
    Workload {
        name: "small-steady",
        record_bytes: 32,
        keys: 10_000,
        zipf_s: 0.5,
        omega_per_min: 0.0,
        rate: 150_000.0,
        op: OpKind::Count,
        count_tasks: 1,
        rescale_every: None,
        ladder: Some(Ladder {
            base: 100_000.0,
            ratio: 1.04,
            rungs: 60,
        }),
    },
    // Byte-proportional work dominates: WAL append, checkpoint runs,
    // outbox append, checksums, socket copies. ~40 MiB of live state.
    Workload {
        name: "wide-values",
        record_bytes: 4096,
        keys: 10_000,
        zipf_s: 0.5,
        omega_per_min: 0.0,
        rate: 4_000.0,
        op: OpKind::PutEcho,
        count_tasks: 1,
        rescale_every: None,
        ladder: Some(Ladder {
            base: 3_000.0,
            ratio: 1.04,
            rungs: 60,
        }),
    },
    // The only workload where the §3.3 migration path and the
    // intra-executor rebalance do real work: ω key shuffles, a
    // rebalance after each, and scripted rescales of `count`.
    Workload {
        name: "skew-rescale",
        record_bytes: 512,
        keys: 50_000,
        zipf_s: 1.0,
        omega_per_min: 48.0,
        rate: 20_000.0,
        op: OpKind::Count,
        count_tasks: 2,
        rescale_every: Some(Duration::from_millis(1250)),
        ladder: None,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Bytes of the generator's payload header: due time, key, seq.
pub const HEADER_BYTES: usize = 24;

/// The deterministic payload of record `(key, seq)`: the header
/// `[due u64][key u64][seq u64]` followed by filler words drawn from a
/// stream seeded by `(seed, key, seq)`, cut to `len` bytes.
pub fn payload(seed: u64, key: u64, seq: u64, due_ns: u64, len: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(len.max(HEADER_BYTES));
    out.extend_from_slice(&due_ns.to_le_bytes());
    out.extend_from_slice(&key.to_le_bytes());
    out.extend_from_slice(&seq.to_le_bytes());
    let mut rng = SimRng::new(seed ^ key.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ seq.rotate_left(29));
    while out.len() < len {
        out.extend_from_slice(&rng.next_u64().to_le_bytes());
    }
    out.truncate(len.max(HEADER_BYTES));
    out
}

/// Reads the little-endian `u64` at `at`.
pub fn read_u64(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8-byte slice"))
}

/// How a phase's schedule went, from the generator thread's side.
#[derive(Clone, Debug, Default)]
pub struct GenStats {
    /// Records written to sockets.
    pub sent: u64,
    /// Per wake-up: how late the thread woke against its own target
    /// (`max(next due, previous write end, previous wake + tick)`), so
    /// time blocked in socket writes is not counted as lateness.
    pub late_ns: Vec<u64>,
    /// Time blocked in socket writes.
    pub write_ns: u64,
    /// CPU time of the generator thread, in clock ticks.
    pub cpu_ticks: u64,
}

/// Wake-up period of the generator: every record due since the last
/// wake-up goes out in one frame per connection, so latency includes up
/// to one tick of generator batching.
pub const TICK_NS: u64 = 500_000;
/// Largest number of records in one frame.
const MAX_FRAME_RECORDS: usize = 1024;

/// The open-loop generator: one thread, `conns` connections, keys pinned
/// to connections by hash so per-connection FIFO gives per-key FIFO.
pub struct Generator {
    seed: u64,
    record_bytes: usize,
    keys: ShuffledKeySpace,
    /// Last seq sent per key (index `keys` is the set-up probe key).
    last_seq: Vec<u64>,
    /// Schedule time origin for the key shuffles.
    epoch_ns: u64,
}

impl Generator {
    pub fn new(w: &Workload, seed: u64) -> Self {
        Self {
            seed,
            record_bytes: w.record_bytes,
            keys: ShuffledKeySpace::new(w.keys, w.zipf_s, w.omega_per_min, SimRng::new(seed)),
            last_seq: vec![0; w.keys + 1],
            epoch_ns: 0,
        }
    }

    /// Sets the schedule time the key shuffles count from.
    pub fn set_epoch(&mut self, epoch_ns: u64) {
        self.epoch_ns = epoch_ns;
    }

    /// The key outside the Zipf key space used by set-up probes.
    pub fn probe_key(&self) -> u64 {
        (self.last_seq.len() - 1) as u64
    }

    /// Records sent so far per key, probe key last.
    pub fn sent_per_key(&self) -> &[u64] {
        &self.last_seq
    }

    /// The next record of the stream, due at `due_ns`.
    pub fn next_record(&mut self, due_ns: u64) -> Record {
        let key = self
            .keys
            .sample(due_ns.saturating_sub(self.epoch_ns))
            .value();
        self.record(key, due_ns)
    }

    /// A record for `key`, carrying the key's next seq.
    pub fn record(&mut self, key: u64, due_ns: u64) -> Record {
        let slot = &mut self.last_seq[key as usize];
        *slot += 1;
        let seq = *slot;
        let body = payload(self.seed, key, seq, due_ns, self.record_bytes);
        Record::new_at(Key(key), Bytes::from(body), due_ns).with_seq(seq)
    }

    /// Appends one record frame per non-empty connection bucket to
    /// `frames` (indexed by connection) and clears the buckets.
    pub fn encode(buckets: &mut [Vec<Record>], frames: &mut [Vec<u8>]) {
        for (bucket, frame) in buckets.iter_mut().zip(frames.iter_mut()) {
            if !bucket.is_empty() {
                wire::write_frame(frame, RECORD_FRAME, &encode_batch(bucket))
                    .expect("frame within the wire cap");
                bucket.clear();
            }
        }
    }

    /// Runs `n` records at `rate` from schedule time `start_ns` into
    /// `conns`, open loop. `stop` truncates the schedule: records not
    /// yet due are never generated.
    pub fn run<W: Write>(
        &mut self,
        conns: &mut [W],
        rate: f64,
        start_ns: u64,
        n: u64,
        stop: &std::sync::atomic::AtomicBool,
    ) -> std::io::Result<GenStats> {
        let cpu0 = crate::sys::thread_cpu_ticks();
        let interval = 1e9 / rate;
        let due = |i: u64| start_ns + (i as f64 * interval) as u64;
        let mut stats = GenStats::default();
        let mut buckets: Vec<Vec<Record>> = conns.iter().map(|_| Vec::new()).collect();
        let mut frames: Vec<Vec<u8>> = conns.iter().map(|_| Vec::new()).collect();
        let mut i = 0u64;
        let mut prev_wake = 0u64;
        let mut prev_end = 0u64;
        while i < n {
            if stop.load(std::sync::atomic::Ordering::Acquire) {
                break;
            }
            let target = due(i).max(prev_end).max(prev_wake + TICK_NS);
            let mut now = monotonic_ns();
            if now < target {
                std::thread::sleep(Duration::from_nanos(target - now));
                now = monotonic_ns();
            }
            stats.late_ns.push(now - target);
            prev_wake = now;
            let mut batch = 0usize;
            while i < n && due(i) <= now && batch < MAX_FRAME_RECORDS * conns.len() {
                let r = self.next_record(due(i));
                let c = conn_of(r.key.value(), conns.len());
                buckets[c].push(r);
                i += 1;
                batch += 1;
            }
            Self::encode(&mut buckets, &mut frames);
            let w0 = monotonic_ns();
            for (conn, frame) in conns.iter_mut().zip(frames.iter_mut()) {
                if !frame.is_empty() {
                    conn.write_all(frame)?;
                    frame.clear();
                }
            }
            prev_end = monotonic_ns();
            stats.write_ns += prev_end - w0;
            stats.sent += batch as u64;
        }
        stats.cpu_ticks = crate::sys::thread_cpu_ticks().saturating_sub(cpu0);
        Ok(stats)
    }
}

/// The connection a key is pinned to.
pub fn conn_of(key: u64, conns: usize) -> usize {
    (elasticutor_core::hash::splitmix64(key) % conns as u64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The frame stream of the first `n` records of `(workload, seed)` on
    /// `conns` connections, with due times counted from zero at `rate`.
    fn frame_stream(w: &Workload, seed: u64, n: u64, conns: usize) -> Vec<Vec<u8>> {
        let mut g = Generator::new(w, seed);
        let mut buckets: Vec<Vec<Record>> = (0..conns).map(|_| Vec::new()).collect();
        let mut frames: Vec<Vec<u8>> = (0..conns).map(|_| Vec::new()).collect();
        let interval = 1e9 / w.rate;
        for i in 0..n {
            let r = g.next_record((i as f64 * interval) as u64);
            buckets[conn_of(r.key.value(), conns)].push(r);
            if i % 64 == 63 {
                Generator::encode(&mut buckets, &mut frames);
            }
        }
        Generator::encode(&mut buckets, &mut frames);
        frames
    }

    #[test]
    fn same_seed_gives_a_byte_identical_frame_stream() {
        for w in WORKLOADS {
            let a = frame_stream(w, 7, 5_000, 2);
            let b = frame_stream(w, 7, 5_000, 2);
            assert!(
                a.iter().all(|f| !f.is_empty()),
                "{}: both conns used",
                w.name
            );
            assert_eq!(a, b, "{}: same seed, same bytes", w.name);
        }
    }

    #[test]
    fn different_seed_gives_a_different_frame_stream() {
        for w in WORKLOADS {
            let a = frame_stream(w, 7, 5_000, 2);
            let b = frame_stream(w, 8, 5_000, 2);
            assert_ne!(a, b, "{}: seeds 7 and 8 must differ", w.name);
        }
    }

    #[test]
    fn shuffles_follow_schedule_time() {
        // Two seconds of skew-rescale schedule cross one ω shuffle
        // boundary; the stream must still repeat exactly.
        let w = workload("skew-rescale").expect("workload exists");
        let n = (w.rate * 2.5) as u64;
        assert_eq!(frame_stream(w, 3, n, 2), frame_stream(w, 3, n, 2));
    }

    #[test]
    fn payload_header_round_trips() {
        let p = payload(1, 42, 9, 123_456, 4096);
        assert_eq!(p.len(), 4096);
        assert_eq!(read_u64(&p, 0), 123_456);
        assert_eq!(read_u64(&p, 8), 42);
        assert_eq!(read_u64(&p, 16), 9);
        assert_eq!(payload(1, 42, 9, 123_456, 32).len(), 32);
        assert_ne!(payload(1, 42, 9, 0, 64), payload(2, 42, 9, 0, 64));
    }

    #[test]
    fn ladders_are_geometric_within_five_percent() {
        for w in WORKLOADS {
            let Some(l) = w.ladder else { continue };
            assert!(l.ratio > 1.0 && l.ratio <= 1.05, "{}", w.name);
            assert!(l.base < w.rate, "{}: fixed rate above rung 0", w.name);
        }
    }
}
