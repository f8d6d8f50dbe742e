//! The system under test, built from the public surfaces only:
//! `EgressServer` ← `TcpEgress` ← `count` ← `parse` ← `TcpIngress`, and
//! the benchmark's wrappers that time calls into each of them.

use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use bytes::Bytes;
use elasticutor_core::ids::OperatorId;
use elasticutor_egress::{EgressConfig, EgressHandle, EgressServer, EgressServerConfig, TcpEgress};
use elasticutor_ingress::{IngressConfig, IngressStats, TcpIngress};
use elasticutor_runtime::{
    monotonic_ns, ExecutorConfig, ExecutorGroup, Ingest, LiveDag, Record, RecordBatch, Sink,
    SinkHandle, SourcePort,
};
use elasticutor_state::StateHandle;

use crate::collect::Collector;
use crate::gen::{read_u64, OpKind, Workload, HEADER_BYTES};

/// Counters the wrappers fill while tracing is on. Tracing is a switch,
/// not a different build: with it off every wrapper is a plain forward.
#[derive(Default)]
pub struct Probes {
    on: AtomicBool,
    pub admit_ns: AtomicU64,
    pub admit_calls: AtomicU64,
    pub admit_offered: AtomicU64,
    pub admit_accepted: AtomicU64,
    pub update_ns: AtomicU64,
    pub update_calls: AtomicU64,
    pub append_ns: AtomicU64,
    pub append_calls: AtomicU64,
    /// Per `TcpEgress::consume` call while tracing: delivery seqs
    /// `first..=last` and the call's start and end.
    pub appends: Mutex<Vec<AppendSpan>>,
}

#[derive(Clone, Copy, Debug)]
pub struct AppendSpan {
    pub first_seq: u64,
    pub last_seq: u64,
    pub start: u64,
    pub end: u64,
}

impl Probes {
    pub fn set(&self, on: bool) {
        self.on.store(on, Ordering::Release);
    }

    pub fn on(&self) -> bool {
        self.on.load(Ordering::Relaxed)
    }
}

/// Times admission into the source port, the call `TcpIngress` makes.
struct TimedIngest {
    port: SourcePort,
    probes: Arc<Probes>,
}

impl Ingest for TimedIngest {
    fn ingest_batch(&self, batch: RecordBatch) {
        if !self.probes.on() {
            return self.port.ingest_batch(batch);
        }
        let n = batch.len() as u64;
        let t0 = monotonic_ns();
        self.port.ingest_batch(batch);
        let p = &self.probes;
        p.admit_ns.fetch_add(monotonic_ns() - t0, Ordering::Relaxed);
        p.admit_calls.fetch_add(1, Ordering::Relaxed);
        p.admit_offered.fetch_add(n, Ordering::Relaxed);
        p.admit_accepted.fetch_add(n, Ordering::Relaxed);
    }

    fn try_ingest_batch(&self, batch: RecordBatch) -> Result<(), RecordBatch> {
        if !self.probes.on() {
            return self.port.try_ingest_batch(batch);
        }
        let n = batch.len() as u64;
        let t0 = monotonic_ns();
        let r = self.port.try_ingest_batch(batch);
        let p = &self.probes;
        p.admit_ns.fetch_add(monotonic_ns() - t0, Ordering::Relaxed);
        p.admit_calls.fetch_add(1, Ordering::Relaxed);
        p.admit_offered.fetch_add(n, Ordering::Relaxed);
        let rejected = r.as_ref().err().map_or(0, |rest| rest.len() as u64);
        p.admit_accepted.fetch_add(n - rejected, Ordering::Relaxed);
        r
    }

    fn accepted(&self) -> u64 {
        self.port.accepted()
    }
}

/// Times `TcpEgress::consume` and maps the delivery seqs it assigned to
/// the call's interval.
struct TimedSink {
    egress: TcpEgress,
    handle: EgressHandle,
    probes: Arc<Probes>,
}

impl Sink for TimedSink {
    fn consume(&mut self, batch: RecordBatch) {
        if !self.probes.on() {
            return self.egress.consume(batch);
        }
        let n = batch.len() as u64;
        let before = self.handle.stats().last_appended;
        let t0 = monotonic_ns();
        self.egress.consume(batch);
        let t1 = monotonic_ns();
        let after = self.handle.stats().last_appended;
        assert_eq!(after - before, n, "one sink pump assigns contiguous seqs");
        let p = &self.probes;
        p.append_ns.fetch_add(t1 - t0, Ordering::Relaxed);
        p.append_calls.fetch_add(1, Ordering::Relaxed);
        p.appends.lock().expect("probe lock").push(AppendSpan {
            first_seq: before + 1,
            last_seq: after,
            start: t0,
            end: t1,
        });
    }

    fn flush(&mut self) {
        self.egress.flush();
    }
}

/// `parse`: stateless; validates the generator's header against the
/// record and passes it on. A mismatch drops the record, which the
/// collector then reports as lost.
fn parse_op(r: &Record, _s: &StateHandle) -> Vec<Record> {
    let ok = r.payload.len() >= HEADER_BYTES
        && read_u64(&r.payload, 8) == r.key.value()
        && read_u64(&r.payload, 16) == r.seq;
    if ok {
        vec![r.clone()]
    } else {
        Vec::new()
    }
}

/// `count`: the keyed stateful operator. With tracing on it appends the
/// decode, start and end stamps to its output.
fn count_op(
    op: OpKind,
    probes: Arc<Probes>,
) -> impl Fn(&Record, &StateHandle) -> Vec<Record> + Send + Sync + 'static {
    move |r: &Record, state: &StateHandle| {
        let traced = probes.on();
        let start = if traced { monotonic_ns() } else { 0 };
        let mut out = match op {
            OpKind::Count => {
                let t0 = if traced { monotonic_ns() } else { 0 };
                let next = state
                    .update(r.key, |old| {
                        let n = old.map_or(0, |v| read_u64(v, 0)) + 1;
                        Some(Bytes::from(n.to_le_bytes().to_vec()))
                    })
                    .expect("update stores a value");
                if traced {
                    probes
                        .update_ns
                        .fetch_add(monotonic_ns() - t0, Ordering::Relaxed);
                    probes.update_calls.fetch_add(1, Ordering::Relaxed);
                }
                let mut out = Vec::with_capacity(40);
                out.extend_from_slice(&r.payload[..8]);
                out.extend_from_slice(&next);
                out
            }
            OpKind::PutEcho => {
                let t0 = if traced { monotonic_ns() } else { 0 };
                state.put(r.key, r.payload.clone());
                if !traced {
                    return vec![
                        Record::new_at(r.key, r.payload.clone(), r.created_ns).with_seq(r.seq)
                    ];
                }
                probes
                    .update_ns
                    .fetch_add(monotonic_ns() - t0, Ordering::Relaxed);
                probes.update_calls.fetch_add(1, Ordering::Relaxed);
                r.payload.to_vec()
            }
        };
        if traced {
            out.extend_from_slice(&r.created_ns.to_le_bytes());
            out.extend_from_slice(&start.to_le_bytes());
            out.extend_from_slice(&monotonic_ns().to_le_bytes());
        }
        vec![Record::new_at(r.key, Bytes::from(out), r.created_ns).with_seq(r.seq)]
    }
}

pub struct System {
    pub server: EgressServer,
    pub egress: EgressHandle,
    sink: SinkHandle<TimedSink>,
    pub dag: LiveDag,
    pub ingress: TcpIngress,
    pub parse: OperatorId,
    pub count: OperatorId,
    dir: PathBuf,
}

impl System {
    /// Builds the whole path with its durable state and outbox under
    /// `dir` (which must not exist yet).
    pub fn start(
        w: &Workload,
        dir: &Path,
        collector: &Arc<Collector>,
        probes: &Arc<Probes>,
    ) -> std::io::Result<System> {
        std::fs::create_dir_all(dir)?;
        let server = EgressServer::bind(
            EgressServerConfig::new("127.0.0.1:0"),
            collector.deliver_fn(),
        )
        .map_err(std::io::Error::other)?;

        let base = ExecutorConfig {
            baseline_locked_routing: false,
            durability: None,
            ..ExecutorConfig::default()
        };
        let mut b = LiveDag::builder();
        let parse = b.source(
            "parse",
            ExecutorConfig {
                num_shards: 64,
                ..base.clone()
            },
            parse_op,
        );
        let count = b.operator(
            "count",
            ExecutorConfig {
                num_shards: 256,
                initial_tasks: w.count_tasks,
                durability: Some(dir.join("state")),
                ..base
            },
            count_op(w.op, Arc::clone(probes)),
        );
        b.key_edge(parse, count)
            .parallelism(parse, 1)
            .parallelism(count, 2);
        let dag = b.build().map_err(std::io::Error::other)?;

        let egress = TcpEgress::new(EgressConfig::new(
            server.local_addr().to_string(),
            dir.join("outbox"),
        ))
        .map_err(std::io::Error::other)?;
        let handle = egress.handle();
        let sink = dag
            .attach_sink(
                count,
                "egress",
                TimedSink {
                    egress,
                    handle: handle.clone(),
                    probes: Arc::clone(probes),
                },
            )
            .expect("count is the sink operator");

        let ingress = TcpIngress::bind(
            IngressConfig {
                readers: 2,
                ..IngressConfig::default()
            },
            Arc::new(TimedIngest {
                port: dag.port(parse),
                probes: Arc::clone(probes),
            }),
        )?;
        Ok(System {
            server,
            egress: handle,
            sink,
            dag,
            ingress,
            parse,
            count,
            dir: dir.to_path_buf(),
        })
    }

    pub fn ingress_addr(&self) -> SocketAddr {
        self.ingress.local_addr()
    }

    /// Opens the generator's connections.
    pub fn connect(&self, n: usize) -> std::io::Result<Vec<TcpStream>> {
        (0..n)
            .map(|_| {
                let s = TcpStream::connect(self.ingress_addr())?;
                s.set_nodelay(true)?;
                Ok(s)
            })
            .collect()
    }

    pub fn count_group(&self) -> &Arc<ExecutorGroup> {
        self.dag.group(self.count)
    }

    /// Σ over `count`'s instances of the durable manifest sequence: it
    /// advances once per checkpoint or compaction.
    pub fn manifest_seqs(&self) -> Vec<u64> {
        let g = self.count_group();
        (0..g.num_slots() as u32)
            .map(|i| {
                g.instance(i)
                    .state()
                    .durable_stats()
                    .map_or(0, |s| s.manifest_seq)
            })
            .collect()
    }

    /// Stops everything in order (the generator's sockets must be
    /// closed and every record delivered first) and removes `dir`.
    /// Returns the final ingress counters.
    pub fn shutdown(self) -> IngressStats {
        let ingress = self.ingress.shutdown();
        self.dag.shutdown();
        let (sink, _) = self.sink.join();
        sink.egress.shutdown(Duration::from_secs(10));
        self.server.shutdown();
        let _ = std::fs::remove_dir_all(&self.dir);
        ingress
    }
}
