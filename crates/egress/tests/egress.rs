//! End-to-end egress plane tests: delivery, FIFO, spill-while-
//! unreachable, failover, and rewind-retransmission — all over real
//! loopback TCP.

use std::collections::HashMap;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use bytes::Bytes;
use elasticutor_core::ids::Key;
use elasticutor_egress::{
    frame, EgressConfig, EgressError, EgressServer, EgressServerConfig, TcpEgress,
};
use elasticutor_ingress::FrameScanner;
use elasticutor_runtime::{Backoff, ExecutorConfig, FifoChecker, Ingest, Pipeline, Record, Sink};

/// A fresh directory per call: name, pid and a per-process counter, so
/// tests running in parallel (or one test calling a fixture twice)
/// never share a spill directory.
fn tmp_dir(name: &str) -> std::path::PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let p = std::env::temp_dir().join(format!(
        "elasticutor-egress-test-{name}-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&p);
    p
}

fn wait_until(timeout: Duration, mut cond: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + timeout;
    while Instant::now() < deadline {
        if cond() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    cond()
}

/// Collects deliveries: per-key FIFO check plus a (key → seqs) map.
struct Collector {
    fifo: FifoChecker,
    total: AtomicU64,
    by_key: Mutex<HashMap<u64, Vec<u64>>>,
}

impl Collector {
    fn new() -> Arc<Self> {
        Arc::new(Self {
            fifo: FifoChecker::new(),
            total: AtomicU64::new(0),
            by_key: Mutex::new(HashMap::new()),
        })
    }

    fn deliver_fn(self: &Arc<Self>) -> Box<elasticutor_egress::DeliverFn> {
        let me = Arc::clone(self);
        Box::new(move |_seq, key, rec_seq, _payload| {
            me.fifo.observe(key, rec_seq);
            me.total.fetch_add(1, Ordering::AcqRel);
            me.by_key
                .lock()
                .unwrap()
                .entry(key.value())
                .or_default()
                .push(rec_seq);
        })
    }
}

fn records(keys: u64, per_key: u64) -> Vec<Record> {
    // Round-robin across keys, per-key seqs 1..=per_key.
    let mut out = Vec::new();
    for s in 1..=per_key {
        for k in 0..keys {
            out.push(Record::new(Key(k), Bytes::from(vec![k as u8; 16])).with_seq(s));
        }
    }
    out
}

/// An ephemeral loopback address nothing is listening on (bound, then
/// dropped — the port stays free long enough for a test).
fn dead_addr() -> String {
    let l = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = l.local_addr().unwrap();
    drop(l);
    addr.to_string()
}

#[test]
fn delivers_everything_in_per_key_fifo_order() {
    let dir = tmp_dir("basic");
    let collector = Collector::new();
    let server = EgressServer::bind(
        EgressServerConfig::new("127.0.0.1:0"),
        collector.deliver_fn(),
    )
    .unwrap();

    let mut egress = TcpEgress::new(EgressConfig::new(
        server.local_addr().to_string(),
        dir.join("spill"),
    ))
    .unwrap();

    const KEYS: u64 = 8;
    const PER_KEY: u64 = 200;
    for chunk in records(KEYS, PER_KEY).chunks(37) {
        egress.consume(chunk.to_vec());
    }
    let handle = egress.handle();
    assert!(handle.drain(Duration::from_secs(10)), "drain timed out");
    let stats = egress.shutdown(Duration::from_secs(5));
    assert_eq!(stats.records_accepted, KEYS * PER_KEY);
    assert_eq!(stats.acked, stats.last_appended);

    assert_eq!(collector.total.load(Ordering::Acquire), KEYS * PER_KEY);
    assert!(collector.fifo.is_clean(), "per-key FIFO violated");
    let by_key = collector.by_key.lock().unwrap();
    for k in 0..KEYS {
        assert_eq!(by_key[&k], (1..=PER_KEY).collect::<Vec<_>>(), "key {k}");
    }
    // Healthy path: the outbox is trimmed at ACK pace, nothing retained.
    assert_eq!(stats.spill_frames, 0);
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn pipeline_attach_sink_routes_dag_output_through_egress() {
    let dir = tmp_dir("pipeline");
    let collector = Collector::new();
    let server = EgressServer::bind(
        EgressServerConfig::new("127.0.0.1:0"),
        collector.deliver_fn(),
    )
    .unwrap();

    let pipe = Pipeline::builder()
        .stage(
            "pass",
            ExecutorConfig {
                num_shards: 8,
                ..ExecutorConfig::default()
            },
            |r: &Record, _s: &elasticutor_state::StateHandle| vec![r.clone()],
        )
        .build();
    let egress = TcpEgress::new(EgressConfig::new(
        server.local_addr().to_string(),
        dir.join("spill"),
    ))
    .unwrap();
    let handle = egress.handle();
    let sink = pipe.attach_sink("egress", egress);

    const N: u64 = 500;
    for i in 0..N {
        pipe.ingest(Record::new(Key(i % 4), Bytes::from(vec![1u8; 8])).with_seq(i / 4 + 1));
    }
    assert!(
        wait_until(Duration::from_secs(10), || {
            handle.stats().records_accepted == N
        }),
        "DAG output never reached the sink: {:?}",
        handle.stats()
    );
    pipe.shutdown();
    let (egress, consumed) = sink.join();
    assert_eq!(consumed, N);
    assert!(handle.drain(Duration::from_secs(10)), "drain timed out");
    egress.shutdown(Duration::from_secs(5));

    assert_eq!(collector.total.load(Ordering::Acquire), N);
    assert!(collector.fifo.is_clean());
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn unreachable_sink_spills_without_blocking_then_drains_on_restore() {
    let dir = tmp_dir("degraded");
    let addr = dead_addr();
    let mut egress = TcpEgress::new(EgressConfig::new(&addr, dir.join("spill")).with_retry(
        Backoff {
            base: Duration::from_millis(10),
            factor: 2.0,
            cap: Duration::from_millis(50),
            max_attempts: u32::MAX,
        },
    ))
    .unwrap();

    // With nobody listening, consume() must accept everything at disk
    // speed: the DAG is never exposed to the dead sink.
    const KEYS: u64 = 4;
    const PER_KEY: u64 = 250;
    let accept_start = Instant::now();
    for chunk in records(KEYS, PER_KEY).chunks(50) {
        egress.consume(chunk.to_vec());
    }
    let accept_elapsed = accept_start.elapsed();
    let stats = egress.stats();
    assert_eq!(stats.records_accepted, KEYS * PER_KEY);
    assert_eq!(stats.acked, 0, "nothing can be acked while unreachable");
    assert!(stats.spill_frames > 0, "outbox should hold the backlog");
    assert!(
        accept_elapsed < Duration::from_secs(2),
        "consume() blocked on a dead sink: {accept_elapsed:?}"
    );
    assert!(stats.connect_failures > 0, "sender should be retrying");

    // Sink comes back on the same address: the backlog drains in order.
    let collector = Collector::new();
    let server =
        EgressServer::bind(EgressServerConfig::new(&addr), collector.deliver_fn()).unwrap();
    let handle = egress.handle();
    assert!(
        handle.drain(Duration::from_secs(10)),
        "backlog never drained"
    );
    egress.shutdown(Duration::from_secs(5));

    assert_eq!(collector.total.load(Ordering::Acquire), KEYS * PER_KEY);
    assert!(collector.fifo.is_clean());
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn fails_over_to_standby_when_primary_is_dead() {
    let dir = tmp_dir("failover");
    let collector = Collector::new();
    let standby = EgressServer::bind(
        EgressServerConfig::new("127.0.0.1:0"),
        collector.deliver_fn(),
    )
    .unwrap();

    let mut egress = TcpEgress::new(
        EgressConfig::new(dead_addr(), dir.join("spill"))
            .with_standby(standby.local_addr().to_string())
            .with_retry(Backoff {
                base: Duration::from_millis(5),
                factor: 2.0,
                cap: Duration::from_millis(20),
                max_attempts: 2,
            }),
    )
    .unwrap();

    const N: usize = 300;
    egress.consume(records(3, 100));
    let handle = egress.handle();
    assert!(
        handle.drain(Duration::from_secs(10)),
        "failover never drained"
    );
    let stats = egress.shutdown(Duration::from_secs(5));
    assert!(stats.failovers >= 1, "expected a failover: {stats:?}");
    assert_eq!(collector.total.load(Ordering::Acquire), N as u64);
    assert!(collector.fifo.is_clean());
    standby.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// The sender is woken by the append, not by its poll timer: with a 2 s
/// `poll_interval`, each lone record must still arrive in well under
/// that — a sender that only finds new frames when a timed wait
/// expires would take up to the full interval per record.
#[test]
fn lone_records_ship_on_append_not_on_the_poll_interval() {
    let dir = tmp_dir("wake");
    let collector = Collector::new();
    let server = EgressServer::bind(
        EgressServerConfig::new("127.0.0.1:0"),
        collector.deliver_fn(),
    )
    .unwrap();
    let mut config = EgressConfig::new(server.local_addr().to_string(), dir.join("spill"));
    config.poll_interval = Duration::from_secs(2);
    let mut egress = TcpEgress::new(config).unwrap();
    let handle = egress.handle();
    assert!(wait_until(Duration::from_secs(5), || handle
        .stats()
        .connected));

    for i in 1..=20u64 {
        let start = Instant::now();
        egress.consume(vec![Record::new(
            Key(i % 3),
            Bytes::from(vec![i as u8; 16]),
        )
        .with_seq(i)]);
        assert!(
            wait_until(Duration::from_secs(5), || {
                collector.total.load(Ordering::Acquire) == i
            }),
            "record {i} never delivered"
        );
        let took = start.elapsed();
        assert!(
            took < Duration::from_millis(500),
            "record {i} took {took:?}: the append did not wake the sender"
        );
    }
    let stats = egress.shutdown(Duration::from_secs(10));
    assert_eq!(stats.acked, 20);
    assert_eq!(stats.frames_sent, 20);
    assert!(collector.fifo.is_clean());
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// Stop wakes a parked sender: shutting down an idle, drained egress
/// must not wait out the sender's 2 s `poll_interval`.
#[test]
fn shutdown_of_an_idle_egress_is_prompt() {
    let dir = tmp_dir("stop");
    let collector = Collector::new();
    let server = EgressServer::bind(
        EgressServerConfig::new("127.0.0.1:0"),
        collector.deliver_fn(),
    )
    .unwrap();
    let mut config = EgressConfig::new(server.local_addr().to_string(), dir.join("spill"));
    config.poll_interval = Duration::from_secs(2);
    let mut egress = TcpEgress::new(config).unwrap();
    egress.consume(records(1, 1));
    assert!(
        egress.handle().drain(Duration::from_secs(10)),
        "never drained"
    );
    // Let the sender settle into its park.
    std::thread::sleep(Duration::from_millis(50));

    let start = Instant::now();
    let stats = egress.shutdown(Duration::from_secs(10));
    let took = start.elapsed();
    assert!(
        took < Duration::from_millis(500),
        "shutdown of an idle egress took {took:?}"
    );
    assert_eq!(stats.acked, 1);
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// One spill directory, one live owner: a second egress on the same
/// directory is refused while any handle keeps the first one's outbox
/// open, and recovers that outbox once the last handle is gone.
#[test]
fn second_egress_on_a_live_spill_dir_is_refused() {
    let dir = tmp_dir("owner");
    let spill = dir.join("spill");
    let addr = dead_addr();
    let mut first = TcpEgress::new(EgressConfig::new(&addr, &spill)).unwrap();
    first.consume(records(2, 5));
    let handle = first.handle();
    drop(first);
    match TcpEgress::new(EgressConfig::new(&addr, &spill)) {
        Err(EgressError::AlreadyOwned(d)) => assert_eq!(d, spill),
        Err(e) => panic!("expected AlreadyOwned, got {e}"),
        Ok(_) => panic!("a second owner opened a live spill dir"),
    }
    assert_eq!(
        handle.stats().spill_frames,
        1,
        "refused opener touched the outbox"
    );
    drop(handle);
    let second = TcpEgress::new(EgressConfig::new(&addr, &spill)).unwrap();
    let stats = second.stats();
    assert_eq!((stats.last_appended, stats.spill_frames), (10, 1));
    drop(second);
    std::fs::remove_dir_all(&dir).ok();
}

/// A scripted receiver that speaks just enough protocol to be rude: it
/// HELLOs, reads frames, but never ACKs — then drops the connection.
/// The sender must hit its ACK deadline, reconnect, and retransmit;
/// the real server it reaches next must see every record exactly once.
#[test]
fn ack_starvation_forces_rewind_retransmit_with_bounded_dups() {
    let dir = tmp_dir("rewind");
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();

    let rude = std::thread::spawn(move || {
        // Session 1: HELLO(0), swallow frames, never ACK, hang up after
        // the first frame arrives.
        let (mut sock, _) = listener.accept().unwrap();
        let mut hello = Vec::new();
        frame::encode_ctrl_frame(&mut hello, frame::MSG_EGRESS_HELLO, 0);
        use std::io::{Read, Write};
        sock.write_all(&hello).unwrap();
        let mut scanner = FrameScanner::new();
        let mut buf = [0u8; 4096];
        let mut swallowed = 0u64;
        loop {
            let n = sock.read(&mut buf).unwrap();
            if n == 0 {
                break;
            }
            scanner.extend(&buf[..n]);
            if let Some((t, payload)) = scanner.next_frame().unwrap() {
                assert_eq!(t, frame::MSG_EGRESS_DATA);
                let f = frame::decode_data_frame(&payload).unwrap();
                swallowed += f.records.len() as u64;
                break;
            }
        }
        drop(sock);
        // Give the handoff to the real server, which now owns `addr`'s
        // traffic by taking over the listener.
        (listener, swallowed)
    });

    let mut egress = TcpEgress::new(
        EgressConfig::new(addr.to_string(), dir.join("spill"))
            .with_ack_deadline(Duration::from_millis(100)),
    )
    .unwrap();
    const KEYS: u64 = 4;
    const PER_KEY: u64 = 50;
    for chunk in records(KEYS, PER_KEY).chunks(20) {
        egress.consume(chunk.to_vec());
    }
    let (listener, swallowed) = rude.join().unwrap();
    assert!(swallowed > 0, "rude server saw no frames");

    // Session 2+: a well-behaved server on the SAME listener.
    let collector = Collector::new();
    let server = EgressServer::bind_on(
        listener,
        EgressServerConfig::new("127.0.0.1:0"),
        collector.deliver_fn(),
    )
    .unwrap();
    let handle = egress.handle();
    assert!(
        handle.drain(Duration::from_secs(10)),
        "retransmit never drained"
    );
    let stats = egress.shutdown(Duration::from_secs(5));

    // Everything the rude server swallowed was retransmitted…
    assert!(
        stats.records_retransmitted >= swallowed,
        "expected >= {swallowed} retransmits, got {}",
        stats.records_retransmitted
    );
    // …and the receiver saw every record exactly once (its watermark
    // started at 0, so no overlap was deliverable twice), in order.
    assert_eq!(collector.total.load(Ordering::Acquire), KEYS * PER_KEY);
    assert!(collector.fifo.is_clean());
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn egress_restart_resends_unacked_spill() {
    let dir = tmp_dir("restart");
    let spill = dir.join("spill");
    // Phase 1: no sink reachable — accept records, then drop the sink
    // without draining (simulates the egress process dying).
    let addr = dead_addr();
    {
        let mut egress = TcpEgress::new(EgressConfig::new(&addr, &spill)).unwrap();
        egress.consume(records(5, 40));
        let s = egress.stats();
        assert_eq!(s.records_accepted, 200);
        assert_eq!(s.acked, 0);
        // Dropped, not shutdown: the outbox stays on disk.
    }
    // Phase 2: a fresh egress on the same spill dir, sink now alive —
    // the recovered outbox drains with nothing lost.
    let collector = Collector::new();
    let server =
        EgressServer::bind(EgressServerConfig::new(&addr), collector.deliver_fn()).unwrap();
    let egress = TcpEgress::new(EgressConfig::new(&addr, &spill)).unwrap();
    let handle = egress.handle();
    assert!(
        handle.drain(Duration::from_secs(10)),
        "recovered outbox never drained"
    );
    egress.shutdown(Duration::from_secs(5));
    assert_eq!(collector.total.load(Ordering::Acquire), 200);
    assert!(collector.fifo.is_clean());
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn receiver_watermark_dedups_duplicate_frames() {
    // Drive a server directly with raw frames, including a full resend
    // of an already-delivered range — the dedup window must swallow it.
    let collector = Collector::new();
    let server = EgressServer::bind(
        EgressServerConfig::new("127.0.0.1:0"),
        collector.deliver_fn(),
    )
    .unwrap();
    let mut sock = TcpStream::connect(server.local_addr()).unwrap();
    use std::io::{Read, Write};
    sock.set_read_timeout(Some(Duration::from_secs(2))).unwrap();

    // Read the HELLO.
    let mut scanner = FrameScanner::new();
    let mut buf = [0u8; 1024];
    let wm = loop {
        let n = sock.read(&mut buf).unwrap();
        scanner.extend(&buf[..n]);
        if let Some((t, payload)) = scanner.next_frame().unwrap() {
            assert_eq!(t, frame::MSG_EGRESS_HELLO);
            break frame::decode_ctrl_frame(t, &payload).unwrap();
        }
    };
    assert_eq!(wm, 0);

    let batch = records(2, 5); // delivery seqs 1..=10
    let mut data = Vec::new();
    frame::encode_data_frame(&mut data, 1, &batch);
    sock.write_all(&data).unwrap();
    // Resend the identical frame (a rewound sender does exactly this),
    // then a fresh one overlapping nothing.
    sock.write_all(&data).unwrap();
    let mut cont = Vec::new();
    for s in 6..=7u64 {
        for k in 0..2u64 {
            cont.push(Record::new(Key(k), Bytes::from(vec![k as u8; 16])).with_seq(s));
        }
    }
    let mut next = Vec::new();
    frame::encode_data_frame(&mut next, 11, &cont);
    sock.write_all(&next).unwrap();

    assert!(wait_until(Duration::from_secs(5), || {
        server.stats().records_delivered == 14
    }));
    let stats = server.stats();
    assert_eq!(stats.records_delivered, 14, "10 + 4 unique records");
    assert_eq!(stats.duplicates_dropped, 10, "full resend dropped");
    assert_eq!(stats.watermark, 14);
    assert!(collector.fifo.is_clean());
    drop(sock);
    server.shutdown();
}
