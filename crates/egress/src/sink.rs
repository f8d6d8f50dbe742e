//! [`TcpEgress`] — the at-least-once TCP sink.
//!
//! Two threads share the outbox ([`SpillQueue`]): the runtime's sink
//! pump calls [`Sink::consume`], which only appends to disk (the DAG is
//! never exposed to network latency — a dead sink costs it nothing but
//! disk bandwidth), and one **sender thread** owns the connection
//! lifecycle: connect with capped exponential backoff + jitter, fail
//! over between primary and standby, read the receiver's HELLO
//! watermark, stream outbox frames from the cursor, process ACKs, trim,
//! and force a rewind-reconnect when ACKs stall past the deadline.
//!
//! The sender is event-driven, like the runtime's parked pumps. With
//! nothing new in the outbox it parks on a condvar paired with the
//! outbox mutex, and `consume` wakes it right after the append that
//! ends the idleness — so a lone record ships at once instead of at the
//! sender's next timeout. A `parked` flag, read and written under that
//! mutex, limits the `notify` to appends that find the sender asleep:
//! a busy sender costs the append path no syscall. Stop wakes it too.
//! Each wakeup sends the whole contiguous run of ready frames (up to
//! 1 MiB) with one outbox `pread` and one socket write.
//! ACKs never wake the sender: it reads them without blocking once per
//! [`EgressConfig::poll_interval`], streaming or idle — a park never
//! outlasts the next ACK read — so the ACK deadline is still checked
//! during a long drain. ACKs are therefore seen up to one
//! `poll_interval` late; that delays trimming and
//! [`EgressHandle::drain`], never delivery.
//!
//! Fail points: `egress.spill` fires before each outbox append (the
//! accept path), `egress.write` before each socket write (the send
//! path). `err` actions model transient disk/link failures — the append
//! retries, the session reconnects; `kill` models process death.

use std::net::{Shutdown, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use elasticutor_core::fault;
use elasticutor_ingress::FrameScanner;
use elasticutor_runtime::{Backoff, RecordBatch, Sink};

use crate::frame::{decode_ctrl_frame, MSG_EGRESS_ACK, MSG_EGRESS_HELLO};
use crate::spill::{SpillQueue, DEFAULT_SEGMENT_BYTES};
use crate::EgressError;

/// Byte cap of one cursor read: the most outbox bytes the sender puts
/// into a single socket write (a lone larger frame still goes whole).
const MAX_RUN_BYTES: u64 = 1 << 20;

/// Tunables of a [`TcpEgress`] sink.
#[derive(Clone, Debug)]
pub struct EgressConfig {
    /// Primary sink address (`host:port`).
    pub primary: String,
    /// Optional standby sink to fail over to when the primary's retry
    /// budget is exhausted.
    pub standby: Option<String>,
    /// Directory of the disk-backed outbox (created if missing).
    pub spill_dir: PathBuf,
    /// Connect retry policy; `max_attempts` is the per-target budget
    /// before failing over (the cycle never gives up — with no sink
    /// reachable the outbox absorbs output indefinitely).
    pub retry: Backoff,
    /// Multiplicative jitter fraction applied to every backoff delay
    /// (`0.2` → uniform in `[0.8, 1.2]` × delay).
    pub jitter: f64,
    /// Reconnect (and thereby retransmit from the receiver's watermark)
    /// when sent frames go unacknowledged this long.
    pub ack_deadline: Duration,
    /// Socket write timeout and handshake deadline (also the HELLO
    /// read timeout).
    pub io_timeout: Duration,
    /// How long an idle sender sleeps before it re-reads ACKs and
    /// rechecks the ACK deadline; the sender reads ACKs once per
    /// interval whether idle or streaming. Appends wake an idle sender
    /// at once, so this paces ACK processing, never delivery.
    pub poll_interval: Duration,
    /// Outbox segment roll threshold.
    pub segment_bytes: u64,
}

impl EgressConfig {
    /// A config pointing at `primary` with defaults for everything else.
    pub fn new(primary: impl Into<String>, spill_dir: impl Into<PathBuf>) -> Self {
        Self {
            primary: primary.into(),
            standby: None,
            spill_dir: spill_dir.into(),
            retry: Backoff::default(),
            jitter: 0.2,
            ack_deadline: Duration::from_millis(500),
            io_timeout: Duration::from_secs(1),
            poll_interval: Duration::from_millis(10),
            segment_bytes: DEFAULT_SEGMENT_BYTES,
        }
    }

    /// Sets the standby sink address.
    pub fn with_standby(mut self, standby: impl Into<String>) -> Self {
        self.standby = Some(standby.into());
        self
    }

    /// Sets the connect retry policy.
    pub fn with_retry(mut self, retry: Backoff) -> Self {
        self.retry = retry;
        self
    }

    /// Sets the ACK deadline.
    pub fn with_ack_deadline(mut self, d: Duration) -> Self {
        self.ack_deadline = d;
        self
    }
}

/// Point-in-time counters of a running [`TcpEgress`].
#[derive(Clone, Copy, Debug, Default)]
pub struct EgressStats {
    /// Records accepted from the DAG (all durably in the outbox).
    pub records_accepted: u64,
    /// Highest delivery seq assigned (0 = none yet).
    pub last_appended: u64,
    /// Receiver watermark: every seq `<= acked` is delivered.
    pub acked: u64,
    /// Records written to a socket (includes retransmissions).
    pub records_sent: u64,
    /// Records re-sent after a rewind (upper bound on receiver-visible
    /// duplicates).
    pub records_retransmitted: u64,
    /// Frames written to a socket (a run of frames sent in one write
    /// counts each frame).
    pub frames_sent: u64,
    /// Established connections (1 = the initial connect).
    pub connects: u64,
    /// Failed connect attempts.
    pub connect_failures: u64,
    /// Target switches between primary and standby.
    pub failovers: u64,
    /// Transient outbox-append failures retried (injected via
    /// `egress.spill`).
    pub spill_retries: u64,
    /// Whether a connection is currently established.
    pub connected: bool,
    /// Outbox frames not yet trimmed by an ACK.
    pub spill_frames: u64,
    /// Outbox bytes on disk (live segments).
    pub spill_bytes: u64,
}

impl EgressStats {
    /// Records accepted but not yet acknowledged by the receiver.
    pub fn backlog(&self) -> u64 {
        self.last_appended.saturating_sub(self.acked)
    }
}

#[derive(Default)]
struct Counters {
    records_accepted: AtomicU64,
    last_appended: AtomicU64,
    acked: AtomicU64,
    records_sent: AtomicU64,
    records_retransmitted: AtomicU64,
    frames_sent: AtomicU64,
    connects: AtomicU64,
    connect_failures: AtomicU64,
    failovers: AtomicU64,
    spill_retries: AtomicU64,
    max_sent: AtomicU64,
    connected: AtomicBool,
}

struct Shared {
    spill: Mutex<SpillQueue>,
    /// Wakes the parked sender (appends and stop ring it).
    wakeup: Condvar,
    /// Whether the sender is waiting on `wakeup`. Only read and written
    /// under the `spill` lock, which makes the check-then-wait atomic.
    parked: AtomicBool,
    counters: Counters,
    stop: AtomicBool,
    /// Monotonic-ns deadline for draining after stop (0 = none set).
    drain_deadline_ns: AtomicU64,
}

impl Shared {
    fn stats(&self) -> EgressStats {
        let c = &self.counters;
        let (spill_frames, spill_bytes) = {
            let q = self.spill.lock().unwrap_or_else(|e| e.into_inner());
            (q.frame_count() as u64, q.bytes())
        };
        EgressStats {
            records_accepted: c.records_accepted.load(Ordering::Relaxed),
            last_appended: c.last_appended.load(Ordering::Relaxed),
            acked: c.acked.load(Ordering::Relaxed),
            records_sent: c.records_sent.load(Ordering::Relaxed),
            records_retransmitted: c.records_retransmitted.load(Ordering::Relaxed),
            frames_sent: c.frames_sent.load(Ordering::Relaxed),
            connects: c.connects.load(Ordering::Relaxed),
            connect_failures: c.connect_failures.load(Ordering::Relaxed),
            failovers: c.failovers.load(Ordering::Relaxed),
            spill_retries: c.spill_retries.load(Ordering::Relaxed),
            connected: c.connected.load(Ordering::Relaxed),
            spill_frames,
            spill_bytes,
        }
    }

    fn drained(&self) -> bool {
        let c = &self.counters;
        c.acked.load(Ordering::Acquire) >= c.last_appended.load(Ordering::Acquire)
    }

    /// Should the sender give up now? Only after `stop`: either fully
    /// drained or past the drain deadline.
    fn should_exit(&self) -> bool {
        if !self.stop.load(Ordering::Acquire) {
            return false;
        }
        if self.drained() {
            return true;
        }
        let deadline = self.drain_deadline_ns.load(Ordering::Acquire);
        deadline != 0 && elasticutor_runtime::monotonic_ns() >= deadline
    }

    /// Parks the idle sender until an append assigns a seq at or past
    /// `next_to_send`, a stop arrives, or `timeout` passes; returns at
    /// once if that seq is already assigned. The recheck and the wait
    /// are one critical section of the lock `consume` appends under, so
    /// an append can never slip between them.
    fn park(&self, next_to_send: u64, timeout: Duration) {
        let q = self.spill.lock().unwrap_or_else(|e| e.into_inner());
        if q.next_seq() > next_to_send || self.should_exit() {
            return;
        }
        self.parked.store(true, Ordering::Relaxed);
        let (_q, _) = self
            .wakeup
            .wait_timeout(q, timeout)
            .unwrap_or_else(|e| e.into_inner());
        self.parked.store(false, Ordering::Relaxed);
    }

    /// Asks the sender to exit once drained or past `deadline_ns`, and
    /// wakes it if parked.
    fn request_stop(&self, deadline_ns: u64) {
        self.drain_deadline_ns.store(deadline_ns, Ordering::Release);
        self.stop.store(true, Ordering::Release);
        // Through the lock: the sender either saw `stop` in its park
        // recheck or is already waiting when the notify lands.
        drop(self.spill.lock().unwrap_or_else(|e| e.into_inner()));
        self.wakeup.notify_one();
    }

    fn on_ack(&self, watermark: u64) {
        let c = &self.counters;
        let prev = c.acked.fetch_max(watermark, Ordering::AcqRel);
        if watermark > prev {
            let mut q = self.spill.lock().unwrap_or_else(|e| e.into_inner());
            // Trim failures are non-fatal (a locked file, a racing
            // unlink): the frames stay on disk and the next ACK retries.
            let _ = q.trim(watermark);
        }
    }
}

/// Cloneable observer handle onto a [`TcpEgress`] — lets the driving
/// code watch stats and wait for drain while the sink itself is owned
/// by the runtime's pump thread.
#[derive(Clone)]
pub struct EgressHandle {
    shared: Arc<Shared>,
}

impl EgressHandle {
    /// Snapshot of the sink's counters.
    pub fn stats(&self) -> EgressStats {
        self.shared.stats()
    }

    /// Waits until every accepted record is acknowledged, or `timeout`
    /// elapses. Returns whether the backlog reached zero.
    pub fn drain(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        while !self.shared.drained() {
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        true
    }
}

/// The at-least-once TCP sink. Implements the runtime's [`Sink`] trait:
/// attach with `Pipeline::attach_sink` / `LiveDag::attach_sink`, get it
/// back from `SinkHandle::join` after shutdown, then call
/// [`Self::shutdown`] to drain and stop the sender thread.
pub struct TcpEgress {
    shared: Arc<Shared>,
    sender: Option<JoinHandle<()>>,
}

impl TcpEgress {
    /// Opens (or recovers) the outbox at `config.spill_dir` and starts
    /// the sender thread. Any frames a previous process left
    /// unacknowledged are resent before new output.
    pub fn new(config: EgressConfig) -> Result<Self, EgressError> {
        let spill = SpillQueue::open(&config.spill_dir, config.segment_bytes)?;
        let counters = Counters::default();
        counters
            .last_appended
            .store(spill.next_seq() - 1, Ordering::Relaxed);
        let shared = Arc::new(Shared {
            spill: Mutex::new(spill),
            wakeup: Condvar::new(),
            parked: AtomicBool::new(false),
            counters,
            stop: AtomicBool::new(false),
            drain_deadline_ns: AtomicU64::new(0),
        });
        let sender = {
            let shared = Arc::clone(&shared);
            let config = config.clone();
            std::thread::Builder::new()
                .name("egress-sender".into())
                .spawn(move || sender_loop(&shared, &config))
                .expect("spawn egress sender")
        };
        Ok(Self {
            shared,
            sender: Some(sender),
        })
    }

    /// Observer handle (stats, drain) usable while the runtime owns the
    /// sink.
    pub fn handle(&self) -> EgressHandle {
        EgressHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Snapshot of the sink's counters.
    pub fn stats(&self) -> EgressStats {
        self.shared.stats()
    }

    /// Stops the sender after draining: keeps (re)connecting and
    /// sending until every accepted record is acknowledged or
    /// `drain_timeout` elapses, then joins the thread. Returns the
    /// final stats — `acked == last_appended` means a clean drain;
    /// anything short is still on disk for the next
    /// [`Self::new`] on the same spill directory.
    pub fn shutdown(mut self, drain_timeout: Duration) -> EgressStats {
        let deadline = elasticutor_runtime::monotonic_ns()
            + drain_timeout.as_nanos().min(u128::from(u64::MAX) / 2) as u64;
        self.shared.request_stop(deadline);
        if let Some(t) = self.sender.take() {
            let _ = t.join();
        }
        self.shared.stats()
    }
}

impl Drop for TcpEgress {
    fn drop(&mut self) {
        // Dropped without shutdown(): stop immediately (no drain wait);
        // unacknowledged frames stay recoverable on disk.
        if let Some(t) = self.sender.take() {
            self.shared.request_stop(1);
            let _ = t.join();
        }
    }
}

impl Sink for TcpEgress {
    fn consume(&mut self, batch: RecordBatch) {
        if batch.is_empty() {
            return;
        }
        // The accept path: one checked frame appended to the outbox.
        // `egress.spill` err-actions model transient disk trouble —
        // retry rather than drop (the contract is at-least-once); a
        // kill action aborts the process here, which is exactly the
        // "egress dies with a non-empty spill queue" chaos arm.
        loop {
            if fault::fail_point("egress.spill").is_err() {
                self.shared
                    .counters
                    .spill_retries
                    .fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(Duration::from_millis(1));
                continue;
            }
            let mut q = self.shared.spill.lock().unwrap_or_else(|e| e.into_inner());
            match q.append(&batch) {
                Ok((_, last_seq)) => {
                    // Claim the wakeup under the lock: one notify per
                    // park, none while the sender is busy.
                    let wake = self.shared.parked.swap(false, Ordering::Relaxed);
                    drop(q);
                    if wake {
                        self.shared.wakeup.notify_one();
                    }
                    let c = &self.shared.counters;
                    c.records_accepted
                        .fetch_add(batch.len() as u64, Ordering::Relaxed);
                    c.last_appended.fetch_max(last_seq, Ordering::Release);
                    return;
                }
                Err(_) => {
                    drop(q);
                    self.shared
                        .counters
                        .spill_retries
                        .fetch_add(1, Ordering::Relaxed);
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
        }
    }
}

/// Multiplies `delay` by a uniform factor in `[1 - jitter, 1 + jitter]`.
fn jittered(delay: Duration, jitter: f64, rng: &mut u64) -> Duration {
    if jitter <= 0.0 {
        return delay;
    }
    // xorshift64 — decorrelates concurrent egresses without a rand dep.
    let mut x = *rng;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *rng = x;
    let unit = (x >> 11) as f64 / (1u64 << 53) as f64;
    let factor = 1.0 - jitter + 2.0 * jitter * unit;
    Duration::from_secs_f64((delay.as_secs_f64() * factor).max(0.0))
}

/// What ended a connected session.
enum SessionEnd {
    /// Link error, EOF, protocol violation, or ACK-deadline expiry —
    /// reconnect (possibly after failover) and rewind.
    Reconnect,
    /// The sink was asked to stop and is drained (or past deadline).
    Exit,
}

fn sender_loop(shared: &Shared, config: &EgressConfig) {
    let mut targets = vec![config.primary.clone()];
    if let Some(s) = &config.standby {
        targets.push(s.clone());
    }
    let mut target_idx = 0usize;
    let mut attempt = 0u32;
    let mut rng = u64::from(std::process::id()) << 17 | 0x9E37_79B9;

    loop {
        if shared.should_exit() {
            return;
        }
        let target = &targets[target_idx];
        let sock = match connect(target, config.io_timeout) {
            Ok(s) => s,
            Err(_) => {
                shared
                    .counters
                    .connect_failures
                    .fetch_add(1, Ordering::Relaxed);
                let delay = jittered(config.retry.delay(attempt), config.jitter, &mut rng);
                attempt += 1;
                if attempt >= config.retry.max_attempts && targets.len() > 1 {
                    // Retry budget on this target exhausted: fail over.
                    target_idx = (target_idx + 1) % targets.len();
                    attempt = 0;
                    shared.counters.failovers.fetch_add(1, Ordering::Relaxed);
                }
                std::thread::sleep(delay);
                continue;
            }
        };
        attempt = 0;
        shared.counters.connects.fetch_add(1, Ordering::Relaxed);
        match run_session(shared, config, &sock) {
            SessionEnd::Exit => {
                let _ = sock.shutdown(Shutdown::Both);
                return;
            }
            SessionEnd::Reconnect => {
                let _ = sock.shutdown(Shutdown::Both);
                shared.counters.connected.store(false, Ordering::Relaxed);
            }
        }
    }
}

fn connect(addr: &str, timeout: Duration) -> std::io::Result<TcpStream> {
    let resolved = addr.to_socket_addrs()?.next().ok_or_else(|| {
        std::io::Error::new(std::io::ErrorKind::AddrNotAvailable, "no address resolved")
    })?;
    TcpStream::connect_timeout(&resolved, timeout)
}

/// One connected session: HELLO handshake, then stream-and-ACK until
/// something ends it.
fn run_session(shared: &Shared, config: &EgressConfig, sock: &TcpStream) -> SessionEnd {
    let _ = sock.set_nodelay(true);
    let _ = sock.set_write_timeout(Some(config.io_timeout));
    // Only the handshake blocks in `read`; ACK reads never do.
    let _ = sock.set_read_timeout(Some(config.io_timeout));

    let mut scanner = FrameScanner::new();
    // Handshake: the receiver leads with its watermark.
    let hello_deadline = Instant::now() + config.io_timeout;
    let watermark = loop {
        match read_watermark(sock, &mut scanner, MSG_EGRESS_HELLO) {
            Ok(Some(wm)) => break wm,
            Ok(None) => {
                if Instant::now() >= hello_deadline {
                    return SessionEnd::Reconnect;
                }
            }
            Err(()) => return SessionEnd::Reconnect,
        }
    };
    shared.on_ack(watermark);
    shared.counters.connected.store(true, Ordering::Relaxed);

    // The rewind: resume exactly after what the receiver has. Frames
    // between its watermark and our previous cursor get resent; the
    // receiver's dedup window swallows the overlap.
    let mut next_to_send = watermark + 1;
    let mut last_ack_progress = Instant::now();
    let mut last_ack_read = Instant::now();
    use std::io::Write;

    loop {
        if shared.should_exit() {
            return SessionEnd::Exit;
        }
        // Send phase: every ready frame from the cursor, one write.
        let run = {
            let mut q = shared.spill.lock().unwrap_or_else(|e| e.into_inner());
            q.read_run(next_to_send, MAX_RUN_BYTES)
        };
        // The seq whose append ends the park (see below).
        let mut wait_for = next_to_send;
        match run {
            // Outbox read failure mid-run: transient (EINTR, racing
            // trim). Wait out the interval (or an append) rather than
            // spin on the frames it could not read.
            Err(_) => wait_for = u64::MAX,
            Ok(None) => {}
            Ok(Some(run)) => {
                if fault::fail_point("egress.write").is_err() {
                    return SessionEnd::Reconnect;
                }
                if (&mut (&*sock)).write_all(&run.bytes).is_err() {
                    return SessionEnd::Reconnect;
                }
                let c = &shared.counters;
                c.frames_sent.fetch_add(run.frames, Ordering::Relaxed);
                c.records_sent
                    .fetch_add(run.last_seq - run.first_seq + 1, Ordering::Relaxed);
                let prev_max = c.max_sent.fetch_max(run.last_seq, Ordering::Relaxed);
                if run.first_seq <= prev_max {
                    let dup = prev_max.min(run.last_seq) - run.first_seq + 1;
                    c.records_retransmitted.fetch_add(dup, Ordering::Relaxed);
                }
                next_to_send = run.last_seq + 1;
                wait_for = next_to_send;
            }
        }

        // ACK phase: non-blocking, once per poll interval whether
        // streaming or idle (and on every pass while stopping, so a
        // drained stop exits at once). ACKs never wake the sender, and
        // a backlog never waits on them.
        if last_ack_read.elapsed() >= config.poll_interval || shared.stop.load(Ordering::Acquire) {
            match drain_acks(sock, &mut scanner) {
                Ok(Some(wm)) => {
                    shared.on_ack(wm);
                    last_ack_progress = Instant::now();
                }
                Ok(None) => {}
                Err(()) => return SessionEnd::Reconnect,
            }
            last_ack_read = Instant::now();
            let acked = shared.counters.acked.load(Ordering::Acquire);
            if acked + 1 >= next_to_send {
                // Nothing in flight.
                last_ack_progress = last_ack_read;
            } else if last_ack_progress.elapsed() >= config.ack_deadline {
                // Sent frames unacknowledged past the deadline: the link
                // or receiver is wedged. Reconnect; the HELLO watermark
                // rewinds the cursor and everything unacked is
                // retransmitted.
                return SessionEnd::Reconnect;
            }
        }

        // Returns at once while frames are ready (a streaming sender
        // never sleeps); otherwise sleeps until an append, a stop, or
        // the next ACK read falls due.
        let ack_due = config.poll_interval.saturating_sub(last_ack_read.elapsed());
        shared.park(wait_for, ack_due);
    }
}

/// Reads until one control frame of type `want` arrives (`Ok(Some)`), a
/// read timeout passes with nothing (`Ok(None)`), or the stream ends or
/// violates the protocol (`Err`).
fn read_watermark(
    sock: &TcpStream,
    scanner: &mut FrameScanner,
    want: u8,
) -> Result<Option<u64>, ()> {
    if let Some(frame) = scanner.next_frame().map_err(|_| ())? {
        return decode_ctrl_frame(want, &frame.1)
            .map(Some)
            .map_err(|_| ())
            .and_then(|wm| if frame.0 == want { Ok(wm) } else { Err(()) });
    }
    let mut buf = [0u8; 4096];
    use std::io::Read;
    match (&mut (&*sock)).read(&mut buf) {
        Ok(0) => Err(()),
        Ok(n) => {
            scanner.extend(&buf[..n]);
            match scanner.next_frame().map_err(|_| ())? {
                Some((t, payload)) if t == want => {
                    decode_ctrl_frame(want, &payload).map(Some).map_err(|_| ())
                }
                Some(_) => Err(()),
                None => Ok(None),
            }
        }
        Err(e)
            if e.kind() == std::io::ErrorKind::WouldBlock
                || e.kind() == std::io::ErrorKind::TimedOut =>
        {
            Ok(None)
        }
        Err(_) => Err(()),
    }
}

/// Drains every ACK already received, without blocking, returning the
/// highest watermark seen (if any).
fn drain_acks(sock: &TcpStream, scanner: &mut FrameScanner) -> Result<Option<u64>, ()> {
    let _ = sock.set_nonblocking(true);
    let result = read_acks(sock, scanner);
    let _ = sock.set_nonblocking(false);
    result
}

fn read_acks(sock: &TcpStream, scanner: &mut FrameScanner) -> Result<Option<u64>, ()> {
    let mut best: Option<u64> = None;
    let mut buf = [0u8; 4096];
    use std::io::Read;
    loop {
        // Frames already buffered first.
        while let Some((t, payload)) = scanner.next_frame().map_err(|_| ())? {
            if t != MSG_EGRESS_ACK {
                return Err(());
            }
            let wm = decode_ctrl_frame(MSG_EGRESS_ACK, &payload).map_err(|_| ())?;
            best = Some(best.map_or(wm, |b| b.max(wm)));
        }
        match (&mut (&*sock)).read(&mut buf) {
            Ok(0) => return Err(()),
            Ok(n) => scanner.extend(&buf[..n]),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Ok(best),
            Err(_) => return Err(()),
        }
    }
}
