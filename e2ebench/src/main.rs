//! Socket-to-socket open-loop benchmark of the live path
//! `socket → TcpIngress → parse → count (durable, ×2) → TcpEgress →
//! EgressServer`.
//!
//! ```sh
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload small-steady --seed 1 --seconds 15 --trace 0
//! ```
//!
//! See `e2ebench/README.md` for the workloads, the metrics and the layer
//! table. The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`.

mod collect;
mod gen;
mod sys;
mod system;

use std::io::Write as _;
use std::net::TcpStream;
use std::path::Path;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use elasticutor_runtime::{monotonic_ns, Record};

use collect::{Collector, TraceSample};
use gen::{conn_of, GenStats, Generator, Ladder, OpKind, Workload};
use sys::Hist;
use system::{AppendSpan, Probes, System};

/// The controller's default `latency_target`: the p99 limit of a rung.
const LATENCY_LIMIT_MS: f64 = 50.0;
/// Warm-up before any measured phase.
const WARMUP_SECS: f64 = 1.0;
/// Length of one rung of the rate ladder.
const RUNG_SECS: f64 = 1.0;
/// Set-ups timed per run; `setup_s` is the mean of their middle third.
const SETUPS: usize = 21;
/// Generator health: a fixed-rate phase whose generator woke later than
/// this (p99 / max of its wake-ups) measured the box, not the program.
const GEN_LATE_P99_BOUND_MS: f64 = 10.0;
const GEN_LATE_MAX_BOUND_MS: f64 = 250.0;
/// How long a phase may take to deliver its last record.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(10);

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(gen::workload(&value).ok_or_else(|| format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "bad --seed")?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| "bad --seconds")?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err("--seconds must be in (0, 120]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            eprintln!(
                "usage: e2ebench --workload <{}> --seed <n> [--seconds <s>] [--trace <0|1>]",
                gen::WORKLOADS
                    .iter()
                    .map(|w| w.name)
                    .collect::<Vec<_>>()
                    .join("|")
            );
            return ExitCode::from(2);
        }
    };
    let scratch = Path::new(env!("CARGO_MANIFEST_DIR")).join(".scratch");
    let run_dir = scratch.join(format!("run-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&run_dir);
    let result = run(&args, &scratch, &run_dir);
    let _ = std::fs::remove_dir_all(&run_dir);
    match result {
        Ok(report) => {
            report.print();
            if report.correct {
                ExitCode::SUCCESS
            } else {
                eprintln!(
                    "e2ebench: output check failed: {}",
                    report.errors.join("; ")
                );
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("e2ebench: {e}");
            ExitCode::from(3)
        }
    }
}

/// A metric: name, value, unit.
type Metric = (&'static str, f64, &'static str);

struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    metrics: Vec<Metric>,
}

impl Report {
    fn print(&self) {
        let mut out = std::io::stdout().lock();
        for (name, value, unit) in &self.metrics {
            let _ = writeln!(out, "{name} = {value} {unit}");
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(n, v, u)| {
                format!(
                    "\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}",
                    json_num(*v)
                )
            })
            .collect();
        let _ = writeln!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
    }
}

/// JSON has no infinity: a latency quantile that lands on a lost record
/// is printed as 1e300.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "1e300".to_string()
    }
}

/// Everything one measured phase produced.
struct Phase {
    start: u64,
    sent: u64,
    gen: GenStats,
    /// Latencies of the correct deliveries, per whole second of schedule.
    windows: Vec<Hist>,
    /// `(due, latency)` of every traced delivery.
    traced: Vec<(u64, u64)>,
    traces: Vec<TraceSample>,
    cpu_ticks: u64,
    wall_ns: u64,
    /// Backlog (records due − delivered) when the generator finished.
    end_backlog: u64,
    aborted: bool,
    spill_max: u64,
}

impl Phase {
    /// Every correct delivery's latency: `(histogram, lost records)`.
    fn pooled(&self) -> (Hist, u64) {
        let mut h = Hist::default();
        self.windows.iter().for_each(|w| h.add(w));
        let missing = self.sent.saturating_sub(h.count());
        (h, missing)
    }

    /// `(p50, p99)` in ms, lost records counted as infinitely late.
    fn quantiles_ms(&self) -> (f64, f64) {
        let (h, missing) = self.pooled();
        let q = |q| h.quantile(missing, q).unwrap_or(f64::INFINITY) / 1e6;
        (q(0.5), q(0.99))
    }

    /// p99 of each whole second of the phase, in ms.
    fn window_p99s_ms(&self) -> Vec<f64> {
        self.windows
            .iter()
            .map(|w| w.quantile(0, 0.99).map_or(0.0, |v| v / 1e6))
            .collect()
    }

    /// p99 in ms over every second of the phase but the one whose own
    /// p99 is worst. A burst of other load on the box once in a run
    /// lands in one second and is dropped; a stall the program makes
    /// every few seconds lands in several and still counts. Lost
    /// records make it infinite.
    fn p99_but_worst_second_ms(&self) -> f64 {
        let (pooled, missing) = self.pooled();
        if missing > 0 {
            return f64::INFINITY;
        }
        let p99s = self.window_p99s_ms();
        let worst = (0..p99s.len()).max_by(|&a, &b| p99s[a].total_cmp(&p99s[b]));
        let mut rest = Hist::default();
        for (i, w) in self.windows.iter().enumerate() {
            if Some(i) != worst {
                rest.add(w);
            }
        }
        let h = if rest.count() > 0 { &rest } else { &pooled };
        h.quantile(0, 0.99).map_or(f64::INFINITY, |v| v / 1e6)
    }

    fn late_ms(&self, q: f64) -> f64 {
        sys::quantile_ms(&mut self.gen.late_ns.clone(), q)
    }
}

/// The running system and the checks on its outputs.
struct Rig {
    w: &'static Workload,
    sys: System,
    collector: Arc<Collector>,
    probes: Arc<Probes>,
}

/// The generator and its connections: the one mutable side of a run.
struct Feed {
    gen: Generator,
    conns: Vec<TcpStream>,
}

impl Rig {
    /// Runs `secs` of schedule at `rate`. With `abort_backlog_s`, the
    /// schedule is cut once more than that many seconds of records are
    /// due but undelivered (a rung that is plainly unsustainable).
    fn phase(
        &self,
        feed: &mut Feed,
        rate: f64,
        secs: f64,
        abort_backlog_s: Option<f64>,
    ) -> Result<Phase, String> {
        let delivered0 = self.collector.delivered();
        let cpu0 = sys::process_cpu_ticks();
        let n = (rate * secs).round() as u64;
        let start = monotonic_ns() + 1_000_000;
        self.collector.begin(start, secs);
        let stop = AtomicBool::new(false);
        let mut aborted = false;
        let mut spill_max = 0u64;
        let mut end_backlog = 0u64;
        let (gen, conns, collector, egress) = (
            &mut feed.gen,
            &mut feed.conns,
            &self.collector,
            &self.sys.egress,
        );
        let gen_stats = std::thread::scope(|s| {
            let g = std::thread::Builder::new()
                .name("generator".into())
                .spawn_scoped(s, || gen.run(conns, rate, start, n, &stop))
                .expect("spawn generator");
            while !g.is_finished() {
                std::thread::sleep(Duration::from_millis(10));
                spill_max = spill_max.max(egress.stats().spill_bytes);
                let now = monotonic_ns();
                let due = ((now.saturating_sub(start) as f64 * rate / 1e9) as u64).min(n);
                let backlog = due.saturating_sub(collector.delivered() - delivered0);
                if let Some(limit) = abort_backlog_s {
                    if !aborted && backlog as f64 > rate * limit {
                        aborted = true;
                        stop.store(true, Ordering::Release);
                    }
                }
            }
            let gs = g.join().expect("generator thread");
            end_backlog = gs.as_ref().map_or(0, |gs| {
                gs.sent.saturating_sub(collector.delivered() - delivered0)
            });
            gs
        })
        .map_err(|e| format!("generator socket write failed: {e}"))?;
        let deadline = Instant::now() + DRAIN_TIMEOUT;
        while self.collector.delivered() - delivered0 < gen_stats.sent {
            if Instant::now() > deadline {
                return Err(format!(
                    "{} of {} records still undelivered {DRAIN_TIMEOUT:?} after the phase",
                    gen_stats.sent - (self.collector.delivered() - delivered0),
                    gen_stats.sent
                ));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        let wall_ns = monotonic_ns().saturating_sub(start);
        let cpu_ticks = sys::process_cpu_ticks().saturating_sub(cpu0);
        let (windows, traced, traces) = self.collector.take();
        Ok(Phase {
            start,
            sent: gen_stats.sent,
            gen: gen_stats,
            windows,
            traced,
            traces,
            cpu_ticks,
            wall_ns,
            end_backlog,
            aborted,
            spill_max,
        })
    }

    /// Whether a ladder rung held: p99 within the limit and a backlog
    /// that did not grow past one limit's worth of records.
    fn rung(&self, feed: &mut Feed, rate: f64) -> Result<bool, String> {
        let p = self.phase(feed, rate, RUNG_SECS, Some(2.0 * LATENCY_LIMIT_MS / 1e3))?;
        let (_, p99) = p.quantiles_ms();
        let ok = !p.aborted
            && p99 <= LATENCY_LIMIT_MS
            && (p.end_backlog as f64) <= rate * LATENCY_LIMIT_MS / 1e3;
        println!(
            "rung {:.0} rec/s: p99 {:.2} ms, end backlog {}, {}",
            rate,
            p99,
            p.end_backlog,
            if ok { "held" } else { "failed" }
        );
        Ok(ok)
    }
}

/// One call the control thread made.
#[derive(Clone, Copy)]
struct ControlCall {
    /// When the schedule said to make it; a phase counts the calls
    /// scheduled inside it, so a whole number of periods always holds
    /// the same number of calls.
    scheduled: u64,
    start: u64,
    end: u64,
    /// Shards moved by a rescale, or moves initiated by a rebalance.
    moved: usize,
}

/// What the scripted control thread did.
#[derive(Default)]
struct ControlLog {
    rescales: Vec<ControlCall>,
    rebalances: Vec<ControlCall>,
    errors: Vec<String>,
}

/// The `skew-rescale` control thread. After each ω shuffle it calls
/// `rebalance` twice: at the shuffle (closing the load window of the
/// old key ranking) and 250 ms later (acting on the new one). On its own
/// period it alternates `scale_out`/`scale_in` of `count`. Everything
/// is on a fixed schedule, so every run rescales the same number of
/// times.
fn control(sys: &System, w: &Workload, epoch: u64, stop: &AtomicBool, log: &Mutex<ControlLog>) {
    let shuffle_ns = (60e9 / w.omega_per_min) as u64;
    let rescale_ns = w.rescale_every.expect("rescaling workload").as_nanos() as u64;
    let mut next_shuffle = epoch + shuffle_ns;
    let mut next_rescale = epoch + rescale_ns / 2;
    let mut rescales = 0u64;
    let mut pending_act: Option<u64> = None;
    while !stop.load(Ordering::Acquire) {
        let next = next_shuffle
            .min(next_rescale)
            .min(pending_act.unwrap_or(u64::MAX));
        let now = monotonic_ns();
        if now < next {
            std::thread::sleep(Duration::from_nanos((next - now).min(5_000_000)));
            continue;
        }
        let t0 = monotonic_ns();
        if next == next_rescale {
            let group = sys.count_group();
            let before = group.rescale_log().len();
            let r = if rescales.is_multiple_of(2) {
                sys.dag.scale_out(sys.count)
            } else {
                sys.dag.scale_in(sys.count)
            };
            let t1 = monotonic_ns();
            let moved = group.rescale_log()[before..]
                .iter()
                .map(|e| e.shards_moved)
                .sum();
            let mut l = log.lock().expect("control log");
            l.rescales.push(ControlCall {
                scheduled: next,
                start: t0,
                end: t1,
                moved,
            });
            if let Err(e) = r {
                l.errors.push(format!("rescale {rescales}: {e}"));
            }
            rescales += 1;
            next_rescale += rescale_ns;
        } else {
            let moves = sys.count_group().rebalance();
            let t1 = monotonic_ns();
            log.lock()
                .expect("control log")
                .rebalances
                .push(ControlCall {
                    scheduled: next,
                    start: t0,
                    end: t1,
                    moved: moves,
                });
            if pending_act == Some(next) {
                pending_act = None;
            } else {
                pending_act = Some(next_shuffle + 250_000_000);
                next_shuffle += shuffle_ns;
            }
        }
    }
}

/// Builds the system, sends one record and waits for its delivery.
fn set_up(
    w: &'static Workload,
    seed: u64,
    dir: &Path,
    conns: usize,
) -> Result<(Rig, Feed, f64), String> {
    let collector = Collector::new(w, seed);
    let probes = Arc::new(Probes::default());
    let mut gen = Generator::new(w, seed);
    let t0 = Instant::now();
    let sys = System::start(w, dir, &collector, &probes).map_err(|e| format!("start: {e}"))?;
    let mut socks = sys.connect(conns).map_err(|e| format!("connect: {e}"))?;
    let probe = gen.record(gen.probe_key(), monotonic_ns());
    let c = conn_of(probe.key.value(), conns);
    let mut frame = Vec::new();
    Generator::encode(&mut [vec![probe]], std::slice::from_mut(&mut frame));
    socks[c]
        .write_all(&frame)
        .map_err(|e| format!("probe write: {e}"))?;
    while collector.delivered() == 0 {
        if t0.elapsed() > DRAIN_TIMEOUT {
            return Err("set-up probe record never delivered".into());
        }
        std::thread::sleep(Duration::from_micros(200));
    }
    let secs = t0.elapsed().as_secs_f64();
    Ok((
        Rig {
            w,
            sys,
            collector,
            probes,
        },
        Feed { gen, conns: socks },
        secs,
    ))
}

/// Closes the generator's sockets, tears the system down and checks
/// every output: returns `(attempted, failed, errors)`.
fn tear_down(rig: Rig, feed: Feed) -> (u64, u64, Vec<String>) {
    drop(feed.conns);
    let ingress = rig.sys.shutdown();
    let sent: u64 = feed.gen.sent_per_key().iter().sum();
    let (mut failed, mut errors) = rig.collector.reconcile(feed.gen.sent_per_key());
    if ingress.protocol_errors > 0 {
        errors.push(format!(
            "{} ingress protocol errors",
            ingress.protocol_errors
        ));
        failed = failed.max(1);
    }
    if ingress.records_in != sent {
        errors.push(format!(
            "ingress decoded {} of {sent} records",
            ingress.records_in
        ));
        failed = failed.max(1);
    }
    (sent, failed, errors)
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(|a, b| a.total_cmp(b));
    v[v.len() / 2]
}

/// The mean of the middle third of `v`: a median that does not jump.
/// Set-up times fall on a few values ~4 ms apart (the sender's polls),
/// so a plain median flips between two of them from run to run; this
/// keeps the median's indifference to outliers and moves smoothly.
fn middle_third_mean(mut v: Vec<f64>) -> f64 {
    v.sort_by(|a, b| a.total_cmp(b));
    let third = v.len() / 3;
    let mid = &v[third..v.len() - third];
    mid.iter().sum::<f64>() / mid.len() as f64
}

fn run(args: &Args, scratch: &Path, run_dir: &Path) -> Result<Report, String> {
    let w = args.workload;
    let hw = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "# e2ebench workload={} seed={} seconds={} trace={} hardware_threads={hw} \
         record_bytes={} keys={} zipf_s={} omega_per_min={} rate={} op={:?} count_tasks={} \
         rescale_every_s={} ladder={} latency_limit_ms={LATENCY_LIMIT_MS} connections={hw}",
        w.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        w.record_bytes,
        w.keys,
        w.zipf_s,
        w.omega_per_min,
        w.rate,
        w.op,
        w.count_tasks,
        w.rescale_every.map_or(0.0, |d| d.as_secs_f64()),
        w.ladder.map_or("none".into(), |l| format!(
            "{}x{}^0..{}",
            l.base,
            l.ratio,
            l.rungs - 1
        )),
    );
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut errors = Vec::new();

    let setups = if args.trace { 1 } else { SETUPS };
    let mut setup_times = Vec::new();
    let mut kept = None;
    for k in 0..setups {
        let (rig, feed, secs) = set_up(w, args.seed, &run_dir.join(format!("sys-{k}")), hw)?;
        setup_times.push(secs);
        if k + 1 < setups {
            let (a, f, e) = tear_down(rig, feed);
            attempted += a;
            failed += f;
            errors.extend(e);
        } else {
            kept = Some((rig, feed));
        }
    }
    let (rig, mut feed) = kept.expect("at least one set-up");
    println!(
        "set-up times (s): {}",
        setup_times
            .iter()
            .map(|t| format!("{t:.4}"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    let setup_s = middle_third_mean(setup_times);

    let epoch = monotonic_ns();
    feed.gen.set_epoch(epoch);
    let stop_control = AtomicBool::new(false);
    let control_log = Mutex::new(ControlLog::default());
    let mut metrics: Vec<Metric> = Vec::new();
    let measured = std::thread::scope(|s| -> Result<(), String> {
        let ctl = w.rescale_every.map(|_| {
            let (sys, stop, log) = (&rig.sys, &stop_control, &control_log);
            std::thread::Builder::new()
                .name("control".into())
                .spawn_scoped(s, move || control(sys, w, epoch, stop, log))
                .expect("spawn control")
        });
        let r = measure(
            args,
            &rig,
            &mut feed,
            &control_log,
            scratch,
            hw,
            &mut metrics,
        );
        stop_control.store(true, Ordering::Release);
        if let Some(c) = ctl {
            c.join().expect("control thread");
        }
        r
    });
    errors.extend(control_log.lock().expect("control log").errors.clone());
    let (a, f, e) = tear_down(rig, feed);
    attempted += a;
    failed += f;
    errors.extend(e);
    measured?;
    if !args.trace {
        metrics.insert(0, ("setup_s", setup_s, "s"));
        println!(
            "failed_frac = {} (failed {failed} of attempted {attempted})",
            failed as f64 / attempted.max(1) as f64
        );
    }
    Ok(Report {
        correct: failed == 0 && errors.is_empty(),
        attempted,
        failed: failed.max(u64::from(!errors.is_empty())),
        errors,
        metrics,
    })
}

/// Fails the run when the generator could not keep its own schedule.
fn check_generator(p: &Phase, what: &str) -> Result<(), String> {
    let (p99, max) = (p.late_ms(0.99), p.late_ms(1.0));
    println!(
        "gen {what}: late p99 {p99:.3} ms, max {max:.3} ms, write {:.1} ms",
        p.gen.write_ns as f64 / 1e6
    );
    if p99 > GEN_LATE_P99_BOUND_MS || max > GEN_LATE_MAX_BOUND_MS {
        return Err(format!(
            "generator fell behind its own schedule in the {what} phase \
             (late p99 {p99:.2} ms > {GEN_LATE_P99_BOUND_MS} or max {max:.2} ms > \
             {GEN_LATE_MAX_BOUND_MS}): this run measured the box, not the program"
        ));
    }
    Ok(())
}

fn measure(
    args: &Args,
    rig: &Rig,
    feed: &mut Feed,
    control_log: &Mutex<ControlLog>,
    scratch: &Path,
    hw: usize,
    metrics: &mut Vec<Metric>,
) -> Result<(), String> {
    let w = rig.w;
    rig.phase(feed, w.rate, WARMUP_SECS, None)?;
    let fixed = rig.phase(feed, w.rate, args.seconds, None)?;
    let rss = sys::peak_rss_mib();
    check_generator(&fixed, "fixed-rate")?;
    let (p50, pooled_p99) = fixed.quantiles_ms();
    let p99 = fixed.p99_but_worst_second_ms();
    let (pooled, missing) = fixed.pooled();
    let n = pooled.count() + missing;
    let tail = n - ((0.99 * n as f64).ceil() as u64);
    println!(
        "latency samples {n} ({missing} missing), {tail} beyond the pooled p99 of \
         {pooled_p99:.3} ms, at {} rec/s for {} s",
        w.rate, args.seconds
    );
    println!(
        "p99 per second (ms): {}",
        fixed
            .window_p99s_ms()
            .iter()
            .map(|v| format!("{v:.2}"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    if tail < 10 {
        return Err(format!("only {tail} samples beyond p99; run longer"));
    }
    if !args.trace {
        let gen_ticks = fixed.gen.cpu_ticks;
        let cpu_s =
            fixed.cpu_ticks.saturating_sub(gen_ticks) as f64 / sys::clock_ticks_per_sec() as f64;
        if let Some(l) = w.ladder {
            // Saturation throughput on a small shared box moves with the
            // other load on it far more than any bound a gate can use, so
            // it is printed for the reader but is not a gated metric.
            println!("sustainable_rps = {} 1/s", ladder(rig, feed, l)?);
        }
        metrics.extend([
            ("latency_p50_ms", p50, "ms"),
            ("latency_p99_ms", p99, "ms"),
            (
                "cpu_us_per_rec",
                cpu_s * 1e6 / pooled.count().max(1) as f64,
                "us",
            ),
            ("peak_rss_mib", rss, "MiB"),
        ]);
        return Ok(());
    }
    traced_pass(args, rig, feed, control_log, scratch, hw, p50, metrics)
}

/// Finds `sustainable_rps` on the committed ladder: the highest rung
/// that held. From the highest rung not above the fixed rate the walk
/// climbs with a doubling step until a rung fails, then halves the step
/// back down to one rung, always from the highest rung that held. Near
/// capacity one probe of a rung is a coin flip (other load on the box
/// only ever takes capacity away), so a rung fails only when it fails
/// twice in a row. A walk one rung at a time would need ~30 rungs to
/// cross `small-steady`'s headroom; this needs about ten.
fn ladder(rig: &Rig, feed: &mut Feed, l: Ladder) -> Result<f64, String> {
    let mut held = (0..l.rungs)
        .rev()
        .find(|&r| l.rate(r) <= rig.w.rate)
        .unwrap_or(0);
    let mut best = None;
    let (mut step, mut climbing) = (1, true);
    loop {
        let r = held + step;
        if r < l.rungs && (rig.rung(feed, l.rate(r))? || rig.rung(feed, l.rate(r))?) {
            held = r;
            best = Some(r);
        } else {
            climbing = false;
        }
        if climbing {
            step *= 2;
        } else if step == 1 {
            break;
        } else {
            step /= 2;
        }
    }
    Ok(best.map_or(0.0, |r| l.rate(r)))
}

/// Counters read before and after the traced phase.
struct Snapshot {
    ingress: elasticutor_ingress::IngressStats,
    egress: elasticutor_egress::EgressStats,
    server: elasticutor_egress::ServerStats,
    parse: elasticutor_runtime::LoadSample,
    count: elasticutor_runtime::LoadSample,
    count_out: u64,
    manifests: Vec<u64>,
}

fn snapshot(sys: &System) -> Snapshot {
    Snapshot {
        ingress: sys.ingress.stats(),
        egress: sys.egress.stats(),
        server: sys.server.stats(),
        parse: sys.dag.group(sys.parse).load_sample(),
        count: sys.count_group().load_sample(),
        count_out: sys.count_group().emitted_count(),
        manifests: sys.manifest_seqs(),
    }
}

/// The six segments of one traced record's latency: ingress lag,
/// runtime queue, count, runtime emit, egress append, egress ship.
fn segments(t: &TraceSample, appends: &[AppendSpan]) -> Result<[u64; 6], String> {
    let i = appends.partition_point(|a| a.last_seq < t.delivery_seq);
    let a = appends
        .get(i)
        .filter(|a| a.first_seq <= t.delivery_seq)
        .ok_or_else(|| format!("delivery seq {} has no traced append", t.delivery_seq))?;
    // The sender may ship a frame before `consume` returns: the append
    // then ends at delivery.
    let stamps = [
        t.due,
        t.decode,
        t.count_start,
        t.count_end,
        a.start,
        a.end.min(t.delivered),
        t.delivered,
    ];
    // The segments are differences of consecutive stamps, so they sum to
    // `delivered - due` by construction; what can fail is the order.
    let mut seg = [0u64; 6];
    for k in 0..6 {
        seg[k] = stamps[k + 1].checked_sub(stamps[k]).ok_or_else(|| {
            format!(
                "key {} seq {}: stamp {} precedes stamp {k} ({stamps:?})",
                t.key,
                t.rec_seq,
                k + 1
            )
        })?;
    }
    Ok(seg)
}

const SEGMENT_NAMES: [&str; 6] = ["ingress", "queue", "count", "emit", "append", "ship"];

fn write_spans(
    path: &Path,
    header: &str,
    traces: &[TraceSample],
    segs: &[[u64; 6]],
) -> std::io::Result<()> {
    const MAX_RECORDS: usize = 4096;
    let stride = traces.len().div_ceil(MAX_RECORDS).max(1);
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "{header}")?;
    for (t, seg) in traces.iter().zip(segs).step_by(stride) {
        let id = format!("{}+{}", t.key, t.rec_seq);
        writeln!(
            out,
            "{{\"id\": \"{id}\", \"name\": \"e2e\", \"start\": {}, \"end\": {}, \"parent\": null}}",
            t.due, t.delivered
        )?;
        let mut at = t.due;
        for (name, d) in SEGMENT_NAMES.iter().zip(seg) {
            writeln!(
                out,
                "{{\"id\": \"{id}\", \"name\": \"{name}\", \"start\": {at}, \"end\": {}, \"parent\": \"e2e\"}}",
                at + d
            )?;
            at += d;
        }
    }
    out.flush()
}

/// The traced pass: the same fixed rate with the wrappers recording,
/// then every per-layer metric.
#[allow(clippy::too_many_arguments)]
fn traced_pass(
    args: &Args,
    rig: &Rig,
    feed: &mut Feed,
    control_log: &Mutex<ControlLog>,
    scratch: &Path,
    hw: usize,
    untraced_p50: f64,
    metrics: &mut Vec<Metric>,
) -> Result<(), String> {
    let w = rig.w;
    let before = snapshot(&rig.sys);
    rig.probes.set(true);
    let p = rig.phase(feed, w.rate, args.seconds, None);
    rig.probes.set(false);
    let p = p?;
    check_generator(&p, "traced")?;
    let after = snapshot(&rig.sys);
    let phase_end = p.start + (args.seconds * 1e9) as u64;

    let mut appends = std::mem::take(&mut *rig.probes.appends.lock().expect("probe lock"));
    appends.sort_by_key(|a| a.first_seq);
    let segs: Vec<[u64; 6]> = p
        .traces
        .iter()
        .map(|t| segments(t, &appends))
        .collect::<Result<_, _>>()?;
    if segs.is_empty() {
        return Err("the traced phase sampled no record".into());
    }
    let seg_q = |k: usize, q: f64| {
        let mut v: Vec<u64> = segs.iter().map(|s| s[k]).collect();
        sys::quantile_ms(&mut v, q)
    };
    let (traced_p50, _) = p.quantiles_ms();
    println!(
        "trace: {} sampled records, segment medians (ms): {}",
        segs.len(),
        SEGMENT_NAMES
            .iter()
            .enumerate()
            .map(|(k, n)| format!("{n} {:.3}", seg_q(k, 0.5)))
            .collect::<Vec<_>>()
            .join(", ")
    );
    std::fs::create_dir_all(scratch).map_err(|e| e.to_string())?;
    let spans = scratch.join(format!("spans-{}.jsonl", w.name));
    let header = format!(
        "{{\"workload\": \"{}\", \"rate\": {}, \"hardware_threads\": {hw}, \"sampled\": {}}}",
        w.name,
        w.rate,
        segs.len()
    );
    write_spans(&spans, &header, &p.traces, &segs).map_err(|e| format!("spans: {e}"))?;
    println!("spans written to {}", spans.display());

    let pr = &rig.probes;
    let ld = |a: &std::sync::atomic::AtomicU64| a.load(Ordering::Acquire);
    let ms = |ns: u64| ns as f64 / 1e6;
    let count_tasks = rig.sys.count_group().total_tasks().max(1) as f64;
    let checkpoints: u64 = after
        .manifests
        .iter()
        .enumerate()
        .map(|(i, &m)| m.saturating_sub(before.manifests.get(i).copied().unwrap_or(0)))
        .sum();

    let mut append_calls: Vec<u64> = appends.iter().map(|a| a.end - a.start).collect();
    let log = control_log.lock().expect("control log");
    let in_phase = |c: &&ControlCall| c.scheduled >= p.start && c.scheduled < phase_end;
    let rescales: Vec<&ControlCall> = log.rescales.iter().filter(in_phase).collect();
    let rebalances: Vec<&ControlCall> = log.rebalances.iter().filter(in_phase).collect();
    let mut rescale_ns: Vec<u64> = rescales.iter().map(|c| c.end - c.start).collect();
    let mut window: Vec<u64> = p
        .traced
        .iter()
        .filter(|(due, _)| rescales.iter().any(|c| (c.start..=c.end).contains(due)))
        .map(|&(_, l)| l)
        .collect();
    let shards_moved: usize = rescales.iter().map(|c| c.moved).sum();
    let baseline = baseline_rps(w, args.seed);

    metrics.extend([
        ("ingress.lag_p50_ms", seg_q(0, 0.5), "ms"),
        ("ingress.lag_p99_ms", seg_q(0, 0.99), "ms"),
        (
            "ingress.frames_in",
            (after.ingress.frames_in - before.ingress.frames_in) as f64,
            "count",
        ),
        (
            "ingress.bytes_in",
            (after.ingress.bytes_in - before.ingress.bytes_in) as f64,
            "bytes",
        ),
        (
            "ingress.stalls",
            (after.ingress.stalls - before.ingress.stalls) as f64,
            "count",
        ),
        (
            "ingress.protocol_errors",
            (after.ingress.protocol_errors - before.ingress.protocol_errors) as f64,
            "count",
        ),
        ("runtime.admit_ms", ms(ld(&pr.admit_ns)), "ms"),
        ("runtime.admit_calls", ld(&pr.admit_calls) as f64, "count"),
        (
            "runtime.admit_accept_ratio",
            ld(&pr.admit_accepted) as f64 / ld(&pr.admit_offered).max(1) as f64,
            "ratio",
        ),
        ("runtime.queue_p50_ms", seg_q(1, 0.5), "ms"),
        ("runtime.queue_p99_ms", seg_q(1, 0.99), "ms"),
        ("runtime.emit_p50_ms", seg_q(3, 0.5), "ms"),
        ("runtime.emit_p99_ms", seg_q(3, 0.99), "ms"),
        (
            "op.parse.busy_ms",
            ms(after.parse.busy_ns - before.parse.busy_ns),
            "ms",
        ),
        (
            "op.count.busy_ms",
            ms(after.count.busy_ns - before.count.busy_ns),
            "ms",
        ),
        (
            "op.count.busy_frac",
            (after.count.busy_ns - before.count.busy_ns) as f64 / (p.wall_ns as f64 * count_tasks),
            "ratio",
        ),
        ("op.count.span_p50_us", seg_q(2, 0.5) * 1e3, "us"),
        (
            "op.count.records_in",
            (after.count.processed - before.count.processed) as f64,
            "count",
        ),
        (
            "op.count.records_out",
            (after.count_out - before.count_out) as f64,
            "count",
        ),
        ("state.update_ms", ms(ld(&pr.update_ns)), "ms"),
        ("state.update_calls", ld(&pr.update_calls) as f64, "count"),
        ("state.checkpoints", checkpoints as f64, "count"),
        ("state.bytes", after.count.state_bytes as f64, "bytes"),
        ("egress.append_ms", ms(ld(&pr.append_ns)), "ms"),
        (
            "egress.append_p99_us",
            sys::quantile_ms(&mut append_calls, 0.99) * 1e3,
            "us",
        ),
        ("egress.append_calls", ld(&pr.append_calls) as f64, "count"),
        ("egress.ship_p50_ms", seg_q(5, 0.5), "ms"),
        ("egress.ship_p99_ms", seg_q(5, 0.99), "ms"),
        (
            "egress.frames_sent",
            (after.egress.frames_sent - before.egress.frames_sent) as f64,
            "count",
        ),
        (
            "egress.retransmitted",
            (after.egress.records_retransmitted - before.egress.records_retransmitted) as f64,
            "count",
        ),
        (
            "egress.connects",
            (after.egress.connects - before.egress.connects) as f64,
            "count",
        ),
        ("egress.spill_bytes", p.spill_max as f64, "bytes"),
        (
            "egress.server_dups",
            (after.server.duplicates_dropped - before.server.duplicates_dropped) as f64,
            "count",
        ),
        ("migrate.rescales", rescales.len() as f64, "count"),
        (
            "migrate.rescale_ms_p50",
            sys::quantile_ms(&mut rescale_ns, 0.5),
            "ms",
        ),
        (
            "migrate.rescale_ms_max",
            sys::quantile_ms(&mut rescale_ns, 1.0),
            "ms",
        ),
        ("migrate.shards_moved", shards_moved as f64, "count"),
        (
            "migrate.window_p99_ms",
            sys::quantile_ms(&mut window, 0.99),
            "ms",
        ),
        (
            "migrate.rebalance_ms",
            ms(rebalances.iter().map(|c| c.end - c.start).sum()),
            "ms",
        ),
        (
            "migrate.rebalance_moves",
            rebalances.iter().map(|c| c.moved).sum::<usize>() as f64,
            "count",
        ),
        ("gen.late_p99_ms", p.late_ms(0.99), "ms"),
        ("gen.late_max_ms", p.late_ms(1.0), "ms"),
        ("gen.write_ms", ms(p.gen.write_ns), "ms"),
        ("trace.samples", segs.len() as f64, "count"),
        ("trace.overhead_p50_ms", traced_p50 - untraced_p50, "ms"),
        ("baseline.single_thread_rps", baseline, "1/s"),
    ]);
    Ok(())
}

/// The reference computation alone, in one thread, over the first
/// second of the workload's stream: records per second.
fn baseline_rps(w: &Workload, seed: u64) -> f64 {
    use std::collections::HashMap;
    let mut g = Generator::new(w, seed);
    let interval = 1e9 / w.rate;
    let records: Vec<Record> = (0..w.rate as u64)
        .map(|i| g.next_record((i as f64 * interval) as u64))
        .collect();
    let mut times = Vec::new();
    for _ in 0..5 {
        let t0 = Instant::now();
        match w.op {
            OpKind::Count => {
                let mut counts: HashMap<u64, u64> = HashMap::new();
                for r in &records {
                    let c = counts.entry(r.key.value()).or_insert(0);
                    *c += 1;
                    let mut out = Vec::with_capacity(16);
                    out.extend_from_slice(&r.payload[..8]);
                    out.extend_from_slice(&c.to_le_bytes());
                    std::hint::black_box(bytes::Bytes::from(out));
                }
            }
            OpKind::PutEcho => {
                let mut latest: HashMap<u64, bytes::Bytes> = HashMap::new();
                for r in &records {
                    latest.insert(r.key.value(), r.payload.clone());
                    std::hint::black_box(r.payload.clone());
                }
            }
        }
        times.push(t0.elapsed().as_secs_f64());
    }
    records.len() as f64 / median(times)
}
