//! The `serve-mixed` workload: the real `serve` binary at one worker
//! thread, holding several resident 10k-AS markets, driven by an
//! open-loop generator from a seeded schedule.
//!
//! Set-up loads the resident markets and takes each one's cold step.
//! The measured window then sends, on
//! one connection, advises at a fixed rate well below saturation over
//! all resident markets, with a skewed AS choice (most requests go to a
//! small hot set per market, which the generation-keyed advise cache
//! answers; the rest spread over every AS and miss it), and on a second
//! connection a one-round `step` of one market at a fixed period. The
//! server executes every verb on one reactor thread, so advises that
//! arrive during a step wait for it: the schedule is sized so that those
//! step-blocked advises are several percent of all advises, which keeps
//! the p99 inside the blocked mode instead of flipping between modes.
//! The window runs in slices; between two slices one of the other
//! markets of the pool is loaded, cold-stepped and unloaded, so that the
//! set-up and cold-round samples are spread over the whole run.
//!
//! Latency is timed from each request's scheduled send time, so a stall
//! counts against every request scheduled behind it. The generator is
//! one thread that never sleeps through the window: it sends each
//! request when due, stamps reply lines as it reads them, keeps the
//! server's reactor out of its idle sleep with empty lines, and parses
//! nothing until the window has ended.

use std::collections::VecDeque;
use std::fs::File;
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use pan_core::{AdoptedAgreement, PairOutcome, RoundRecord};
use serde::{Deserialize, Value};

use crate::evolve::{build_market, check_ledger, check_outcomes, evolve, market_spec, note_tail};
use crate::layers::{Rounds, Tally};
use crate::record::{round_digests, Digests, Report};
use crate::stats::{median, percentile, within_limit_ratio};
use crate::{Options, SplitMix64, Workload, ASES, LATENCY_LIMIT_MS, MARKET_POOL};

/// Markets kept resident through the window: the last ones of the pool,
/// loaded first.
const RESIDENT: usize = 3;
/// Advises per second over the window.
const ADVISE_RATE: f64 = 400.0;
/// Seconds between two steps of the stepped market.
const STEP_PERIOD: f64 = 1.5;
/// Share of advises asking about one of a market's hot ASes.
const HOT_SHARE: f64 = 0.8;
/// Hot ASes per market.
const HOT_ASES: u64 = 64;
/// Slices of the window. Between two slices the server loads one of the
/// other markets, cold-steps it, and unloads it again, so that set-up
/// and cold-round samples are taken across the whole run: host
/// interference comes in bursts of seconds, which would move every
/// sample of a back-to-back batch together.
const SLICES: usize = 10;
/// Nominal seconds of the set-up cycles and of the in-process replay of
/// the stepped market on a 2-vCPU host; the window gets the rest of the
/// run's seconds (at least half).
const OVERHEAD_S: f64 = 13.0;
/// Longest the generator leaves the server without a write during the
/// window: well inside the server's idle spin, which lasts 500 polls of
/// its sockets (~2 ms) before it sleeps.
const KEEPALIVE: Duration = Duration::from_micros(200);

/// The server process; killed and reaped on drop if still running.
struct Server {
    child: Child,
    addr: String,
}

impl Server {
    fn start(bin: &Path, state_dir: &Path, metrics_out: Option<&Path>) -> Result<Server, String> {
        let log_path = state_dir.join("serve.log");
        let log = File::create(&log_path).map_err(|e| format!("cannot create server log: {e}"))?;
        let mut command = Command::new(bin);
        command.args([
            "--quick",
            "--threads",
            "1",
            "--addr",
            "127.0.0.1:0",
            "--slow-ms",
            "60000",
            // The residents and the market of one set-up cycle.
            "--max-markets",
            &(RESIDENT + 1).to_string(),
        ]);
        if let Some(path) = metrics_out {
            command.arg("--metrics-out").arg(path);
        }
        let child = command
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(log)
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let mut server = Server {
            child,
            addr: String::new(),
        };
        let started = Instant::now();
        while started.elapsed() < Duration::from_secs(60) {
            let log = std::fs::read_to_string(&log_path).unwrap_or_default();
            if let Some(rest) = log.lines().find_map(|l| l.strip_prefix("# serving on ")) {
                server.addr = rest
                    .split_whitespace()
                    .next()
                    .unwrap_or_default()
                    .to_owned();
                return Ok(server);
            }
            if let Ok(Some(status)) = server.child.try_wait() {
                return Err(format!("server exited at start-up ({status}): {log}"));
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        Err("server did not report its address within 60 s".to_owned())
    }

    /// The server's peak resident set (`VmHWM`) in MiB.
    fn peak_rss_mb(&self) -> Option<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id())).ok()?;
        let kib: f64 = status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))?
            .trim()
            .trim_end_matches("kB")
            .trim()
            .parse()
            .ok()?;
        Some(kib / 1024.0)
    }

    /// Waits up to 30 s for the process to exit after `quit`.
    fn wait(&mut self) -> Result<(), String> {
        let started = Instant::now();
        while started.elapsed() < Duration::from_secs(30) {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("server exited with {status}")),
                Ok(None) => std::thread::sleep(Duration::from_millis(10)),
                Err(e) => return Err(format!("cannot wait for the server: {e}")),
            }
        }
        Err("server did not exit within 30 s of quit".to_owned())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// One protocol connection with its own line buffer, usable blocking
/// (set-up, control) or polled (the receiver).
struct Conn {
    stream: TcpStream,
    chunk: Vec<u8>,
    pending: Vec<u8>,
    lines: VecDeque<String>,
}

impl Conn {
    fn connect(addr: &str) -> Result<Conn, String> {
        let stream =
            TcpStream::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
        stream
            .set_nodelay(true)
            .map_err(|e| format!("nodelay: {e}"))?;
        Ok(Conn {
            stream,
            chunk: vec![0; 64 * 1024],
            pending: Vec::new(),
            lines: VecDeque::new(),
        })
    }

    /// Reads once, honouring the socket's blocking mode, and queues
    /// every line it completed.
    fn poll(&mut self) -> Result<(), String> {
        match self.stream.read(&mut self.chunk) {
            Ok(0) => return Err("server closed the connection".to_owned()),
            Ok(n) => {
                self.pending.extend_from_slice(&self.chunk[..n]);
                quick_ack(&self.stream);
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(format!("read failed: {e}")),
        }
        while let Some(end) = self.pending.iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = self.pending.drain(..=end).collect();
            self.lines
                .push_back(String::from_utf8_lossy(&line[..end]).into_owned());
        }
        Ok(())
    }

    /// Blocking: the next reply line, parsed.
    fn recv(&mut self) -> Result<Value, String> {
        while self.lines.is_empty() {
            self.poll()?;
        }
        let line = self.lines.pop_front().expect("a line was queued");
        serde_json::from_str(&line).map_err(|e| format!("unparsable reply: {e}"))
    }

    /// Sends `request` and returns its replies, up to the first that is
    /// not a streamed `round` line.
    fn call(&mut self, request: &str) -> Result<Vec<Value>, String> {
        send(&mut self.stream, request)?;
        let mut replies = Vec::new();
        loop {
            let reply = self.recv()?;
            let round = matches!(reply.field("verb"), Ok(Value::Str(v)) if v == "round");
            replies.push(reply);
            if !round {
                return Ok(replies);
            }
        }
    }
}

/// Acknowledges what `stream` has received at once, and the next
/// segments too, instead of holding the ACK back for a reply to ride on.
/// The server does not set `TCP_NODELAY`, so a reply it writes while its
/// previous one is unacknowledged waits for that ACK: with delayed ACKs
/// the client's next request would carry it, and every latency would
/// read as the gap between requests. Linux drops out of quick-ACK mode
/// on its own, so this is called after every read.
#[cfg(target_os = "linux")]
fn quick_ack(stream: &TcpStream) {
    use std::os::fd::AsRawFd;
    extern "C" {
        fn setsockopt(fd: i32, level: i32, name: i32, value: *const i32, len: u32) -> i32;
    }
    const IPPROTO_TCP: i32 = 6;
    const TCP_QUICKACK: i32 = 12;
    let one: i32 = 1;
    // SAFETY: a valid socket descriptor and a pointer to a live `i32` of
    // the stated length; a failure leaves the socket as it was.
    unsafe {
        setsockopt(stream.as_raw_fd(), IPPROTO_TCP, TCP_QUICKACK, &one, 4);
    }
}

#[cfg(not(target_os = "linux"))]
fn quick_ack(_stream: &TcpStream) {}

/// Writes one request line, retrying while a non-blocking socket is full.
fn send(stream: &mut TcpStream, request: &str) -> Result<(), String> {
    let line = format!("{request}\n");
    let mut bytes = line.as_bytes();
    while !bytes.is_empty() {
        match stream.write(bytes) {
            Ok(0) => return Err("server closed the connection".to_owned()),
            Ok(n) => bytes = &bytes[n..],
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) => {
                std::thread::yield_now();
            }
            Err(e) => return Err(format!("write failed: {e}")),
        }
    }
    Ok(())
}

fn is_ok(reply: &Value) -> bool {
    matches!(reply.field("ok"), Ok(Value::Bool(true)))
}

fn str_field<'a>(reply: &'a Value, key: &str) -> Option<&'a str> {
    match reply.field(key) {
        Ok(Value::Str(s)) => Some(s),
        _ => None,
    }
}

fn u64_field(reply: &Value, key: &str) -> Option<u64> {
    match reply.field(key) {
        Ok(Value::U64(n)) => Some(*n),
        Ok(Value::I64(n)) => u64::try_from(*n).ok(),
        _ => None,
    }
}

/// A `round` reply line as the trajectory entry it carries.
fn round_of(reply: &Value) -> Result<(RoundRecord, Vec<AdoptedAgreement>), String> {
    let record = reply
        .field("record")
        .and_then(RoundRecord::from_value)
        .map_err(|e| format!("round line without a record: {e}"))?;
    let agreements = reply
        .field("agreements")
        .and_then(Vec::<AdoptedAgreement>::from_value)
        .map_err(|e| format!("round line without agreements: {e}"))?;
    Ok((record, agreements))
}

/// A scheduled request of the window.
#[derive(Debug, Clone, Copy)]
enum Request {
    Advise { market: usize, asn: u32 },
    Step,
}

/// The window's schedule: `(seconds after the window opens, request)`,
/// in time order.
fn schedule(seed: u64, window: f64) -> Vec<(f64, Request)> {
    let mut rng = SplitMix64::new(seed ^ 0x5e4e_d000);
    let hot: Vec<Vec<u32>> = (0..RESIDENT)
        .map(|_| {
            (0..HOT_ASES)
                .map(|_| 1 + rng.below(ASES as u64) as u32)
                .collect()
        })
        .collect();
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let advises = (window * ADVISE_RATE) as usize;
    let mut events: Vec<(f64, Request)> = (0..advises)
        .map(|i| {
            let market = rng.below(RESIDENT as u64) as usize;
            let asn = if rng.unit() < HOT_SHARE {
                hot[market][rng.below(HOT_ASES) as usize]
            } else {
                1 + rng.below(ASES as u64) as u32
            };
            (i as f64 / ADVISE_RATE, Request::Advise { market, asn })
        })
        .collect();
    let mut at = STEP_PERIOD / 2.0;
    while at < window {
        events.push((at, Request::Step));
        at += STEP_PERIOD;
    }
    events.sort_by(|a, b| a.0.total_cmp(&b.0));
    events
}

/// What the generator observed.
struct Window {
    opened: Instant,
    /// Per scheduled event: when it was actually sent (`None`: never).
    sent: Vec<Option<Instant>>,
    /// Reply lines of the advise connection, stamped on arrival.
    advise_lines: Vec<(Instant, String)>,
    /// Reply lines of the step connection, stamped on arrival.
    step_lines: Vec<(Instant, String)>,
    errors: Vec<String>,
}

/// Runs one slice of the open-loop window, `events` timed from its
/// opening, and waits for every reply.
///
/// One thread does it all, without sleeping: it sends each request when
/// it falls due, reads both connections without blocking, and stamps
/// each reply line as it reads it. Between advises it writes an empty
/// line on the advise connection every [`KEEPALIVE`], which the server
/// reads and skips. A thread that sleeps is woken late by a busy host,
/// by an amount that changes from run to run; the empty lines do the
/// same for the server's reactor, which sleeps a millisecond at a time
/// once idle. The latencies then measure the server's work and its
/// queue, not how soon the host wakes a sleeping thread.
fn drive(
    events: &[(f64, Request)],
    markets: &[String],
    advise: &mut Conn,
    control: &mut Conn,
) -> Result<Window, String> {
    for conn in [&*advise, &*control] {
        conn.stream
            .set_nonblocking(true)
            .map_err(|e| format!("non-blocking: {e}"))?;
    }
    let stepped = &markets[0];
    let opened = Instant::now() + Duration::from_millis(50);
    let give_up = opened + Duration::from_secs_f64(events.last().map_or(0.0, |e| e.0) + 60.0);
    let mut sent = vec![None; events.len()];
    let (mut advises_sent, mut steps_sent, mut step_finals) = (0usize, 0usize, 0usize);
    let mut advise_lines = Vec::new();
    let mut step_lines = Vec::new();
    let mut errors = Vec::new();
    let mut next = 0;
    let mut last_write = Instant::now();
    'window: loop {
        let now = Instant::now();
        while let Some(&(at, request)) = events.get(next) {
            if opened + Duration::from_secs_f64(at) > now {
                break;
            }
            let result = match request {
                Request::Advise { market, asn } => send(
                    &mut advise.stream,
                    &format!(
                        r#"{{"v":2,"verb":"advise","id":{next},"market":"{}","asn":{asn},"top":10}}"#,
                        markets[market]
                    ),
                )
                .map(|()| advises_sent += 1),
                Request::Step => send(
                    &mut control.stream,
                    &format!(r#"{{"v":2,"verb":"step","id":{next},"market":"{stepped}","rounds":1}}"#),
                )
                .map(|()| steps_sent += 1),
            };
            if let Err(e) = result {
                errors.push(format!("sending request {next}: {e}"));
                break 'window;
            }
            sent[next] = Some(now);
            last_write = now;
            next += 1;
        }
        if let Err(e) = advise.poll() {
            errors.push(format!("advise connection: {e}"));
            break;
        }
        let now = Instant::now();
        advise_lines.extend(advise.lines.drain(..).map(|l| (now, l)));
        if let Err(e) = control.poll() {
            errors.push(format!("step connection: {e}"));
            break;
        }
        let now = Instant::now();
        for line in control.lines.drain(..) {
            step_finals += usize::from(!line.contains("\"verb\":\"round\""));
            step_lines.push((now, line));
        }
        if next == events.len() && advise_lines.len() >= advises_sent && step_finals >= steps_sent {
            break;
        }
        if now > give_up {
            errors.push("replies still missing 60 s after the window".to_owned());
            break;
        }
        if now - last_write >= KEEPALIVE {
            if let Err(e) = send(&mut advise.stream, "") {
                errors.push(format!("advise connection: {e}"));
                break;
            }
            last_write = now;
        }
        std::thread::yield_now();
    }
    for conn in [&*advise, &*control] {
        conn.stream
            .set_nonblocking(false)
            .map_err(|e| format!("blocking: {e}"))?;
    }
    Ok(Window {
        opened,
        sent,
        advise_lines,
        step_lines,
        errors,
    })
}

/// Runs `serve-mixed`.
pub fn run(options: &Options, digests: &Digests, report: &mut Report) {
    let seconds = options.seconds as f64;
    let window_s = (seconds - OVERHEAD_S).max(seconds / 2.0);
    report.param("ases", ASES);
    report.param("server_threads", 1usize);
    report.param("markets_loaded", RESIDENT + SLICES - 1);
    report.param("window_slices", SLICES);
    report.param("markets_resident", RESIDENT);
    report.param("advise_rate_per_s", ADVISE_RATE);
    report.param("step_period_s", STEP_PERIOD);
    report.param("hot_share", HOT_SHARE);
    report.param("hot_ases_per_market", HOT_ASES);
    report.param("window_s", window_s);
    report.param("latency_limit_ms", LATENCY_LIMIT_MS);
    if let Err(e) = run_inner(options, window_s, digests, report) {
        report.error(e);
    }
}

/// The set-up passes' samples: each market's `load` round trip and
/// cold `step`, and the candidate count of that cold round.
#[derive(Default)]
struct SetUp {
    load_s: Vec<f64>,
    cold_step_s: Vec<f64>,
    candidates: Vec<f64>,
}

impl SetUp {
    /// Loads market `k` of the pool and takes its cold step; returns the
    /// server's market id and the cold round.
    fn load_and_step(
        &mut self,
        control: &mut Conn,
        k: usize,
        report: &mut Report,
    ) -> Result<(String, (RoundRecord, Vec<AdoptedAgreement>)), String> {
        let seed = crate::market_seed(k);
        let started = Instant::now();
        let reply = control.call(&format!(
            r#"{{"v":2,"verb":"load","market":{{"ases":{ASES},"seed":{seed}}}}}"#
        ))?;
        let elapsed = started.elapsed().as_secs_f64();
        let id = reply
            .last()
            .filter(|r| is_ok(r))
            .and_then(|r| str_field(r, "market"))
            .map(str::to_owned);
        report.op("load", id.is_some());
        let id = id.ok_or_else(|| format!("load of seed {seed} failed: {reply:?}"))?;
        self.load_s.push(elapsed);

        let started = Instant::now();
        let replies = control.call(&format!(
            r#"{{"v":2,"verb":"step","market":"{id}","rounds":1}}"#
        ))?;
        let elapsed = started.elapsed().as_secs_f64();
        let round = match replies.as_slice() {
            [round, summary] if is_ok(round) && is_ok(summary) => round_of(round),
            _ => Err(format!("cold step of {id} failed: {replies:?}")),
        };
        report.op("step", round.is_ok());
        let round = round?;
        self.cold_step_s.push(elapsed);
        self.candidates.push(round.0.candidates as f64);
        Ok((id, round))
    }
}

fn unload(control: &mut Conn, id: &str, report: &mut Report) -> Result<(), String> {
    let reply = control.call(&format!(r#"{{"v":2,"verb":"unload","market":"{id}"}}"#))?;
    let unloaded = reply.last().is_some_and(is_ok);
    report.op("unload", unloaded);
    if unloaded {
        Ok(())
    } else {
        Err(format!("unload of {id} failed: {reply:?}"))
    }
}

fn run_inner(
    options: &Options,
    window_s: f64,
    digests: &Digests,
    report: &mut Report,
) -> Result<(), String> {
    let bin = options
        .serve_bin
        .as_deref()
        .ok_or("serve-mixed needs --serve-bin")?;
    let metrics_out = options.state_dir.join("serve-metrics.json");
    let _ = std::fs::remove_file(&metrics_out);
    let mut server = Server::start(
        bin,
        &options.state_dir,
        options.trace.then_some(&*metrics_out),
    )?;
    let mut control = Conn::connect(&server.addr)?;
    let mut advise = Conn::connect(&server.addr)?;
    let pool = MARKET_POOL as usize;

    // The residents: the last markets of the pool, loaded and
    // cold-stepped first.
    let mut setup = SetUp::default();
    let mut markets = Vec::new();
    let mut served: Vec<(RoundRecord, Vec<AdoptedAgreement>)> = Vec::new();
    for k in pool - RESIDENT..pool {
        let (id, round) = setup.load_and_step(&mut control, k, report)?;
        if markets.is_empty() {
            served.push(round);
        }
        markets.push(id);
    }
    let stepped_seed = crate::market_seed(pool - RESIDENT);

    // The window, in slices; between two slices one of the other
    // markets is loaded, cold-stepped, and unloaded again.
    let metrics = |conn: &mut Conn| -> Result<(Instant, Tally), String> {
        let reply = conn.call(r#"{"v":2,"verb":"metrics"}"#)?;
        let reply = reply.last().filter(|r| is_ok(r)).ok_or("metrics failed")?;
        Ok((Instant::now(), Tally::from_metrics_reply(reply)?))
    };
    let events = schedule(options.seed, window_s);
    let slice_s = window_s / SLICES as f64;
    let mut observed = Observed::default();
    let mut window_tally = Tally::default();
    let mut window_ns = 0u128;
    let mut advise_replies = 0usize;
    for slice in 0..SLICES {
        if slice > 0 {
            let k = (slice - 1) % (pool - RESIDENT);
            let (id, _) = setup.load_and_step(&mut control, k, report)?;
            unload(&mut control, &id, report)?;
        }
        let (from, to) = (slice as f64 * slice_s, (slice + 1) as f64 * slice_s);
        let slice_events: Vec<(f64, Request)> = events
            .iter()
            .filter(|&&(at, _)| from <= at && at < to)
            .map(|&(at, request)| (at - from, request))
            .collect();
        let (before_at, before) = metrics(&mut control)?;
        let window = drive(&slice_events, &markets, &mut advise, &mut control)?;
        let (after_at, after) = metrics(&mut control)?;
        window_tally.add(&after.since(&before));
        window_ns += (after_at - before_at).as_nanos();
        advise_replies += window.advise_lines.len();
        for e in &window.errors {
            report.error(e.clone());
        }
        observed.add(&slice_events, &window, &markets, &mut served, report);
    }

    let mut resident_mb = Vec::new();
    for id in &markets {
        let reply = control.call(&format!(r#"{{"v":2,"verb":"stats","market":"{id}"}}"#))?;
        if let Some(bytes) = reply.last().and_then(|r| u64_field(r, "resident_bytes")) {
            resident_mb.push(bytes as f64 / (1024.0 * 1024.0));
        }
    }
    let peak_rss_mb = server.peak_rss_mb();
    let quit = control.call(r#"{"v":2,"verb":"quit"}"#)?;
    if !quit.last().is_some_and(is_ok) {
        report.error(format!("quit failed: {quit:?}"));
    }
    server.wait()?;
    drop(server);

    let (build_s, tables_s, replayed) = replay_stepped(&served, stepped_seed, digests, report)?;

    report.samples("setup", setup.load_s.len());
    report.samples("round_cold", setup.cold_step_s.len());
    report.note("load_s", &setup.load_s);
    report.note("cold_step_s", &setup.cold_step_s);
    report.samples("round_warm", observed.step_rtt.len());
    report.samples("step", observed.step_latency.len());
    report.samples("advise", observed.advise_ms.len());
    report.samples("advise_miss", observed.miss_ms.len());
    let answered = observed.advise_ms.len().max(1) as f64;
    report.note(
        "advise_miss_share",
        observed.miss_ms.len() as f64 / answered,
    );
    report.note(
        "step_blocked_advise_share",
        observed.blocked as f64 / observed.advises_attempted.max(1) as f64,
    );
    let late_p99 = percentile(&observed.late_ms, 0.99);
    report.note("gen_late_p50_ms", median(&observed.late_ms));
    report.note("gen_late_p99_ms", late_p99);
    if late_p99.is_none_or(|late| late > LATENCY_LIMIT_MS) {
        report.invalidate(format!(
            "the generator sent its p99 request {late_p99:?} ms behind schedule, over the \
             {LATENCY_LIMIT_MS} ms limit"
        ));
    }

    if !options.trace {
        report.set("setup_s", median(&setup.load_s));
        report.set("peak_rss_mb", peak_rss_mb);
        report.set("round_cold_s", median(&setup.cold_step_s));
        report.set("round_warm_s", median(&observed.step_rtt));
        report.set("step_p50_ms", median(&observed.step_latency));
        // Recorded, not metrics. The median is a cache hit answered in a
        // fraction of a millisecond, which the host's preemptions move
        // more than the server does. The p99 sits among the step-blocked
        // advises, where a step's time and the backlog it leaves add up
        // and swing about twice as far between runs as the step itself.
        report.note("advise_p50_ms", median(&observed.advise_ms));
        report.note("advise_p99_ms", percentile(&observed.advise_ms, 0.99));
        report.set("advise_miss_p50_ms", median(&observed.miss_ms));
        report.set(
            "advise_within_50ms_ratio",
            within_limit_ratio(
                &observed.advise_ms,
                observed.advises_attempted,
                LATENCY_LIMIT_MS,
            ),
        );
        note_tail(observed.advise_ms.len(), report);
        return Ok(());
    }

    // Per-layer: the registry differenced across the slices covers the
    // window's warm steps and advises; the rest of the final registry
    // (the server writes it at quit) covers the cold steps, the only
    // other steps.
    let final_registry = std::fs::read_to_string(&metrics_out)
        .map_err(|e| format!("server metrics file: {e}"))
        .and_then(|text| serde_json::from_str::<Value>(&text).map_err(|e| e.to_string()))
        .and_then(|value| Tally::from_metrics_reply(&value))?;
    let rounds = |tally: &Tally| Rounds {
        rounds: tally.count("serve.verb.step_ns"),
        wall_ns: tally.sum("serve.verb.step_ns"),
        tally: tally.clone(),
    };
    let cold_rounds = rounds(&final_registry.since(&window_tally));
    let warm_rounds = rounds(&window_tally);
    cold_rounds.report_phases("cold", report);
    warm_rounds.report_phases("warm", report);
    report.set("core.candidates", median(&setup.candidates));
    report.set(
        "core.transit_reuse_ratio",
        warm_rounds.transit_reuse_ratio(),
    );
    report.set("core.resident_mb", median(&resident_mb));
    let exec_ms = window_tally.mean_ms("serve.verb.advise_ns");
    report.set("serve.advise_exec_ms", Some(exec_ms));
    let hits = window_tally.counter("serve.advise.cache_hits");
    let lookups = hits + window_tally.counter("serve.advise.cache_misses");
    report.set(
        "serve.cache_hit_ratio",
        (lookups > 0).then(|| hits as f64 / lookups as f64),
    );
    report.set(
        "serve.step_exec_ms",
        Some(window_tally.mean_ms("serve.verb.step_ns")),
    );
    report.set(
        "serve.reactor_busy_ratio",
        Some(window_tally.sum("serve.reactor.busy_ns") as f64 / window_ns as f64),
    );
    let queue: Vec<f64> = observed
        .advise_ms
        .iter()
        .map(|latency| (latency - exec_ms).max(0.0))
        .collect();
    report.set("serve.queue_p50_ms", median(&queue));
    report.set("serve.queue_p99_ms", percentile(&queue, 0.99));
    report.set("gen.late_p99_ms", late_p99);

    // The server's own count of advises it executed must match the
    // replies the generator received.
    let executed = final_registry.count("serve.verb.advise_ns");
    report.check("server_advises_executed", executed);
    if executed != advise_replies as u64 {
        report.error(format!(
            "server executed {executed} advises, generator received {advise_replies} replies"
        ));
    }

    // In-process layers, from a second, traced replay of the stepped
    // market; against the untraced one it gives the tracing overhead.
    pan_telemetry::enable();
    let spec = market_spec(stepped_seed, 0.0, 0.0);
    let built = build_market(&spec);
    report.op("build", built.is_ok());
    let built = built?;
    let traced = evolve(&spec, built.state, served.len(), report, |_, _, _| {})?;
    report.set("datasets.build_s", median(&[build_s, built.build_s]));
    report.set("econ.tables_s", median(&[tables_s, built.tables_s]));
    report.set("runtime.busy_ratio", traced.warm.busy_ratio(crate::THREADS));
    report.set(
        "runtime.start_delay_ms",
        Some(traced.warm.tally.mean_ms("runtime.worker.start_delay_ns")),
    );
    crate::evolve::report_overhead(&replayed[1..], &traced.seconds[1..], report);
    Ok(())
}

/// The window's replies, parsed and checked, accumulated over its slices.
#[derive(Default)]
struct Observed {
    advise_ms: Vec<f64>,
    miss_ms: Vec<f64>,
    advises_attempted: usize,
    /// Advises due while a step was executing.
    blocked: usize,
    late_ms: Vec<f64>,
    step_latency: Vec<f64>,
    step_rtt: Vec<f64>,
}

impl Observed {
    /// Adds one slice: `events` as scheduled and `window` as observed.
    fn add(
        &mut self,
        events: &[(f64, Request)],
        window: &Window,
        markets: &[String],
        served: &mut Vec<(RoundRecord, Vec<AdoptedAgreement>)>,
        report: &mut Report,
    ) {
        let due = |at: f64| window.opened + Duration::from_secs_f64(at);
        let ms = |later: Instant, earlier: Instant| {
            later.saturating_duration_since(earlier).as_secs_f64() * 1e3
        };
        let mut advise_replies = window.advise_lines.iter();
        let mut step_replies = window.step_lines.iter();
        let mut busy = Vec::new();
        for (i, &(at, request)) in events.iter().enumerate() {
            if let Some(sent) = window.sent[i] {
                self.late_ms.push(ms(sent, due(at)));
            }
            match request {
                Request::Advise { market, asn } => {
                    self.advises_attempted += 1;
                    let checked = window.sent[i]
                        .ok_or_else(|| "never sent".to_owned())
                        .and_then(|_| advise_replies.next().ok_or_else(|| "no reply".to_owned()))
                        .and_then(|(stamp, line)| {
                            check_advise(line, i, &markets[market], asn)
                                .map(|cached| (stamp, cached))
                        });
                    report.op("advise", checked.is_ok());
                    match checked {
                        Ok((stamp, cached)) => {
                            let latency = ms(*stamp, due(at));
                            self.advise_ms.push(latency);
                            if !cached {
                                self.miss_ms.push(latency);
                            }
                        }
                        Err(e) => report.error(format!("advise {i} (asn {asn}): {e}")),
                    }
                }
                Request::Step => {
                    let checked = window.sent[i]
                        .ok_or_else(|| "never sent".to_owned())
                        .and_then(|sent| {
                            let parse = |line: &str| {
                                serde_json::from_str::<Value>(line).map_err(|e| e.to_string())
                            };
                            let round = step_replies.next().ok_or("no reply")?;
                            let round_reply = parse(&round.1)?;
                            if str_field(&round_reply, "verb") != Some("round") {
                                return Err(format!("step failed: {}", round.1));
                            }
                            let summary = step_replies.next().ok_or("no summary line")?;
                            if !is_ok(&round_reply) || !is_ok(&parse(&summary.1)?) {
                                return Err(format!("step failed: {}", summary.1));
                            }
                            Ok((sent, summary.0, round_of(&round_reply)?))
                        });
                    report.op("step", checked.is_ok());
                    match checked {
                        Ok((sent, stamp, round)) => {
                            self.step_latency.push(ms(stamp, due(at)));
                            self.step_rtt.push(ms(stamp, sent) / 1e3);
                            busy.push((sent, stamp));
                            served.push(round);
                        }
                        Err(e) => report.error(format!("step {i}: {e}")),
                    }
                }
            }
        }
        if advise_replies.next().is_some() || step_replies.next().is_some() {
            report.error("the server sent more replies than requests");
        }
        for &(at, request) in events {
            if matches!(request, Request::Advise { .. }) {
                let t = due(at);
                self.blocked += usize::from(busy.iter().any(|&(s, e)| s <= t && t < e));
            }
        }
    }
}

/// Checks one advise reply line; returns its `cached` flag.
fn check_advise(line: &str, id: usize, market: &str, asn: u32) -> Result<bool, String> {
    let reply: Value = serde_json::from_str(line).map_err(|e| format!("unparsable: {e}"))?;
    if !is_ok(&reply) {
        return Err(format!("error reply: {line}"));
    }
    if str_field(&reply, "verb") != Some("advise")
        || u64_field(&reply, "id") != Some(id as u64)
        || str_field(&reply, "market") != Some(market)
        || u64_field(&reply, "asn") != Some(u64::from(asn))
        || u64_field(&reply, "candidates").is_none()
        || u64_field(&reply, "generation").is_none()
    {
        return Err(format!("malformed reply: {line}"));
    }
    let outcomes = reply
        .field("outcomes")
        .and_then(Vec::<PairOutcome>::from_value)
        .map_err(|e| format!("malformed outcomes: {e}"))?;
    if outcomes.len() > 10 {
        return Err(format!("{} outcomes for top 10", outcomes.len()));
    }
    check_outcomes(asn, &outcomes)?;
    match reply.field("cached") {
        Ok(Value::Bool(cached)) => Ok(*cached),
        _ => Err(format!("no cached flag: {line}")),
    }
}

/// The stepped market's served trajectory must match the same market
/// evolved in-process round for round, and the committed digests; the
/// replay's ledger must balance. Returns the replay's set-up stage
/// timings and round seconds.
fn replay_stepped(
    served: &[(RoundRecord, Vec<AdoptedAgreement>)],
    seed: u64,
    digests: &Digests,
    report: &mut Report,
) -> Result<(f64, f64, Vec<f64>), String> {
    let spec = market_spec(seed, 0.0, 0.0);
    let built = build_market(&spec);
    report.op("build", built.is_ok());
    let built = built?;
    let replay = evolve(&spec, built.state, served.len(), report, |_, _, _| {})?;
    let (got, want) = (round_digests(served), round_digests(&replay.trajectory));
    if let Some(round) = (0..got.len()).find(|&r| got[r] != want[r]) {
        report.error(format!(
            "served round {round} of seed {seed} hashes to {}, its in-process replay to {}",
            got[round], want[round]
        ));
    }
    // The server evolves the market as evolve-steady does.
    match digests.check(&Workload::EvolveSteady.market_key(seed), &got) {
        Ok(checked) => report.check("served_trajectory", checked),
        Err(e) => report.error(e),
    }
    match check_ledger(&replay.state) {
        Ok(sum) => report.check("cash_ledger_sum", sum),
        Err(e) => report.error(format!("replay of seed {seed}: {e}")),
    }
    Ok((built.build_s, built.tables_s, replay.seconds))
}
