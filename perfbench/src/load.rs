//! The load generator: one thread per connection, open loop on a fixed
//! schedule, then an optional closed-loop phase.
//!
//! Requests are timed from the moment they were due, so a stall delays
//! every request behind it in the measurement too.  How late the generator
//! itself wrote each line is kept separately (`sent - due`).  Open-loop
//! requests are kept one record each; the closed-loop phase, whose request
//! count depends on the system's speed, is kept as counts, so the
//! generator's memory does not vary with the system's throughput.

use crate::workload::{query_line, Inputs, CLOSED_LOOP_DEPTH};
use serde::Value;
use std::collections::HashSet;
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Query,
    Ingest,
}

/// What one connection sends.
pub struct Plan<'a> {
    pub kind: Kind,
    pub inputs: &'a Inputs,
    /// Due time (offset from the run's start) and input index of each
    /// open-loop request, in send order.
    pub open: Vec<(Duration, u32)>,
    /// Closed-loop window `[start, end)`, entered once the open loop has
    /// sent everything.
    pub closed: Option<(Duration, Duration)>,
    /// How long to wait for outstanding replies after the last send.
    pub drain: Duration,
}

/// A decoded reply.
#[derive(Debug, Clone)]
pub enum Outcome {
    Answer {
        probability: f64,
        version: u64,
        observations: u64,
    },
    Ack {
        refit: bool,
    },
    /// A structured error reply (by code) or an unusable success reply.
    Failed(String),
}

/// One open-loop request and, once it came back, its reply.
#[derive(Debug, Clone)]
pub struct Record {
    pub due: Duration,
    pub sent: Duration,
    pub done: Option<Duration>,
    pub outcome: Option<Outcome>,
}

impl Record {
    pub fn ok(&self) -> bool {
        matches!(self.outcome, Some(Outcome::Answer { .. } | Outcome::Ack { .. }))
    }

    /// Microseconds from due time to reply.
    pub fn latency_us(&self) -> Option<f64> {
        self.done.map(|d| d.saturating_sub(self.due).as_secs_f64() * 1e6)
    }
}

/// Closed-loop ids start here, far above any open-loop id.
const CLOSED_ID_BASE: u64 = 1 << 40;
/// Width of the closed loop's completion buckets.
pub const BUCKET: Duration = Duration::from_millis(250);

/// The closed-loop phase, as counts.
#[derive(Debug, Default)]
pub struct ClosedLoop {
    /// The window as actually run.
    pub window: Option<(Duration, Duration)>,
    pub sent: u64,
    /// Successful replies per `BUCKET` of the window.
    pub completions: Vec<u64>,
    pub failures: Vec<(String, u64)>,
    in_flight: HashSet<u64>,
}

/// Checks every answer as it arrives, in arrival order.
#[derive(Debug, Default)]
pub struct Answers {
    pub out_of_range: u64,
    pub decreases: u64,
    last: (u64, u64),
    /// (arrival, observations) at each rise of `observations`.
    pub timeline: Vec<(Duration, u64)>,
}

/// Everything one connection saw.
#[derive(Debug, Default)]
pub struct ConnLog {
    /// Open-loop requests, indexed by request id.
    pub records: Vec<Record>,
    pub closed: ClosedLoop,
    pub answers: Answers,
    /// Replies whose id was null or matched no request.
    pub uncorrelated: u64,
    /// (time, cumulative host steal in seconds), sampled once a second by
    /// the query stream.
    pub steal: Vec<(Duration, f64)>,
    /// The I/O error that ended the connection early, if any.
    pub io_error: Option<String>,
}

fn bump(counts: &mut Vec<(String, u64)>, reason: &str, by: u64) {
    if by == 0 {
        return;
    }
    match counts.iter_mut().find(|(r, _)| r == reason) {
        Some((_, n)) => *n += by,
        None => counts.push((reason.to_string(), by)),
    }
}

impl ConnLog {
    /// Requests sent, open and closed loop.
    pub fn attempted(&self) -> u64 {
        self.records.len() as u64 + self.closed.sent
    }

    /// Failures by reason: error codes, `timeout` for requests never
    /// answered, `uncorrelated` for replies matching no request.
    pub fn failures(&self) -> Vec<(String, u64)> {
        let mut counts = self.closed.failures.clone();
        for record in &self.records {
            match &record.outcome {
                None => bump(&mut counts, "timeout", 1),
                Some(Outcome::Failed(code)) => bump(&mut counts, code, 1),
                Some(_) => {}
            }
        }
        bump(&mut counts, "timeout", self.closed.in_flight.len() as u64);
        bump(&mut counts, "uncorrelated", self.uncorrelated);
        counts
    }
}

/// Runs `plan` over `stream`, with due times counted from `t0`.
pub fn drive(mut stream: TcpStream, t0: Instant, plan: Plan<'_>) -> ConnLog {
    precise_timers();
    let mut log = ConnLog { records: Vec::with_capacity(plan.open.len()), ..ConnLog::default() };
    let mut out: Vec<u8> = Vec::with_capacity(64 << 10);
    let mut pending: Vec<u8> = Vec::with_capacity(64 << 10);
    let mut buf = vec![0u8; 256 << 10];
    let mut next_open = 0usize;
    let mut open_answered = 0usize;
    let mut last_send = Duration::ZERO;
    let query_seq_len = plan.inputs.query_seq.len();

    let mut next_steal_sample = Duration::ZERO;
    loop {
        let now = t0.elapsed();
        if plan.kind == Kind::Query && now >= next_steal_sample {
            log.steal.push((now, host_steal_s()));
            next_steal_sample += Duration::from_secs(1);
        }
        out.clear();
        while next_open < plan.open.len() && plan.open[next_open].0 <= now {
            let (due, input) = plan.open[next_open];
            encode(&plan, &mut out, log.records.len() as u64, input);
            log.records.push(Record { due, sent: now, done: None, outcome: None });
            next_open += 1;
        }
        let open_done = next_open == plan.open.len();
        if let Some((start, end)) = plan.closed.filter(|&(s, e)| open_done && now >= s && now < e) {
            let closed = &mut log.closed;
            if closed.window.is_none() {
                closed.window = Some((start, end));
                closed.completions =
                    vec![0; (end - start).div_duration_f64(BUCKET).ceil() as usize];
            }
            while closed.in_flight.len() < CLOSED_LOOP_DEPTH {
                let id = CLOSED_ID_BASE + closed.sent;
                encode(&plan, &mut out, id, (closed.sent % query_seq_len as u64) as u32);
                closed.in_flight.insert(id);
                closed.sent += 1;
            }
        }
        if !out.is_empty() {
            if let Err(e) = stream.write_all(&out) {
                log.io_error = Some(format!("write: {e}"));
                break;
            }
            last_send = now;
        }

        let sending_done = open_done && plan.closed.is_none_or(|(_, e)| now >= e);
        let outstanding = log.records.len() - open_answered + log.closed.in_flight.len();
        if sending_done && outstanding == 0 {
            break;
        }
        let wait = if !open_done {
            plan.open[next_open].0.saturating_sub(now)
        } else if let Some((start, end)) = plan.closed.filter(|_| !sending_done) {
            if now < start {
                start - now
            } else {
                (end - now).min(Duration::from_millis(20))
            }
        } else {
            let deadline = last_send + plan.drain;
            if now >= deadline {
                break;
            }
            deadline - now
        };
        if wait.is_zero() {
            continue;
        }
        match wait_readable(&stream, wait) {
            Ok(true) => {}
            Ok(false) => continue,
            Err(e) => {
                log.io_error = Some(format!("poll: {e}"));
                break;
            }
        }
        match stream.read(&mut buf) {
            Ok(0) => {
                log.io_error = Some("connection closed by peer".to_string());
                break;
            }
            Ok(n) => {
                let at = t0.elapsed();
                pending.extend_from_slice(&buf[..n]);
                let mut start = 0;
                while let Some(pos) = pending[start..].iter().position(|&b| b == b'\n') {
                    let line = &pending[start..start + pos];
                    start += pos + 1;
                    open_answered += settle(&mut log, plan.kind, line, at);
                }
                pending.drain(..start);
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) => {}
            Err(e) => {
                log.io_error = Some(format!("read: {e}"));
                break;
            }
        }
    }
    log
}

fn encode(plan: &Plan<'_>, out: &mut Vec<u8>, id: u64, input: u32) {
    match plan.kind {
        Kind::Query => {
            let probe = plan.inputs.query_seq[input as usize] as usize;
            query_line(out, id, &plan.inputs.probes[probe]);
        }
        Kind::Ingest => {
            // Batch lines carry their batch index as id; ingest requests
            // are sent in batch order, so id, record index and batch agree.
            debug_assert_eq!(id, input as u64);
            out.extend_from_slice(plan.inputs.batch_lines[input as usize].as_bytes());
        }
    }
}

/// Books one reply line; returns 1 when it answered an open-loop request.
fn settle(log: &mut ConnLog, kind: Kind, line: &[u8], at: Duration) -> usize {
    let Ok(text) = std::str::from_utf8(line) else {
        log.uncorrelated += 1;
        return 0;
    };
    let fast = if kind == Kind::Query { fast_answer(text) } else { None };
    let (id, outcome) = match fast {
        Some((id, outcome)) => (Some(id), outcome),
        None => match serde_json::from_str::<Value>(text) {
            Ok(reply) => (reply.get("id").and_then(Value::as_u64), decode(kind, &reply)),
            Err(_) => {
                log.uncorrelated += 1;
                return 0;
            }
        },
    };
    if let Outcome::Answer { probability, version, observations } = outcome {
        let answers = &mut log.answers;
        if !(0.0..=1.0).contains(&probability) {
            answers.out_of_range += 1;
        }
        if version < answers.last.0 || observations < answers.last.1 {
            answers.decreases += 1;
        }
        if observations > answers.last.1 {
            answers.timeline.push((at, observations));
        }
        answers.last = (version, observations);
    }
    match id {
        Some(id) if log.closed.in_flight.remove(&id) => {
            let closed = &mut log.closed;
            match outcome {
                Outcome::Failed(code) => bump(&mut closed.failures, &code, 1),
                _ => {
                    let (start, _) = closed.window.expect("closed requests imply a window");
                    let bucket = at.saturating_sub(start).div_duration_f64(BUCKET) as usize;
                    if let Some(count) = closed.completions.get_mut(bucket) {
                        *count += 1;
                    }
                }
            }
            0
        }
        Some(id) => match log.records.get_mut(id as usize).filter(|r| r.outcome.is_none()) {
            Some(record) => {
                record.done = Some(at);
                record.outcome = Some(outcome);
                1
            }
            None => {
                log.uncorrelated += 1;
                0
            }
        },
        None => {
            log.uncorrelated += 1;
            0
        }
    }
}

/// Reads a successful `query` reply without building a JSON tree: the
/// generator shares two cores with the server, and a full parse per
/// reply would take a noticeable share of one in the closed loop.
/// Anything else (errors, `null` probabilities) takes the full parse.
fn fast_answer(line: &str) -> Option<(u64, Outcome)> {
    fn number<T: std::str::FromStr>(line: &str, key: &str) -> Option<T> {
        let rest = &line[line.find(key)? + key.len()..];
        let end = rest.find([',', '}']).unwrap_or(rest.len());
        rest[..end].parse().ok()
    }
    let rest = line.strip_prefix("{\"id\":")?;
    let comma = rest.find(',')?;
    let id = rest[..comma].parse().ok()?;
    if !rest[comma..].starts_with(",\"ok\":true,\"result\":{\"probability\":") {
        return None;
    }
    let outcome = Outcome::Answer {
        probability: number(line, "\"probability\":")?,
        version: number(line, "\"snapshot_version\":")?,
        observations: number(line, "\"observations\":")?,
    };
    Some((id, outcome))
}

fn decode(kind: Kind, reply: &Value) -> Outcome {
    if !matches!(reply.get("ok"), Some(Value::Bool(true))) {
        let code = reply
            .get("error")
            .and_then(|e| e.get("code"))
            .and_then(|c| match c {
                Value::Str(s) => Some(s.clone()),
                _ => None,
            })
            .unwrap_or_else(|| "malformed-error".to_string());
        return Outcome::Failed(code);
    }
    let Some(result) = reply.get("result") else {
        return Outcome::Failed("missing-result".to_string());
    };
    match kind {
        Kind::Query => {
            let field = |name| result.get(name).and_then(Value::as_u64);
            match (result.get("probability").and_then(Value::as_f64), field("snapshot_version")) {
                (Some(probability), Some(version)) => Outcome::Answer {
                    probability,
                    version,
                    observations: field("observations").unwrap_or(0),
                },
                _ => Outcome::Failed("non-finite-answer".to_string()),
            }
        }
        Kind::Ingest => {
            Outcome::Ack { refit: matches!(result.get("refit_triggered"), Some(Value::Bool(true))) }
        }
    }
}

// Socket receive timeouts count in scheduler ticks (4 ms at HZ=250) and
// epoll_wait in milliseconds, both far coarser than the 250 µs between
// queries at 4,000/s.  `ppoll` takes a nanosecond timeout; with the
// thread's timer slack at 1 ns it wakes within microseconds of a due time.
#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn ppoll(fds: *mut PollFd, nfds: u64, timeout: *const Timespec, sigmask: *const u8) -> i32;
    fn prctl(option: i32, ...) -> i32;
}

const POLLIN: i16 = 0x001;
const PR_SET_TIMERSLACK: i32 = 29;

/// Sets this thread's timer slack to 1 ns (best effort: a refusal only
/// makes wake-ups up to the default 50 µs late, which the lag metric shows).
fn precise_timers() {
    // SAFETY: PR_SET_TIMERSLACK takes one unsigned long argument and only
    // changes a scheduling attribute of the calling thread.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1u64);
    }
}

/// Waits until `stream` is readable (or closed) or `timeout` passes.
fn wait_readable(stream: &TcpStream, timeout: Duration) -> std::io::Result<bool> {
    let mut fd = PollFd { fd: stream.as_raw_fd(), events: POLLIN, revents: 0 };
    let ts =
        Timespec { tv_sec: timeout.as_secs() as i64, tv_nsec: i64::from(timeout.subsec_nanos()) };
    // SAFETY: `fd` and `ts` are valid for the duration of the call, nfds is
    // 1 to match the single PollFd, and a null sigmask leaves the signal
    // mask unchanged.
    let ready = unsafe { ppoll(&mut fd, 1, &ts, std::ptr::null()) };
    match ready {
        n if n > 0 => Ok(true),
        0 => Ok(false),
        _ => {
            let e = std::io::Error::last_os_error();
            if e.kind() == ErrorKind::Interrupted {
                Ok(false)
            } else {
                Err(e)
            }
        }
    }
}

/// CPU time the hypervisor gave to other guests (the `steal` column of
/// `/proc/stat`), in seconds; 0 where the kernel does not report it.
pub fn host_steal_s() -> f64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|stat| {
            let cpu = stat.lines().next()?.split_whitespace().collect::<Vec<_>>();
            cpu.get(8)?.parse::<f64>().ok()
        })
        .map_or(0.0, |ticks| ticks / 100.0)
}
