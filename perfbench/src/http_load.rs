//! Load over loopback HTTP: two client threads, one keep-alive connection
//! each, against `bdi_server::start_durable`.
//!
//! * Open loop: request `i` is due at `t0 + i / rate`. A client takes the
//!   next request when it is free, waits for its due time, and its latency
//!   runs from the due time, so a request that comes due while both
//!   connections are busy waits in the generator and that wait counts.
//! * Closed loop: each client sends its next request as soon as the
//!   previous answer has arrived.
//!
//! Every answer is checked: status 200 and the same bytes as an answer
//! already checked against the eager oracle, or else the oracle's row
//! count and order-independent checksum.

use crate::client::Conn;
use crate::deploy::{body_sum, QuerySpec};
use crate::report::Measured;
use crate::trace::Tracer;
use crate::util::{AnswerSum, Samples};
use crate::CLIENTS;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy)]
pub enum Loop {
    Open { rate: f64 },
    Closed,
}

/// What the traced run replays afterwards: request id, its `http` span and
/// the request's index in the mix.
pub type Sampled = (u64, u64, usize);

pub struct Target<'a> {
    pub addr: SocketAddr,
    pub queries: &'a [QuerySpec],
    pub oracle: &'a [AnswerSum],
    /// Answer bytes already checked against the oracle, per request.
    pub verified: &'a [Vec<u8>],
    /// The seeded order in which the mix is sent.
    pub schedule: &'a [usize],
}

pub struct LoadOut {
    pub latency_ms: Samples,
    pub lateness_ms: Samples,
    pub done: u64,
    pub elapsed_s: f64,
    pub sampled: Vec<Sampled>,
}

/// The `row_count` and `rows` members of an answer body (the server writes
/// members in key order, so they sit together before `source_failures`).
/// The plan notes are left out: which of several parallel walks the union
/// credits with a duplicate row varies from run to run.
pub fn rows_part(body: &[u8]) -> Option<&[u8]> {
    let find = |needle: &[u8]| body.windows(needle.len()).position(|w| w == needle);
    let start = find(b"\"row_count\":")?;
    let end = find(b",\"source_failures\":")?;
    body.get(start..end)
}

/// Checks one answer. The fast path compares its rows byte for byte with
/// an answer already checked against the oracle; otherwise the rows are
/// summed and compared with the oracle.
pub fn answer_ok(status: u16, body: &[u8], verified: &[u8], oracle: AnswerSum) -> bool {
    status == 200
        && (rows_part(body).is_some_and(|rows| Some(rows) == rows_part(verified))
            || body_sum(body) == Some(oracle))
}

/// How long before a due time a client stops sleeping and starts yielding.
const SPIN_MS: u64 = 1;

/// Waits until `due`: sleeps until [`SPIN_MS`] before it, then yields. A
/// sleep to the due time itself would overshoot by the timer slack and the
/// wake-up, which would count as request latency; yielding for the whole
/// wait would keep both CPUs busy, so every server thread would have to
/// preempt a client.
fn wait_until(due: Instant) {
    let spin = Duration::from_millis(SPIN_MS);
    if let Some(ahead) = due.checked_duration_since(Instant::now() + spin) {
        std::thread::sleep(ahead);
    }
    while Instant::now() < due {
        std::thread::yield_now();
    }
}

/// Runs the load for `duration`. With a tracer, every `sample_every`-th
/// request (up to `sample_cap`) gets an `http` span and is handed back for
/// replay.
pub fn run(
    target: &Target,
    mode: Loop,
    duration: Duration,
    tracer: Option<&Tracer>,
    sample_every: u64,
    sample_cap: usize,
    m: &mut Measured,
) -> LoadOut {
    let next = AtomicU64::new(0);
    let sampled = Mutex::new(Vec::new());
    // Connections are opened before the clock starts: the schedule
    // measures requests, not connection set-up.
    let conns: Vec<_> = (0..CLIENTS).map(|_| Conn::connect(target.addr)).collect();
    let t0 = Instant::now();
    let end = t0 + duration;
    let outs: Vec<(Samples, Samples, u64, Measured)> = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .into_iter()
            .map(|conn| {
                let (next, sampled) = (&next, &sampled);
                scope.spawn(move || {
                    let mut lat = Samples::default();
                    let mut late = Samples::default();
                    let mut done = 0u64;
                    let mut local = Measured::default();
                    let mut conn = match conn {
                        Ok(c) => c,
                        Err(e) => {
                            local.check(false, || format!("connect: {e}"));
                            return (lat, late, done, local);
                        }
                    };
                    let mut previous = t0;
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let due = match mode {
                            Loop::Open { rate } => {
                                let due = t0 + Duration::from_secs_f64(i as f64 / rate);
                                if due >= end {
                                    break;
                                }
                                wait_until(due);
                                due
                            }
                            Loop::Closed => {
                                if Instant::now() >= end {
                                    break;
                                }
                                previous
                            }
                        };
                        let q = target.schedule[i as usize % target.schedule.len()];
                        let sent = Instant::now();
                        late.push_duration_ms(sent.saturating_duration_since(due));
                        let result = conn.post("/query", &target.queries[q].body);
                        let finished = Instant::now();
                        previous = finished;
                        let ok = match &result {
                            Ok((status, body)) => {
                                answer_ok(*status, body, &target.verified[q], target.oracle[q])
                            }
                            Err(_) => false,
                        };
                        local.check(ok, || {
                            format!(
                                "{}: {}",
                                target.queries[q].label,
                                match &result {
                                    Ok((status, _)) => format!("status {status} or wrong answer"),
                                    Err(e) => e.to_string(),
                                }
                            )
                        });
                        // A failed request still counts against the latency
                        // limit: it is recorded, not dropped.
                        let start = match mode {
                            Loop::Open { .. } => due,
                            Loop::Closed => sent,
                        };
                        lat.push_duration_ms(finished - start);
                        done += 1;
                        if let Some(tracer) = tracer.filter(|_| i % sample_every == 0) {
                            let mut s = sampled.lock().expect("sample list");
                            if s.len() < sample_cap {
                                let request = tracer.new_id();
                                let span = tracer.record(request, 0, "http", sent, finished - sent);
                                s.push((request, span, q));
                            }
                        }
                        if result.is_err() {
                            match Conn::connect(target.addr) {
                                Ok(c) => conn = c,
                                Err(_) => break,
                            }
                        }
                    }
                    (lat, late, done, local)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load client panicked"))
            .collect()
    });
    let elapsed_s = t0.elapsed().as_secs_f64();
    let mut out = LoadOut {
        latency_ms: Samples::default(),
        lateness_ms: Samples::default(),
        done: 0,
        elapsed_s,
        sampled: sampled.into_inner().expect("sample list"),
    };
    for (lat, late, done, local) in outs {
        out.latency_ms.extend(&lat);
        out.lateness_ms.extend(&late);
        out.done += done;
        m.merge(local);
    }
    out
}
