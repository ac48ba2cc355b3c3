//! Open- and closed-loop request generators and latency statistics.
//!
//! Every operation gets exactly one attempt. A transport error drops the
//! connection; the next operation reconnects (and the reconnect is
//! counted, so the connection audit can tell it from a stray client).

use crate::net::{Conn, Reply};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// Operation types, each accounted separately.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Kind {
    Query,
    Batch,
    Update,
}

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::Query => "query",
            Kind::Batch => "batch",
            Kind::Update => "update",
        }
    }
}

/// One operation of a stream: what to send and what it stands for
/// (`item` indexes the workload's pattern pool, batch list or update
/// list).
#[derive(Clone)]
pub struct Op<'a> {
    pub kind: Kind,
    pub item: usize,
    pub req: &'a [u8],
}

/// The record of one attempted operation.
pub struct Sample {
    pub kind: Kind,
    pub item: usize,
    /// When the operation was due (open loop) or could have been sent
    /// (closed loop: the previous reply's arrival).
    pub due: Instant,
    pub sent: Instant,
    pub done: Instant,
    /// HTTP status, or 0 for a transport error.
    pub status: u16,
    pub body: Vec<u8>,
}

impl Sample {
    /// Latency from the due time, in ms (what a user waits).
    pub fn latency_ms(&self) -> f64 {
        ms(self.done - self.due)
    }

    /// Latency from the send, in ms (what the connection sees).
    pub fn service_ms(&self) -> f64 {
        ms(self.done - self.sent)
    }

    /// How late the generator sent this operation, in ms.
    pub fn lag_ms(&self) -> f64 {
        ms(self.sent.saturating_duration_since(self.due))
    }

    pub fn reply(&self) -> Reply {
        Reply {
            status: self.status,
            body: self.body.clone(),
        }
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// One generator connection plus its reconnect count.
pub struct Client {
    addr: SocketAddr,
    conn: Option<Conn>,
    pub reconnects: u64,
}

impl Client {
    pub fn new(addr: SocketAddr) -> Result<Client, String> {
        let conn = Conn::open(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        Ok(Client {
            addr,
            conn: Some(conn),
            reconnects: 0,
        })
    }

    pub fn conn(&mut self) -> Option<&mut Conn> {
        self.conn.as_mut()
    }

    fn attempt(&mut self, op: &Op, due: Instant) -> Sample {
        let sent = Instant::now();
        if self.conn.is_none() {
            self.reconnects += 1;
            self.conn = Conn::open(self.addr).ok();
        }
        let res = match self.conn.as_mut() {
            Some(c) => c.call(op.req),
            None => Err(std::io::Error::other("reconnect failed")),
        };
        let done = Instant::now();
        let (status, body) = match res {
            Ok(r) => (r.status, r.body),
            Err(_) => {
                self.conn = None;
                (0, Vec::new())
            }
        };
        Sample {
            kind: op.kind,
            item: op.item,
            due,
            sent,
            done,
            status,
            body,
        }
    }
}

fn sleep_until(t: Instant) {
    let now = Instant::now();
    if t > now {
        std::thread::sleep(t - now);
    }
}

/// Send `ops[i]` at `t0 + offsets[i]` (never earlier), one attempt each.
pub fn open_loop(client: &mut Client, ops: &[(Duration, Op)], t0: Instant) -> Vec<Sample> {
    ops.iter()
        .map(|(off, op)| {
            let due = t0 + *off;
            sleep_until(due);
            client.attempt(op, due)
        })
        .collect()
}

/// Send operations back to back until `until`; `next(i)` yields the
/// i-th operation (`None` ends the phase early).
pub fn closed_loop<'a>(
    client: &mut Client,
    until: Instant,
    mut next: impl FnMut(usize) -> Option<Op<'a>>,
) -> Vec<Sample> {
    let mut out = Vec::new();
    let mut due = Instant::now();
    while Instant::now() < until {
        let Some(op) = next(out.len()) else { break };
        let s = client.attempt(&op, due);
        due = s.done;
        out.push(s);
    }
    out
}

/// Nearest-rank percentile of unsorted values (`q` in 0..=1).
pub fn pct(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// Per-operation-type outcome counts.
#[derive(Default, Clone, Debug)]
pub struct Tally {
    pub attempted: u64,
    pub ok: u64,
    pub non_2xx: u64,
    pub transport: u64,
    pub wrong: u64,
}

impl Tally {
    pub fn failed(&self) -> u64 {
        self.non_2xx + self.transport + self.wrong
    }

    /// Count one sample; `wrong` is the verifier's verdict on a 2xx.
    pub fn add(&mut self, s: &Sample, wrong: bool) {
        self.attempted += 1;
        match s.status {
            0 => self.transport += 1,
            200..=299 if wrong => self.wrong += 1,
            200..=299 => self.ok += 1,
            _ => self.non_2xx += 1,
        }
    }
}
