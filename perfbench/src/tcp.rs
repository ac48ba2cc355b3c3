//! One served run: start `serve`, set it up, run the plan's timed
//! phases over TCP, scrape `/metrics` around them on the generator's own
//! connection, and stop everything.

use crate::load::{closed_loop, open_loop, Client, Sample};
use crate::net::{Conn, Serve, SubReader};
use crate::plan::Plan;
use expfinder_graph::json::Value;
use rand::Rng;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// `serve --workers`: one per generator connection (two at most, the
/// core count this benchmark is sized for).
pub const WORKERS: usize = 2;

/// What one served run produced.
pub struct TcpRun {
    /// Seconds from spawning `serve` to set-up done, one per set-up.
    pub setup_s: Vec<f64>,
    pub open: Vec<Sample>,
    pub closed: Vec<Sample>,
    /// Wall time of the closed-loop phase (start to last reply).
    pub closed_wall_s: f64,
    /// Pushed `update` frames with their arrival times.
    pub frames: Vec<(Instant, Vec<u8>)>,
    /// `/metrics` before and after the timed phases.
    pub m0: Value,
    pub m1: Value,
    pub reconnects: u64,
    pub rss_mb: f64,
    /// `serve` CPU time over the open- and the closed-loop phase.
    pub open_cpu_s: f64,
    pub closed_cpu_s: f64,
    /// Data-dir bytes before and after the open phase (durable only).
    pub disk_before: u64,
    pub disk_after_open: u64,
    /// `graph_version` the upload answered with.
    pub v0: u64,
}

fn dir_bytes(p: &Path) -> u64 {
    let Ok(rd) = std::fs::read_dir(p) else {
        return 0;
    };
    rd.flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

fn expect_2xx(c: &mut Conn, req: &[u8], what: &str) -> Result<Value, String> {
    let r = c.call(req).map_err(|e| format!("{what}: {e}"))?;
    if !r.ok() {
        return Err(format!(
            "{what}: status {} {}",
            r.status,
            String::from_utf8_lossy(&r.body)
        ));
    }
    r.json()
}

fn metric(doc: &Value, path: &[&str]) -> f64 {
    let mut v = doc;
    for k in path {
        match v.field(k) {
            Ok(x) => v = x,
            Err(_) => return 0.0,
        }
    }
    v.as_f64()
        .or_else(|_| v.as_i64().map(|i| i as f64))
        .unwrap_or(0.0)
}

/// Difference of one `/metrics` counter across two scrapes.
pub fn delta(a: &Value, b: &Value, path: &[&str]) -> f64 {
    metric(b, path) - metric(a, path)
}

fn scrape(c: &mut Client) -> Result<Value, String> {
    let conn = c.conn().ok_or("generator connection lost")?;
    let r = conn.get("/metrics").map_err(|e| format!("/metrics: {e}"))?;
    r.json()
}

/// Spawn and set up one server: upload the graph, then send the plan's
/// registrations and warm-up on a connection that is closed afterwards.
/// The first connection arrives `arrive` after `serve` is listening.
/// Returns the server and the upload's graph version.
fn set_up(
    bin: &Path,
    plan: &Plan,
    data_dir: Option<&Path>,
    arrive: Duration,
) -> Result<(Serve, u64), String> {
    if let Some(d) = data_dir {
        let _ = std::fs::remove_dir_all(d);
        std::fs::create_dir_all(d).map_err(|e| format!("{}: {e}", d.display()))?;
    }
    let serve = Serve::spawn(bin, WORKERS, data_dir)?;
    std::thread::sleep(arrive);
    let mut warm = Conn::open(serve.addr).map_err(|e| e.to_string())?;
    let added = expect_2xx(&mut warm, &plan.upload, "upload")?;
    let v0 = crate::verify::version_of(&added).ok_or("upload without graph_version")?;
    for (i, req) in plan.setup_reqs.iter().enumerate() {
        expect_2xx(&mut warm, req, &format!("set-up request {i}"))?;
    }
    // close the warm-up connection: left open, it would pin a worker
    drop(warm);
    Ok((serve, v0))
}

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// While alive, the calling thread and every thread and process it
/// starts run on one CPU; dropping it restores the CPUs the thread had.
/// On a shared-host VM, a request handed to an idle vCPU waits for the
/// host to wake that vCPU, for as long as the host's load dictates; on
/// one CPU the hand-off is a context switch (measurements in
/// `README.md`).
struct OneCpu {
    saved: [u64; 16],
}

impl OneCpu {
    /// Pin to the highest-numbered CPU the thread may use; `None` when
    /// the affinity mask cannot be read or set.
    fn pin() -> Option<OneCpu> {
        // a 1024-bit mask, the size of glibc's `cpu_set_t`
        let mut saved = [0u64; 16];
        let size = std::mem::size_of_val(&saved);
        // SAFETY: the kernel writes at most `size` bytes into `saved`, a
        // live local array of that size; pid 0 is the calling thread
        if unsafe { sched_getaffinity(0, size, saved.as_mut_ptr()) } != 0 {
            return None;
        }
        let cpu = (0..1024)
            .rev()
            .find(|&c| saved[c / 64] >> (c % 64) & 1 == 1)?;
        let mut one = [0u64; 16];
        one[cpu / 64] = 1 << (cpu % 64);
        // SAFETY: the kernel reads `size` bytes of `one`, a live local
        // array of that size
        let set = unsafe { sched_setaffinity(0, size, one.as_ptr()) };
        (set == 0).then_some(OneCpu { saved })
    }
}

impl Drop for OneCpu {
    fn drop(&mut self) {
        // SAFETY: the kernel reads `size_of_val(&self.saved)` bytes of
        // `self.saved`, which this guard owns
        unsafe { sched_setaffinity(0, std::mem::size_of_val(&self.saved), self.saved.as_ptr()) };
    }
}

/// Run the plan against a fresh `serve` (`setups` set-ups, the last one
/// kept for the timed phases).
pub fn run(bin: &Path, run_dir: &Path, plan: &Plan, setups: usize) -> Result<TcpRun, String> {
    let _pinned = if plan.one_cpu {
        Some(OneCpu::pin().ok_or("cannot pin the run to one CPU")?)
    } else {
        None
    };
    let mut setup_s = Vec::new();
    // a fresh data dir per set-up: deleting the last one first would
    // charge its file-system journal work to the next set-up
    // `serve`'s acceptor polls every 25 ms, so a client that always
    // connects at the same delay after start-up always meets the same
    // phase of that poll, and set-up time jumps between two modes from
    // run to run. Arriving at a seeded random phase, not counted in the
    // time, makes the median of the set-ups average over the poll.
    let mut phase = crate::inputs::rng(plan.seed, 13);
    let (serve, v0, data_dir) = loop {
        let data_dir: Option<PathBuf> = plan
            .durable
            .then(|| run_dir.join(format!("data{}", setup_s.len())));
        let arrive = Duration::from_micros(phase.gen_range(0..25_000));
        let t = Instant::now();
        let (serve, v0) = set_up(bin, plan, data_dir.as_deref(), arrive)?;
        setup_s.push((t.elapsed() - arrive).as_secs_f64());
        if setup_s.len() >= setups.max(1) {
            break (serve, v0, data_dir);
        }
        serve.stop();
    };
    let sub = if plan.subscribe {
        Some(SubReader::open(serve.addr, crate::inputs::GRAPH).map_err(|e| e.to_string())?)
    } else {
        None
    };

    let frames = Arc::new(Mutex::new(Vec::new()));
    let collector = sub.map(|sub| {
        let sink = Arc::clone(&frames);
        let stop = sub.stop.clone_handle();
        let h = std::thread::spawn(move || sub.collect_into(&sink));
        (stop, h)
    });

    let held = 1 + usize::from(collector.is_some());
    let mut clients = vec![Client::new(serve.addr)?];
    // wait until the server has seen the warm-up connection close
    let until = Instant::now() + Duration::from_secs(5);
    loop {
        let m = scrape(&mut clients[0])?;
        let live = metric(&m, &["connections", "opened"]) - metric(&m, &["connections", "closed"]);
        if live as usize <= held {
            break;
        }
        if Instant::now() > until {
            return Err(format!("{live} connections still open before timing"));
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    for _ in 1..plan.conns {
        let mut c = Client::new(serve.addr)?;
        let conn = c.conn().expect("fresh connection");
        if !conn.get("/healthz").map_err(|e| e.to_string())?.ok() {
            return Err("healthz failed".into());
        }
        clients.push(c);
    }
    let disk_before = data_dir.as_deref().map_or(0, dir_bytes);
    let m0 = scrape(&mut clients[0])?;

    // open loop: one thread per connection, one schedule each
    let open_cpu0 = serve.cpu_s();
    let t0 = Instant::now() + Duration::from_millis(5);
    let mut open: Vec<Sample> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(&plan.open)
            .map(|(c, sched)| {
                s.spawn(move || {
                    let ops: Vec<_> = sched
                        .iter()
                        .map(|&(off, kind, item)| (off, plan.req(kind, item)))
                        .collect();
                    open_loop(c, &ops, t0)
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("generator thread"))
            .collect()
    });
    open.sort_by_key(|s| s.due);
    let disk_after_open = data_dir.as_deref().map_or(0, dir_bytes);

    let cpu0 = serve.cpu_s();
    let open_cpu_s = cpu0 - open_cpu0;
    let c0 = Instant::now();
    let until = c0 + Duration::from_secs_f64(plan.closed_secs);
    let mut closed: Vec<Sample> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(&plan.closed)
            .map(|(c, seq)| {
                s.spawn(move || {
                    closed_loop(c, until, |i| seq.get(i).map(|&(k, it)| plan.req(k, it)))
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("generator thread"))
            .collect()
    });
    closed.sort_by_key(|s| s.sent);
    let closed_wall_s = closed
        .iter()
        .map(|s| s.done)
        .max()
        .map_or(0.0, |d| (d - c0).as_secs_f64());

    let closed_cpu_s = serve.cpu_s() - cpu0;
    let m1 = scrape(&mut clients[0])?;
    let rss_mb = serve.peak_rss_mb();
    let reconnects = clients.iter().map(|c| c.reconnects).sum();
    drop(clients);

    let frames = match collector {
        Some((stop, h)) => {
            // every acknowledged update's frame was queued before its
            // reply; give the push loop a moment to deliver the tail
            let want = open
                .iter()
                .chain(&closed)
                .filter(|s| s.kind == crate::load::Kind::Update && s.status == 200)
                .count();
            let until = Instant::now() + Duration::from_secs(2);
            while frames.lock().expect("frames").len() < want && Instant::now() < until {
                std::thread::sleep(Duration::from_millis(2));
            }
            stop.stop();
            let _ = h.join();
            std::mem::take(&mut *frames.lock().expect("frames"))
        }
        None => Vec::new(),
    };
    serve.stop();
    if let Some(d) = &data_dir {
        let _ = std::fs::remove_dir_all(d);
    }
    Ok(TcpRun {
        setup_s,
        open,
        closed,
        closed_wall_s,
        frames,
        m0,
        m1,
        reconnects,
        rss_mb,
        open_cpu_s,
        closed_cpu_s,
        disk_before,
        disk_after_open,
        v0,
    })
}
