//! The load generator's side of the wire: a one-attempt HTTP/1.1
//! client, the `/subscribe` frame reader and the `serve` child process.
//!
//! The client is deliberately independent of `expfinder_server::client`:
//! it never retries (a shed `503` or a dropped connection is reported as
//! the failure it is, not hidden behind a backoff), and its framing code
//! is not the server's, so a change to the server's HTTP layer cannot
//! speed up the generator that measures it.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Per-request socket timeout: far above any healthy latency, it only
/// bounds a wedged run.
pub const IO_TIMEOUT: Duration = Duration::from_secs(30);

/// A complete request, encoded once before it is timed.
pub fn request(method: &str, path: &str, body: &str) -> Vec<u8> {
    let mut out = format!(
        "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    out.extend_from_slice(body.as_bytes());
    out
}

/// One HTTP response.
pub struct Reply {
    pub status: u16,
    pub body: Vec<u8>,
}

impl Reply {
    pub fn ok(&self) -> bool {
        (200..300).contains(&self.status)
    }

    pub fn json(&self) -> Result<expfinder_graph::json::Value, String> {
        let text = std::str::from_utf8(&self.body).map_err(|_| "non-utf8 body".to_owned())?;
        expfinder_graph::json::parse(text).map_err(|e| format!("bad json: {e}"))
    }
}

/// One keep-alive connection.
pub struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    pub fn open(addr: SocketAddr) -> io::Result<Conn> {
        let s = TcpStream::connect_timeout(&addr, IO_TIMEOUT)?;
        s.set_nodelay(true)?;
        s.set_read_timeout(Some(IO_TIMEOUT))?;
        s.set_write_timeout(Some(IO_TIMEOUT))?;
        Ok(Conn {
            reader: BufReader::with_capacity(64 * 1024, s.try_clone()?),
            writer: s,
        })
    }

    /// Send one request and read its reply: exactly one attempt.
    pub fn call(&mut self, req: &[u8]) -> io::Result<Reply> {
        self.writer.write_all(req)?;
        self.read_reply()
    }

    /// `GET` convenience for probes and `/metrics` scrapes.
    pub fn get(&mut self, path: &str) -> io::Result<Reply> {
        let req = format!("GET {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: 0\r\n\r\n");
        self.call(req.as_bytes())
    }

    fn read_reply(&mut self) -> io::Result<Reply> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "closed"));
        }
        let status: u16 = line
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad(format!("bad status line {line:?}")))?;
        let mut len = 0usize;
        loop {
            line.clear();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "eof in head"));
            }
            let l = line.trim_end();
            if l.is_empty() {
                break;
            }
            if let Some((k, v)) = l.split_once(':') {
                if k.eq_ignore_ascii_case("content-length") {
                    len = v.trim().parse().map_err(|_| bad("bad content-length"))?;
                }
            }
        }
        let mut body = vec![0u8; len];
        self.reader.read_exact(&mut body)?;
        Ok(Reply { status, body })
    }
}

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// The receiving end of a `/subscribe` stream, read on its own thread.
pub struct SubReader {
    reader: BufReader<TcpStream>,
    /// A handle for [`SubStop::stop`] to shut the socket down.
    pub stop: SubStop,
}

/// Ends a subscription from another thread.
pub struct SubStop(TcpStream);

impl SubStop {
    pub fn clone_handle(&self) -> SubStop {
        SubStop(self.0.try_clone().expect("clone subscription socket"))
    }

    pub fn stop(&self) {
        let _ = self.0.shutdown(Shutdown::Both);
    }
}

impl SubReader {
    /// Open the stream and consume the head plus the `hello` frame.
    pub fn open(addr: SocketAddr, graph: &str) -> io::Result<SubReader> {
        let s = TcpStream::connect_timeout(&addr, IO_TIMEOUT)?;
        s.set_nodelay(true)?;
        s.set_read_timeout(Some(IO_TIMEOUT))?;
        let mut w = s.try_clone()?;
        w.write_all(&request(
            "POST",
            &format!("/graphs/{graph}/subscribe"),
            "{}",
        ))?;
        let mut sub = SubReader {
            reader: BufReader::new(s.try_clone()?),
            stop: SubStop(s),
        };
        let mut line = String::new();
        sub.reader.read_line(&mut line)?;
        if !line.contains(" 200 ") {
            return Err(bad(format!("subscribe refused: {line:?}")));
        }
        loop {
            line.clear();
            sub.reader.read_line(&mut line)?;
            if line.trim_end().is_empty() {
                break;
            }
        }
        let hello = sub.next_frame()?.ok_or_else(|| bad("no hello frame"))?;
        if !String::from_utf8_lossy(&hello).contains("\"hello\"") {
            return Err(bad("first frame is not hello"));
        }
        Ok(sub)
    }

    /// The next frame's bytes (without the trailing newline), or `None`
    /// once the stream ended.
    pub fn next_frame(&mut self) -> io::Result<Option<Vec<u8>>> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Ok(None);
        }
        let size = usize::from_str_radix(line.trim(), 16).map_err(|_| bad("bad chunk size"))?;
        if size == 0 {
            return Ok(None);
        }
        let mut data = vec![0u8; size + 2];
        self.reader.read_exact(&mut data)?;
        data.truncate(size);
        while data.last() == Some(&b'\n') {
            data.pop();
        }
        Ok(Some(data))
    }

    /// Read frames until the stream ends or is stopped, stamping each
    /// with its arrival time.
    pub fn collect_into(mut self, sink: &Mutex<Vec<(Instant, Vec<u8>)>>) {
        while let Ok(Some(f)) = self.next_frame() {
            let at = Instant::now();
            sink.lock().expect("frame sink").push((at, f));
        }
    }
}

/// The `serve` child process.
pub struct Serve {
    child: Child,
    stdin: Option<ChildStdin>,
    pub addr: SocketAddr,
}

impl Serve {
    /// Spawn `serve` on an ephemeral port and wait for its
    /// `listening on` line.
    pub fn spawn(bin: &Path, workers: usize, data_dir: Option<&Path>) -> Result<Serve, String> {
        let mut cmd = Command::new(bin);
        cmd.args(["--addr", "127.0.0.1:0", "--workers", &workers.to_string()]);
        if let Some(d) = data_dir {
            cmd.arg("--data-dir").arg(d);
        }
        let mut child = cmd
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let stdin = child.stdin.take();
        let mut out = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut line = String::new();
        let addr = loop {
            line.clear();
            match out.read_line(&mut line) {
                Ok(0) | Err(_) => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err("serve exited before listening".into());
                }
                Ok(_) => {}
            }
            if let Some(a) = line.trim().strip_prefix("listening on ") {
                break a.parse().map_err(|e| format!("bad address {a:?}: {e}"))?;
            }
        };
        Ok(Serve { child, stdin, addr })
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// CPU time (user + system) the process has used, in seconds.
    pub fn cpu_s(&self) -> f64 {
        let stat =
            std::fs::read_to_string(format!("/proc/{}/stat", self.pid())).unwrap_or_default();
        // fields after the parenthesised command name; utime and stime
        // are the 12th and 13th of those, in clock ticks (100 Hz)
        let rest = stat.rsplit_once(") ").map_or("", |(_, r)| r);
        let f: Vec<f64> = rest.split(' ').map(|x| x.parse().unwrap_or(0.0)).collect();
        if f.len() < 13 {
            return 0.0;
        }
        (f[11] + f[12]) / 100.0
    }

    /// Peak resident set (`VmHWM`) in MiB.
    pub fn peak_rss_mb(&self) -> f64 {
        let status =
            std::fs::read_to_string(format!("/proc/{}/status", self.pid())).unwrap_or_default();
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map_or(0.0, |kb| kb / 1024.0)
    }

    /// Close stdin (the drain signal) and wait for the exit; kill after
    /// ten seconds.
    pub fn stop(mut self) {
        self.stdin.take();
        let until = Instant::now() + Duration::from_secs(10);
        while Instant::now() < until {
            if let Ok(Some(_)) = self.child.try_wait() {
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Serve {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}
