//! A tiny blocking HTTP/JSON client for the wire protocol.
//!
//! Used by the integration tests, the shell's `connect` command, the
//! `serve_smoke` CI binary and the `bench_serve` load generator. One
//! client holds one keep-alive connection and re-establishes it
//! transparently when the server (or an idle timeout) closed it between
//! requests.
//!
//! Requests whose replay is safe — reads, queries/batches, edge updates
//! (insert/delete are idempotent) and shutdown — are retried on
//! transport failures (connect refused, keep-alive race, mid-response
//! drop) and on the server's load-shedding `503`, up to a small capped
//! attempt budget with jittered exponential backoff. A `Retry-After`
//! header on the 503 overrides the backoff schedule (capped, so a
//! hostile or confused server cannot park the client for minutes). The
//! common keep-alive race — the server closed a *reused* connection
//! while the request was in flight — retries immediately on a fresh
//! connection, as before. `POST /graphs` and `/register` are *not*
//! replayed — a replay after a server-side success would turn into a
//! spurious 409 — so those surface the transport error instead.

use crate::http::{self, HttpError};
use crate::wire;
use expfinder_graph::json::Value;
use expfinder_graph::{DiGraph, EdgeUpdate};
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Client-side failure.
#[derive(Debug)]
pub enum ClientError {
    /// Transport or framing problem.
    Transport(String),
    /// The server answered with an error status; the decoded
    /// `error.message` is included when present.
    Status { status: u16, message: String },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Transport(m) => write!(f, "transport error: {m}"),
            ClientError::Status { status, message } => {
                write!(f, "server returned {status}: {message}")
            }
        }
    }
}

impl std::error::Error for ClientError {}

/// One decoded response: status plus parsed JSON body.
#[derive(Debug)]
pub struct ApiResponse {
    pub status: u16,
    pub body: Value,
    /// Decoded `Retry-After` header (seconds), when the server sent one
    /// — the load-shedding 503 path does.
    pub retry_after: Option<u64>,
}

impl ApiResponse {
    /// Treat non-2xx as [`ClientError::Status`], extracting the wire
    /// error message.
    pub fn into_ok(self) -> Result<Value, ClientError> {
        if (200..300).contains(&self.status) {
            Ok(self.body)
        } else {
            let message = self
                .body
                .field("error")
                .and_then(|e| e.field("message"))
                .and_then(|m| m.as_str())
                .map(str::to_owned)
                .unwrap_or_else(|_| "(no error body)".to_owned());
            Err(ClientError::Status {
                status: self.status,
                message,
            })
        }
    }
}

/// Blocking wire-protocol client with one keep-alive connection.
pub struct Client {
    addr: SocketAddr,
    stream: Option<TcpStream>,
    timeout: Duration,
}

impl Client {
    /// Create a client for `addr`; the connection is established lazily.
    pub fn new(addr: SocketAddr) -> Client {
        Client {
            addr,
            stream: None,
            timeout: Duration::from_secs(30),
        }
    }

    /// Parse-and-connect convenience for shell-style `host:port` input.
    pub fn for_addr(addr: &str) -> Result<Client, ClientError> {
        let addr: SocketAddr = addr
            .parse()
            .map_err(|e| ClientError::Transport(format!("bad address {addr:?}: {e}")))?;
        Ok(Client::new(addr))
    }

    /// Per-request timeout (connect, send and full response read).
    pub fn set_timeout(&mut self, timeout: Duration) {
        self.timeout = timeout;
    }

    fn connect(&mut self) -> Result<&mut TcpStream, ClientError> {
        if self.stream.is_none() {
            let stream = TcpStream::connect_timeout(&self.addr, self.timeout)
                .map_err(|e| ClientError::Transport(format!("connect {}: {e}", self.addr)))?;
            let _ = stream.set_nodelay(true);
            stream
                .set_read_timeout(Some(self.timeout))
                .map_err(|e| ClientError::Transport(e.to_string()))?;
            stream
                .set_write_timeout(Some(self.timeout))
                .map_err(|e| ClientError::Transport(e.to_string()))?;
            self.stream = Some(stream);
        }
        Ok(self.stream.as_mut().expect("just set"))
    }

    /// Replay safety of one wire operation (see the module docs): the
    /// keep-alive retry must not repeat a request whose second execution
    /// can fail although the first succeeded.
    fn replay_safe(method: &str, path: &str) -> bool {
        method == "GET"
            || path.ends_with("/query")
            || path.ends_with("/batch")
            || path.ends_with("/updates")
            || path == "/admin/shutdown"
    }

    /// Total tries per replay-safe request (first attempt included).
    const MAX_ATTEMPTS: u32 = 4;
    /// Longest `Retry-After` the client will actually honour.
    const RETRY_AFTER_CAP: Duration = Duration::from_secs(2);

    /// Jittered exponential backoff before retry `attempt` (0-based):
    /// 50ms · 2^attempt, capped at 1s, plus a deterministic 0–25ms
    /// jitter derived from the attempt and path so a fleet of clients
    /// shed at the same instant does not reconverge in lockstep.
    fn backoff_delay(attempt: u32, path: &str) -> Duration {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        (attempt, path).hash(&mut h);
        let base = Duration::from_millis(50 * (1u64 << attempt.min(10)));
        base.min(Duration::from_secs(1)) + Duration::from_millis(h.finish() % 25)
    }

    /// Issue one request. Replay-safe operations retry transport
    /// failures and load-shedding 503s with jittered exponential
    /// backoff (see the module docs), honouring a `Retry-After` header
    /// when present; everything else gets exactly one attempt.
    ///
    /// The whole retry loop runs inside the caller's per-request timeout:
    /// a retry (or a `Retry-After` wait) that would land past the
    /// remaining budget is never issued — the last response or error is
    /// returned instead, so a caller with a 50ms budget is back in 50ms,
    /// not parked on a backoff schedule it never asked for.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&Value>,
    ) -> Result<ApiResponse, ClientError> {
        let replayable = Self::replay_safe(method, path);
        let started = Instant::now();
        let budget = self.timeout;
        let mut attempt: u32 = 0;
        loop {
            let reused = self.stream.is_some();
            match self.request_once(method, path, body) {
                Ok(resp)
                    if resp.status == 503 && replayable && attempt + 1 < Self::MAX_ATTEMPTS =>
                {
                    // shed by the server: come back when it said to (or
                    // on the backoff schedule when it did not say) —
                    // unless that lands past the caller's budget, in
                    // which case the shed response is the final answer
                    let delay = resp
                        .retry_after
                        .map(|s| Duration::from_secs(s).min(Self::RETRY_AFTER_CAP))
                        .unwrap_or_else(|| Self::backoff_delay(attempt, path));
                    if started.elapsed() + delay >= budget {
                        return Ok(resp);
                    }
                    std::thread::sleep(delay);
                    attempt += 1;
                }
                Ok(resp) => return Ok(resp),
                Err(e) => {
                    self.stream = None;
                    let transport = matches!(e, ClientError::Transport(_));
                    if !(transport && replayable && attempt + 1 < Self::MAX_ATTEMPTS) {
                        return Err(e);
                    }
                    // the keep-alive race (server closed a reused
                    // connection under us) retries immediately on a
                    // fresh connection; real failures back off
                    let delay = if reused && attempt == 0 {
                        Duration::ZERO
                    } else {
                        Self::backoff_delay(attempt, path)
                    };
                    if started.elapsed() + delay >= budget {
                        return Err(e);
                    }
                    if !delay.is_zero() {
                        std::thread::sleep(delay);
                    }
                    attempt += 1;
                }
            }
        }
    }

    fn request_once(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&Value>,
    ) -> Result<ApiResponse, ClientError> {
        let timeout = self.timeout;
        let addr = self.addr;
        let stream = self.connect()?;
        let payload = body.map(|v| v.to_string_compact()).unwrap_or_default();
        let mut head = format!("{method} {path} HTTP/1.1\r\nHost: {addr}\r\n");
        if body.is_some() {
            head.push_str("Content-Type: application/json\r\n");
        }
        head.push_str(&format!(
            "Content-Length: {}\r\nConnection: keep-alive\r\n\r\n",
            payload.len()
        ));
        // head and body in one write: the socket is `TCP_NODELAY`, so two
        // writes would be two segments
        head.push_str(&payload);
        stream
            .write_all(head.as_bytes())
            .and_then(|()| stream.flush())
            .map_err(|e| ClientError::Transport(format!("send: {e}")))?;

        let mut reader = BufReader::new(
            stream
                .try_clone()
                .map_err(|e| ClientError::Transport(e.to_string()))?,
        );
        let (status_line, headers) = match http::read_head(&mut reader, timeout) {
            Ok(head) => head,
            Err(HttpError::Closed | HttpError::Idle) => {
                return Err(ClientError::Transport("connection closed by server".into()))
            }
            Err(e) => return Err(ClientError::Transport(e.to_string())),
        };
        // "HTTP/1.1 200 OK"
        let status: u16 = status_line
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| ClientError::Transport(format!("bad status line {status_line:?}")))?;
        let body_bytes = http::read_body(&mut reader, &headers, usize::MAX, timeout)
            .map_err(|e| ClientError::Transport(e.to_string()))?;
        let retry_after =
            http::header_of(&headers, "retry-after").and_then(|v| v.trim().parse::<u64>().ok());
        if http::header_of(&headers, "connection").is_some_and(|c| c.eq_ignore_ascii_case("close"))
        {
            self.stream = None;
        }
        let body = if body_bytes.is_empty() {
            Value::Null
        } else {
            let text = std::str::from_utf8(&body_bytes)
                .map_err(|_| ClientError::Transport("non-utf8 response body".into()))?;
            expfinder_graph::json::parse(text)
                .map_err(|e| ClientError::Transport(format!("bad response json: {e}")))?
        };
        Ok(ApiResponse {
            status,
            body,
            retry_after,
        })
    }

    // ------------------------- typed endpoints -------------------------

    /// `GET /healthz`.
    pub fn health(&mut self) -> Result<Value, ClientError> {
        self.request("GET", "/healthz", None)?.into_ok()
    }

    /// `GET /metrics`.
    pub fn metrics(&mut self) -> Result<Value, ClientError> {
        self.request("GET", "/metrics", None)?.into_ok()
    }

    /// `GET /graphs`.
    pub fn graphs(&mut self) -> Result<Value, ClientError> {
        self.request("GET", "/graphs", None)?.into_ok()
    }

    /// `POST /graphs`: upload a graph under `name`.
    pub fn add_graph(&mut self, name: &str, g: &DiGraph) -> Result<Value, ClientError> {
        let body = wire::encode_add_graph(name, g);
        self.request("POST", "/graphs", Some(&body))?.into_ok()
    }

    /// `POST /graphs/{graph}/query`.
    pub fn query(&mut self, graph: &str, body: &Value) -> Result<Value, ClientError> {
        self.request("POST", &format!("/graphs/{graph}/query"), Some(body))?
            .into_ok()
    }

    /// `POST /graphs/{graph}/batch` with raw query bodies.
    pub fn batch(&mut self, graph: &str, queries: Vec<Value>) -> Result<Value, ClientError> {
        let body = crate::metrics::obj(vec![("queries", Value::Array(queries))]);
        self.request("POST", &format!("/graphs/{graph}/batch"), Some(&body))?
            .into_ok()
    }

    /// `POST /graphs/{graph}/updates`.
    pub fn updates(&mut self, graph: &str, ups: &[EdgeUpdate]) -> Result<Value, ClientError> {
        let body = crate::metrics::obj(vec![(
            "updates",
            Value::Array(ups.iter().map(|&u| wire::encode_update(u)).collect()),
        )]);
        self.request("POST", &format!("/graphs/{graph}/updates"), Some(&body))?
            .into_ok()
    }

    /// `POST /graphs/{graph}/register`.
    pub fn register(&mut self, graph: &str, qname: &str, dsl: &str) -> Result<Value, ClientError> {
        let body = crate::metrics::obj(vec![
            ("name", Value::Str(qname.to_owned())),
            ("pattern", Value::Str(dsl.to_owned())),
        ]);
        self.request("POST", &format!("/graphs/{graph}/register"), Some(&body))?
            .into_ok()
    }

    /// `POST /admin/shutdown` (requires the server to allow it).
    pub fn shutdown_server(&mut self) -> Result<Value, ClientError> {
        self.request("POST", "/admin/shutdown", None)?.into_ok()
    }

    /// `POST /graphs/{graph}/subscribe`: open a push stream of ΔM
    /// frames. `queries` narrows the stream to those registered-query
    /// names; `None` subscribes to all of them. The stream lives on its
    /// own connection — this client's keep-alive connection stays free
    /// for requests, so one `Client` can subscribe and then drive
    /// updates that arrive back as pushed frames.
    ///
    /// ```
    /// use expfinder_engine::ExpFinder;
    /// use expfinder_server::{client::Client, Server, ServerConfig};
    /// use std::sync::Arc;
    ///
    /// let engine = Arc::new(ExpFinder::default());
    /// engine
    ///     .add_graph("fig1", expfinder_graph::fixtures::collaboration_fig1().graph)
    ///     .unwrap();
    /// // a live subscription pins one worker; keep headroom beyond it
    /// let config = ServerConfig { workers: 4, ..ServerConfig::default() };
    /// let handle = Server::bind(engine, "127.0.0.1:0", config).unwrap().spawn();
    ///
    /// let mut client = Client::new(handle.addr());
    /// client
    ///     .register("fig1", "team", "node sa* where label = \"SA\";")
    ///     .unwrap();
    /// let mut sub = client.subscribe("fig1", None).unwrap();
    /// let hello = sub.next_frame().unwrap().unwrap();
    /// assert_eq!(hello.field("frame").unwrap().as_str().unwrap(), "hello");
    ///
    /// // an update committed elsewhere arrives as a pushed frame, its
    /// // report byte-identical to the /updates response
    /// use expfinder_graph::{EdgeUpdate, NodeId};
    /// let report = client
    ///     .updates("fig1", &[EdgeUpdate::Insert(NodeId(8), NodeId(3))])
    ///     .unwrap();
    /// let frame = sub.next_frame().unwrap().unwrap();
    /// assert_eq!(frame.field("frame").unwrap().as_str().unwrap(), "update");
    /// assert_eq!(
    ///     frame.field("report").unwrap().to_string_compact(),
    ///     report.to_string_compact(),
    /// );
    ///
    /// handle.shutdown(); // pushes a terminal bye frame and ends the stream
    /// ```
    pub fn subscribe(
        &mut self,
        graph: &str,
        queries: Option<&[&str]>,
    ) -> Result<Subscription, ClientError> {
        let stream = TcpStream::connect_timeout(&self.addr, self.timeout)
            .map_err(|e| ClientError::Transport(format!("connect {}: {e}", self.addr)))?;
        let _ = stream.set_nodelay(true);
        // short socket timeout: read_chunk surfaces quiet periods as
        // Idle, and Subscription::next_frame polls up to its deadline
        stream
            .set_read_timeout(Some(Duration::from_millis(25)))
            .map_err(|e| ClientError::Transport(e.to_string()))?;
        stream
            .set_write_timeout(Some(self.timeout))
            .map_err(|e| ClientError::Transport(e.to_string()))?;
        let payload = queries
            .map(|qs| {
                crate::metrics::obj(vec![(
                    "queries",
                    Value::Array(qs.iter().map(|&q| Value::Str(q.to_owned())).collect()),
                )])
                .to_string_compact()
            })
            .unwrap_or_default();
        let mut w = stream
            .try_clone()
            .map_err(|e| ClientError::Transport(e.to_string()))?;
        let req = format!(
            "POST /graphs/{graph}/subscribe HTTP/1.1\r\nHost: {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{payload}",
            self.addr,
            payload.len()
        );
        w.write_all(req.as_bytes())
            .and_then(|()| w.flush())
            .map_err(|e| ClientError::Transport(format!("send: {e}")))?;

        let mut reader = BufReader::new(stream);
        let started = Instant::now();
        let (status_line, headers) = loop {
            match http::read_head(&mut reader, self.timeout) {
                Ok(head) => break head,
                Err(HttpError::Idle) => {
                    if started.elapsed() >= self.timeout {
                        return Err(ClientError::Transport(
                            "timed out waiting for the subscription head".into(),
                        ));
                    }
                }
                Err(e) => return Err(ClientError::Transport(e.to_string())),
            }
        };
        let status: u16 = status_line
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| ClientError::Transport(format!("bad status line {status_line:?}")))?;
        if status != 200 {
            // refusals are ordinary Content-Length error bodies
            let body = http::read_body(&mut reader, &headers, usize::MAX, self.timeout)
                .map_err(|e| ClientError::Transport(e.to_string()))?;
            let message = std::str::from_utf8(&body)
                .ok()
                .and_then(|t| expfinder_graph::json::parse(t).ok())
                .and_then(|v| {
                    v.field("error")
                        .and_then(|e| e.field("message"))
                        .and_then(|m| m.as_str())
                        .map(str::to_owned)
                        .ok()
                })
                .unwrap_or_else(|| "(no error body)".to_owned());
            return Err(ClientError::Status { status, message });
        }
        if !http::header_of(&headers, "transfer-encoding")
            .is_some_and(|v| v.eq_ignore_ascii_case("chunked"))
        {
            return Err(ClientError::Transport(
                "subscription response is not chunked".into(),
            ));
        }
        Ok(Subscription {
            reader,
            timeout: self.timeout,
        })
    }
}

/// The receiving end of one `/subscribe` stream: call
/// [`Subscription::next_frame`] repeatedly. The first frame is always
/// `hello`; `update` frames follow as batches commit; `bye` / `error`
/// end the stream (followed by `Ok(None)` once the terminal chunk is
/// read).
pub struct Subscription {
    reader: BufReader<TcpStream>,
    timeout: Duration,
}

impl std::fmt::Debug for Subscription {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Subscription")
            .field("timeout", &self.timeout)
            .finish_non_exhaustive()
    }
}

impl Subscription {
    /// How long [`next_frame`](Subscription::next_frame) waits for the
    /// next pushed frame before giving up.
    pub fn set_timeout(&mut self, timeout: Duration) {
        self.timeout = timeout;
    }

    /// Block (up to the timeout) for the next frame. Returns `Ok(None)`
    /// when the server terminated the stream cleanly; a quiet stream —
    /// no update committed within the timeout — is a
    /// [`ClientError::Transport`] timeout, so callers distinguish "ended"
    /// from "nothing yet".
    pub fn next_frame(&mut self) -> Result<Option<Value>, ClientError> {
        let started = Instant::now();
        loop {
            match http::read_chunk(&mut self.reader, self.timeout) {
                Ok(None) => return Ok(None),
                Ok(Some(bytes)) => {
                    let text = std::str::from_utf8(&bytes)
                        .map_err(|_| ClientError::Transport("non-utf8 frame".into()))?;
                    return expfinder_graph::json::parse(text.trim_end())
                        .map(Some)
                        .map_err(|e| ClientError::Transport(format!("bad frame json: {e}")));
                }
                Err(HttpError::Idle) => {
                    if started.elapsed() >= self.timeout {
                        return Err(ClientError::Transport(
                            "timed out waiting for a frame".into(),
                        ));
                    }
                }
                Err(HttpError::Closed) => {
                    return Err(ClientError::Transport(
                        "connection closed mid-subscription".into(),
                    ))
                }
                Err(e) => return Err(ClientError::Transport(e.to_string())),
            }
        }
    }
}

/// Build a query body for [`Client::query`] / [`Client::batch`].
pub fn query_body(dsl: &str, top_k: Option<usize>, route: &str, include_matches: bool) -> Value {
    let mut fields = vec![
        ("pattern", Value::Str(dsl.to_owned())),
        ("route", Value::Str(route.to_owned())),
        ("include_matches", Value::Bool(include_matches)),
    ];
    if let Some(k) = top_k {
        fields.push(("top_k", Value::Int(k as i64)));
    }
    crate::metrics::obj(fields)
}

/// [`query_body`] with an explicit end-to-end evaluation budget
/// (`deadline_ms`): the server answers 408 with partial stats when the
/// budget fires mid-evaluation.
pub fn query_body_deadline(
    dsl: &str,
    top_k: Option<usize>,
    route: &str,
    include_matches: bool,
    deadline_ms: u64,
) -> Value {
    let mut body = query_body(dsl, top_k, route, include_matches);
    if let Value::Object(o) = &mut body {
        o.insert("deadline_ms".to_owned(), Value::Int(deadline_ms as i64));
    }
    body
}
