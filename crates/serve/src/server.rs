//! The `glove serve` daemon: TCP accept loop, per-connection threads, and
//! the tenant registry.
//!
//! ### Layering
//!
//! One thread per connection reads frames and owns at most one open
//! [`Session`] at a time (sequential sessions on one connection are fine —
//! `FLUSH` then another `HELLO`). The session's engine worker is a second
//! thread, and from the first closed window until the session flushes the
//! worker's stream pipeline runs a third, its stage thread, which
//! anonymizes windows while the worker ingests. `EPOCH` pushes from the
//! worker and replies from the connection thread share the socket behind
//! one mutex. A connection that ends leaves nothing behind: its registry
//! entry is removed and its thread is joined at the next accept. Tenant
//! names are unique for the daemon's lifetime: a second `HELLO` for a
//! finished tenant is `tenant-exists` — its epoch directory is a durable
//! record, never silently overwritten.
//!
//! ### Graceful shutdown
//!
//! The workspace is offline and std-only, so there is no signal handling:
//! shutdown is protocol-driven. A `SHUTDOWN` frame (from any connection)
//! stops the accept loop, half-closes every open connection's socket, and
//! then joins every connection thread — each one finalizes its open
//! session on the way out, which drains the bounded queue and flushes the
//! engine's final partial window. Accepted (non-shed) events are therefore
//! never lost by a graceful shutdown; `tests/serve_e2e.rs`
//! (`graceful_shutdown_flushes_open_sessions`) asserts exactly that.

use crate::protocol::{read_frame, write_frame, ErrorCode, Frame};
use crate::session::{EpochWriteFn, Offer, PushSink, Session, SessionConfig};
use glove_core::api::RunReport;
use glove_core::policy::PolicyPlane;
use std::collections::{HashMap, HashSet};
use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Daemon-wide options (per-tenant configuration arrives in `HELLO`).
#[derive(Clone)]
pub struct ServeOptions {
    /// Root output directory; each tenant writes epochs and its
    /// `report.jsonl` under `<out_dir>/<tenant>/`. `None` disables
    /// persistence (wire-only operation).
    pub out_dir: Option<PathBuf>,
    /// Bounded per-tenant queue capacity, events.
    pub queue_events: usize,
    /// Backoff suggested to clients in `BUSY` replies, milliseconds.
    pub retry_ms: u32,
    /// The epoch persistence hook (the CLI injects its dataset writer so
    /// epoch files are byte-identical to `glove stream` output); `None`
    /// disables epoch files.
    pub epoch_writer: Option<Arc<EpochWriteFn>>,
    /// The initial policy plane handed to every tenant session
    /// ([`PolicyPlane::uniform`] = plain runs). Tenants retune their own
    /// copy mid-run via `RECONFIG`.
    pub policy: PolicyPlane,
}

impl Default for ServeOptions {
    fn default() -> Self {
        Self {
            out_dir: None,
            queue_events: 4096,
            retry_ms: 25,
            epoch_writer: None,
            policy: PolicyPlane::uniform(),
        }
    }
}

impl std::fmt::Debug for ServeOptions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeOptions")
            .field("out_dir", &self.out_dir)
            .field("queue_events", &self.queue_events)
            .field("retry_ms", &self.retry_ms)
            .field("epoch_writer", &self.epoch_writer.as_ref().map(|_| "fn"))
            .finish()
    }
}

/// What the daemon saw over its lifetime, returned by [`Server::run`].
#[derive(Debug, Default)]
pub struct ServerSummary {
    /// Final reports of every session that finished cleanly, in completion
    /// order.
    pub reports: Vec<RunReport>,
    /// Sessions that ended in an engine/sink error: `(tenant, cause)`.
    pub failures: Vec<(String, String)>,
}

impl ServerSummary {
    /// Total events shed across all finished sessions.
    pub fn shed_total(&self) -> u64 {
        self.reports
            .iter()
            .filter_map(|r| r.detail.as_stream())
            .map(|s| s.shed_events)
            .sum()
    }

    /// The finished report of `tenant`, if any.
    pub fn report_of(&self, tenant: &str) -> Option<&RunReport> {
        self.reports.iter().find(|r| r.dataset == tenant)
    }
}

struct ServerState {
    opts: ServeOptions,
    addr: SocketAddr,
    tenants: Mutex<HashSet<String>>,
    reports: Mutex<Vec<RunReport>>,
    failures: Mutex<Vec<(String, String)>>,
    /// A clone of every open connection's socket, by connection id, so
    /// shutdown can unblock its reader; removed when the connection ends.
    conns: Mutex<HashMap<u64, TcpStream>>,
    shutdown: AtomicBool,
}

impl ServerState {
    fn claim_tenant(&self, name: &str) -> bool {
        self.tenants
            .lock()
            .expect("tenant registry")
            .insert(name.to_string())
    }

    fn unclaim_tenant(&self, name: &str) {
        self.tenants.lock().expect("tenant registry").remove(name);
    }

    fn record(&self, result: Result<RunReport, (String, String)>) {
        match result {
            Ok(report) => self.reports.lock().expect("reports").push(report),
            Err(failure) => self.failures.lock().expect("failures").push(failure),
        }
    }

    /// Half-closes every registered connection socket so blocked readers
    /// see EOF and finalize their sessions.
    fn nudge_connections(&self) {
        for conn in self.conns.lock().expect("conn registry").values() {
            let _ = conn.shutdown(std::net::Shutdown::Both);
        }
    }

    /// Unblocks the accept loop after the shutdown flag is set.
    fn nudge_accept(&self) {
        let _ = TcpStream::connect(self.addr);
    }
}

/// The bound-but-not-yet-running daemon.
pub struct Server {
    listener: TcpListener,
    state: Arc<ServerState>,
}

/// A daemon running on its own thread (the in-process harness used by
/// tests and opbench; the CLI calls [`Server::run`] directly).
pub struct ServerHandle {
    addr: SocketAddr,
    thread: std::thread::JoinHandle<ServerSummary>,
}

impl ServerHandle {
    /// The daemon's bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Waits for the daemon to shut down and returns its summary.
    pub fn join(self) -> ServerSummary {
        self.thread.join().expect("server thread panicked")
    }
}

impl Server {
    /// Binds `addr` (use port 0 for an ephemeral port).
    pub fn bind(addr: impl ToSocketAddrs, opts: ServeOptions) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        Ok(Server {
            listener,
            state: Arc::new(ServerState {
                opts,
                addr,
                tenants: Mutex::new(HashSet::new()),
                reports: Mutex::new(Vec::new()),
                failures: Mutex::new(Vec::new()),
                conns: Mutex::new(HashMap::new()),
                shutdown: AtomicBool::new(false),
            }),
        })
    }

    /// The bound address (after `bind` with port 0, the actual port).
    pub fn local_addr(&self) -> SocketAddr {
        self.state.addr
    }

    /// Runs the accept loop until a `SHUTDOWN` frame arrives, then drains
    /// every session and returns the lifetime summary.
    pub fn run(self) -> ServerSummary {
        let mut joins: Vec<std::thread::JoinHandle<()>> = Vec::new();
        let mut failed_accepts = 0u32;
        for (id, incoming) in (0u64..).zip(self.listener.incoming()) {
            if self.state.shutdown.load(Ordering::SeqCst) {
                break;
            }
            // Join the threads of connections that have ended, so their
            // handles do not pile up over the daemon's lifetime.
            let (ended, open): (Vec<_>, Vec<_>) =
                joins.into_iter().partition(|handle| handle.is_finished());
            for handle in ended {
                let _ = handle.join();
            }
            joins = open;
            // A failed accept (EMFILE, say) would fail again at once, so
            // wait before the next one rather than spin.
            let stream = match incoming {
                Ok(s) => {
                    failed_accepts = 0;
                    s
                }
                Err(_) => {
                    std::thread::sleep(accept_backoff(failed_accepts));
                    failed_accepts = failed_accepts.saturating_add(1);
                    continue;
                }
            };
            if let Ok(clone) = stream.try_clone() {
                self.state
                    .conns
                    .lock()
                    .expect("conn registry")
                    .insert(id, clone);
            }
            let state = Arc::clone(&self.state);
            match std::thread::Builder::new()
                .name("glove-serve-conn".to_string())
                .spawn(move || {
                    handle_connection(stream, &state);
                    state.conns.lock().expect("conn registry").remove(&id);
                }) {
                Ok(handle) => joins.push(handle),
                Err(_) => {
                    self.state.conns.lock().expect("conn registry").remove(&id);
                }
            }
        }
        for join in joins {
            let _ = join.join();
        }
        let state = self.state;
        let reports = std::mem::take(&mut *state.reports.lock().expect("reports"));
        let failures = std::mem::take(&mut *state.failures.lock().expect("failures"));
        ServerSummary { reports, failures }
    }

    /// Moves the daemon onto its own thread.
    pub fn spawn(self) -> std::io::Result<ServerHandle> {
        let addr = self.local_addr();
        let thread = std::thread::Builder::new()
            .name("glove-serve-accept".to_string())
            .spawn(move || self.run())?;
        Ok(ServerHandle { addr, thread })
    }
}

/// The pause after the `failures`-th consecutive failed accept (counting
/// from 0): 1 ms, doubling up to 100 ms.
fn accept_backoff(failures: u32) -> Duration {
    Duration::from_millis((1u64 << failures.min(7)).min(100))
}

/// Finalizes a connection's open session (if any), recording the outcome
/// in the daemon summary.
fn finalize(
    session: &mut Option<Session>,
    state: &ServerState,
) -> Option<Result<RunReport, String>> {
    let mut open = session.take()?;
    let tenant = open.metrics().tenant().to_string();
    let result = open.finish();
    state.record(result.clone().map_err(|e| (tenant, e)));
    Some(result)
}

fn reply(sink: &PushSink, frame: &Frame) -> bool {
    match sink.lock() {
        Ok(mut w) => write_frame(&mut *w, frame).is_ok(),
        Err(_) => false,
    }
}

fn error_frame(code: ErrorCode, message: impl Into<String>) -> Frame {
    Frame::Error {
        code,
        message: message.into(),
    }
}

fn handle_connection(stream: TcpStream, state: &ServerState) {
    let _ = stream.set_nodelay(true);
    let mut reader = match stream.try_clone() {
        Ok(clone) => BufReader::new(clone),
        Err(_) => return,
    };
    let writer: PushSink = Arc::new(Mutex::new(stream));
    let mut session: Option<Session> = None;

    loop {
        let frame = match read_frame(&mut reader) {
            Ok(Some(frame)) => frame,
            Ok(None) => break, // clean disconnect; finalize below
            Err(e) => {
                // Half-closed by shutdown, or a framing violation: tell the
                // peer if it is still there, then finalize.
                let _ = reply(&writer, &error_frame(ErrorCode::Protocol, e.to_string()));
                break;
            }
        };
        let ok = match frame {
            Frame::Hello {
                tenant,
                shed,
                config,
            } => {
                if state.shutdown.load(Ordering::SeqCst) {
                    reply(
                        &writer,
                        &error_frame(ErrorCode::Shutdown, "daemon is shutting down"),
                    )
                } else if session.is_some() {
                    reply(
                        &writer,
                        &error_frame(
                            ErrorCode::Protocol,
                            "a session is already open; FLUSH first",
                        ),
                    )
                } else if !state.claim_tenant(&tenant) {
                    reply(
                        &writer,
                        &error_frame(
                            ErrorCode::TenantExists,
                            format!("tenant '{tenant}' already ran on this daemon"),
                        ),
                    )
                } else {
                    let config = SessionConfig {
                        tenant: tenant.clone(),
                        shed,
                        stream: config,
                        policy: state.opts.policy.clone(),
                        queue_events: state.opts.queue_events,
                        retry_ms: state.opts.retry_ms,
                        out_dir: state.opts.out_dir.as_ref().map(|d| d.join(&tenant)),
                        epoch_writer: state.opts.epoch_writer.clone(),
                    };
                    match Session::spawn(config, Some(Arc::clone(&writer))) {
                        Ok(open) => {
                            session = Some(open);
                            reply(
                                &writer,
                                &Frame::HelloOk {
                                    tenant,
                                    queue: state.opts.queue_events as u32,
                                },
                            )
                        }
                        Err(e) => {
                            state.unclaim_tenant(&tenant);
                            reply(&writer, &error_frame(ErrorCode::Engine, e.to_string()))
                        }
                    }
                }
            }
            Frame::Events(events) => match &mut session {
                None => reply(
                    &writer,
                    &error_frame(ErrorCode::NoTenant, "EVENTS before HELLO"),
                ),
                Some(open) => match open.offer(events) {
                    Offer::Accepted { accepted, shed } => {
                        reply(&writer, &Frame::EventsOk { accepted, shed })
                    }
                    Offer::Busy { accepted, retry_ms } => {
                        reply(&writer, &Frame::Busy { accepted, retry_ms })
                    }
                    Offer::Dead => {
                        let cause = finalize(&mut session, state)
                            .and_then(Result::err)
                            .unwrap_or_else(|| "engine worker died".to_string());
                        reply(&writer, &error_frame(ErrorCode::Engine, cause))
                    }
                },
            },
            Frame::Stats => match &session {
                None => reply(
                    &writer,
                    &error_frame(ErrorCode::NoTenant, "STATS before HELLO"),
                ),
                Some(open) => {
                    let metrics = open.metrics();
                    reply(
                        &writer,
                        &Frame::Report {
                            tenant: metrics.tenant().to_string(),
                            report: Box::new(metrics.snapshot_report()),
                        },
                    )
                }
            },
            Frame::Flush => match session.take() {
                None => reply(
                    &writer,
                    &error_frame(ErrorCode::NoTenant, "FLUSH before HELLO"),
                ),
                Some(open) => {
                    let tenant = open.metrics().tenant().to_string();
                    session = Some(open);
                    match finalize(&mut session, state).expect("session present") {
                        Ok(report) => reply(
                            &writer,
                            &Frame::Report {
                                tenant,
                                report: Box::new(report),
                            },
                        ),
                        Err(cause) => reply(&writer, &error_frame(ErrorCode::Engine, cause)),
                    }
                }
            },
            Frame::Reconfig { plane } => match &session {
                None => reply(
                    &writer,
                    &error_frame(ErrorCode::NoTenant, "RECONFIG before HELLO"),
                ),
                Some(open) => match open.swap_policy(*plane) {
                    Ok(rules) => reply(
                        &writer,
                        &Frame::ReconfigOk {
                            tenant: open.metrics().tenant().to_string(),
                            rules,
                        },
                    ),
                    Err(e) => reply(&writer, &error_frame(ErrorCode::Protocol, e.to_string())),
                },
            },
            Frame::Close => {
                let _ = finalize(&mut session, state);
                let _ = reply(&writer, &Frame::Bye);
                break;
            }
            Frame::Shutdown => {
                let _ = finalize(&mut session, state);
                state.shutdown.store(true, Ordering::SeqCst);
                let _ = reply(&writer, &Frame::Bye);
                state.nudge_connections();
                state.nudge_accept();
                break;
            }
            other => reply(
                &writer,
                &error_frame(
                    ErrorCode::Protocol,
                    format!("unexpected {} from a client", other.name()),
                ),
            ),
        };
        if !ok {
            break; // peer gone; finalize below
        }
    }
    let _ = finalize(&mut session, state);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failed_accepts_back_off_by_doubling_up_to_100_ms() {
        let schedule: Vec<u64> = (0..10)
            .map(|n| accept_backoff(n).as_millis() as u64)
            .collect();
        assert_eq!(schedule, [1, 2, 4, 8, 16, 32, 64, 100, 100, 100]);
        assert_eq!(accept_backoff(u32::MAX), Duration::from_millis(100));
    }
}
