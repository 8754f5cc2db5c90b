//! Client side of the serve protocol: a blocking connection that honors
//! `BUSY` backpressure and collects asynchronous `EPOCH` pushes.
//!
//! The CLI's `glove send` verb, the e2e tests and opbench are all built on
//! this type; it is the reference implementation of the retry contract:
//! on `BUSY {accepted, retry_ms}` the client drops the `accepted` prefix,
//! sleeps `retry_ms`, and resends the remaining suffix of the *same*
//! batch. Accepted events are never resent, so the server-side stream
//! stays an exact prefix-ordered copy of the client's event sequence.

use crate::protocol::{read_frame, write_frame, ErrorCode, Frame, MAX_EVENTS_PER_FRAME};
use glove_core::api::RunReport;
use glove_core::config::StreamConfig;
use glove_core::policy::PolicyPlane;
use glove_core::stream::StreamEvent;
use std::io::BufReader;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// An asynchronous `EPOCH` push observed while waiting for a reply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EpochNote {
    /// Tenant the epoch belongs to.
    pub tenant: String,
    /// Zero-based epoch index.
    pub epoch: u64,
    /// Window start, minutes since the stream origin.
    pub window_start_min: u64,
    /// Anonymized groups emitted in the epoch.
    pub groups: u64,
    /// Distinct users covered by the epoch.
    pub users: u64,
}

/// What a [`Client::send_events`] call achieved.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SendOutcome {
    /// Events accepted into the tenant queue.
    pub accepted: u64,
    /// Events shed by the daemon (only in shed mode).
    pub shed: u64,
    /// `BUSY` round-trips absorbed while sending.
    pub busy_retries: u64,
}

/// Client-side failure.
#[derive(Debug)]
pub enum ClientError {
    /// Socket-level failure.
    Io(std::io::Error),
    /// The daemon replied with an `ERROR` frame.
    Server {
        /// Machine-readable error class.
        code: ErrorCode,
        /// Human-readable cause.
        message: String,
    },
    /// The daemon replied with a frame the protocol does not allow here.
    Unexpected(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "i/o error: {e}"),
            ClientError::Server { code, message } => {
                write!(f, "server error [{}]: {message}", code.as_str())
            }
            ClientError::Unexpected(what) => write!(f, "unexpected reply: {what}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// A blocking protocol client over one TCP connection.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    epochs: Vec<EpochNote>,
    busy_retries: u64,
    busy_retry_limit: u64,
}

impl Client {
    /// Connects to a running daemon.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Client> {
        let writer = TcpStream::connect(addr)?;
        let _ = writer.set_nodelay(true);
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Client {
            reader,
            writer,
            epochs: Vec::new(),
            busy_retries: 0,
            busy_retry_limit: 10_000,
        })
    }

    /// Caps consecutive `BUSY` retries per batch before giving up
    /// (default 10 000).
    pub fn busy_retry_limit(mut self, limit: u64) -> Client {
        self.busy_retry_limit = limit.max(1);
        self
    }

    /// `EPOCH` pushes collected so far, in arrival order.
    pub fn epochs(&self) -> &[EpochNote] {
        &self.epochs
    }

    /// Total `BUSY` round-trips absorbed on this connection.
    pub fn busy_retries(&self) -> u64 {
        self.busy_retries
    }

    /// Opens a tenant session; returns the daemon's queue capacity.
    pub fn hello(
        &mut self,
        tenant: &str,
        config: StreamConfig,
        shed: bool,
    ) -> Result<u32, ClientError> {
        let reply = self.request(&Frame::Hello {
            tenant: tenant.to_string(),
            shed,
            config,
        })?;
        match reply {
            Frame::HelloOk { queue, .. } => Ok(queue),
            other => Err(unexpected(other)),
        }
    }

    /// Sends `events` in frames of at most `batch` records, honoring
    /// `BUSY` backpressure (sleep and resend the unaccepted suffix).
    pub fn send_events(
        &mut self,
        events: &[StreamEvent],
        batch: usize,
    ) -> Result<SendOutcome, ClientError> {
        let batch = batch.clamp(1, MAX_EVENTS_PER_FRAME);
        let mut outcome = SendOutcome::default();
        for chunk in events.chunks(batch) {
            let part = self.send_batch(chunk)?;
            outcome.accepted += part.accepted;
            outcome.shed += part.shed;
            outcome.busy_retries += part.busy_retries;
        }
        Ok(outcome)
    }

    /// Sends one batch (at most [`MAX_EVENTS_PER_FRAME`] events), retrying
    /// through `BUSY` until every event is accepted or shed.
    pub fn send_batch(&mut self, batch: &[StreamEvent]) -> Result<SendOutcome, ClientError> {
        assert!(
            batch.len() <= MAX_EVENTS_PER_FRAME,
            "batch exceeds MAX_EVENTS_PER_FRAME"
        );
        let mut outcome = SendOutcome::default();
        let mut rest = batch;
        while !rest.is_empty() {
            let reply = self.request(&Frame::Events(rest.to_vec()))?;
            match reply {
                Frame::EventsOk { accepted, shed } => {
                    outcome.accepted += u64::from(accepted);
                    outcome.shed += u64::from(shed);
                    rest = &rest[(accepted as usize + shed as usize).min(rest.len())..];
                }
                Frame::Busy { accepted, retry_ms } => {
                    outcome.accepted += u64::from(accepted);
                    outcome.busy_retries += 1;
                    self.busy_retries += 1;
                    if outcome.busy_retries > self.busy_retry_limit {
                        return Err(ClientError::Unexpected(format!(
                            "gave up after {} BUSY retries",
                            outcome.busy_retries - 1
                        )));
                    }
                    rest = &rest[(accepted as usize).min(rest.len())..];
                    std::thread::sleep(Duration::from_millis(u64::from(retry_ms.max(1))));
                }
                other => return Err(unexpected(other)),
            }
        }
        Ok(outcome)
    }

    /// Installs a new policy plane for the open session; the daemon picks
    /// it up at the next window boundary. Returns the installed rule count.
    pub fn reconfig(&mut self, plane: PolicyPlane) -> Result<u32, ClientError> {
        match self.request(&Frame::Reconfig {
            plane: Box::new(plane),
        })? {
            Frame::ReconfigOk { rules, .. } => Ok(rules),
            other => Err(unexpected(other)),
        }
    }

    /// Requests a live metrics snapshot for the open session.
    pub fn stats(&mut self) -> Result<RunReport, ClientError> {
        match self.request(&Frame::Stats)? {
            Frame::Report { report, .. } => Ok(*report),
            other => Err(unexpected(other)),
        }
    }

    /// Finalizes the open session: drains the queue, flushes the final
    /// window, and returns the tenant's final [`RunReport`].
    pub fn flush(&mut self) -> Result<RunReport, ClientError> {
        match self.request(&Frame::Flush)? {
            Frame::Report { report, .. } => Ok(*report),
            other => Err(unexpected(other)),
        }
    }

    /// Closes the connection politely (finalizing any open session).
    pub fn close(mut self) -> Result<(), ClientError> {
        match self.request(&Frame::Close)? {
            Frame::Bye => Ok(()),
            other => Err(unexpected(other)),
        }
    }

    /// Asks the daemon to shut down gracefully.
    pub fn shutdown_daemon(mut self) -> Result<(), ClientError> {
        match self.request(&Frame::Shutdown)? {
            Frame::Bye => Ok(()),
            other => Err(unexpected(other)),
        }
    }

    /// Writes `frame` and returns the next non-push reply, stashing any
    /// `EPOCH` pushes seen while waiting and raising `ERROR` frames.
    fn request(&mut self, frame: &Frame) -> Result<Frame, ClientError> {
        write_frame(&mut self.writer, frame)?;
        loop {
            let reply = match read_frame(&mut self.reader)? {
                Some(reply) => reply,
                None => {
                    return Err(ClientError::Io(std::io::Error::new(
                        std::io::ErrorKind::UnexpectedEof,
                        "daemon closed the connection",
                    )))
                }
            };
            match reply {
                Frame::Epoch {
                    tenant,
                    epoch,
                    window_start_min,
                    groups,
                    users,
                } => self.epochs.push(EpochNote {
                    tenant,
                    epoch,
                    window_start_min,
                    groups,
                    users,
                }),
                Frame::Error { code, message } => {
                    return Err(ClientError::Server { code, message })
                }
                other => return Ok(other),
            }
        }
    }
}

fn unexpected(frame: Frame) -> ClientError {
    ClientError::Unexpected(frame.name().to_string())
}

/// One-shot convenience: connect and ask the daemon to shut down.
pub fn shutdown(addr: impl ToSocketAddrs) -> Result<(), ClientError> {
    Client::connect(addr)?.shutdown_daemon()
}
