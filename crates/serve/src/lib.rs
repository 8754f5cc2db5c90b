//! `glove-serve` — the multi-tenant GLOVE ingest daemon.
//!
//! This crate turns the library's [`RunBuilder`](glove_core::api::RunBuilder)
//! run API into a long-running network service, std-only (no async
//! runtime; `std::net` + `std::thread`):
//!
//! - [`protocol`] — the length-prefixed wire format: `[len: u32 LE]`
//!   `[tag: u8][payload]`, JSON payloads except binary `EVENTS`.
//!   `HELLO` inlines the tenant's full
//!   [`StreamConfig`](glove_core::config::StreamConfig) through its
//!   [`Json`](glove_core::api::json::Json) codec.
//! - [`session`] — one tenant's bounded-queue ingest pipeline: an
//!   `EventQueue` (one lock around a bounded deque) feeding a dedicated
//!   engine worker thread, with explicit backpressure (`BUSY`) or load
//!   shedding, live [`SessionMetrics`], and epoch/report persistence.
//! - [`server`] — the accept loop, tenant registry, and protocol-driven
//!   graceful shutdown.
//! - [`client`] — the blocking reference client (`glove send`, the e2e
//!   tests and opbench are built on it).
//!
//! ### Exactness
//!
//! A tenant session is pinned to one `StreamEngine` run: the epoch files
//! and final report a tenant gets over the wire are byte-for-byte
//! identical to a direct `run_stream` call with the same configuration
//! and event order — backpressure retries and server thread counts
//! change timing, never output. Shed mode is the one deliberate
//! exception: dropped events are excluded from the run but fully
//! accounted in `StreamStats::shed_events`.

pub mod client;
pub mod protocol;
pub mod server;
pub mod session;

pub use client::{Client, ClientError, EpochNote, SendOutcome};
pub use protocol::{
    decode_frame, encode_frame, read_frame, write_frame, ErrorCode, Frame, WireError,
    MAX_EVENTS_PER_FRAME, MAX_FRAME_LEN,
};
pub use server::{ServeOptions, Server, ServerHandle, ServerSummary};
pub use session::{EpochWriteFn, Offer, PushSink, Session, SessionConfig, SessionMetrics};
