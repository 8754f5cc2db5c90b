//! The `glove serve` wire protocol: length-prefixed binary frames.
//!
//! ### Framing
//!
//! Every frame is `[len: u32 LE][tag: u8][payload: len-1 bytes]` — `len`
//! counts the tag byte plus the payload, so the smallest legal frame is 5
//! bytes on the wire. `len` is capped at [`MAX_FRAME_LEN`]; a peer
//! announcing a longer frame is rejected before any payload is read.
//!
//! Payloads are JSON (control frames, rendered by the dependency-free
//! `glove_core::api::json` module) except [`Frame::Events`], which packs
//! event batches as fixed-width little-endian records
//! ([`EVENT_WIRE_BYTES`] bytes each, `E`-record semantics: `user x y dx dy
//! t dt`) — ingest is the hot path and must not pay JSON costs.
//!
//! ### Frame set
//!
//! | frame      | direction | meaning |
//! |------------|-----------|---------|
//! | `HELLO`    | c → s     | open a tenant session (name, shed flag, inlined [`StreamConfig`] JSON) |
//! | `HELLO_OK` | s → c     | session open; announces the bounded queue capacity |
//! | `EVENTS`   | c → s     | a batch of time-ordered events |
//! | `EVENTS_OK`| s → c     | batch accounted: `accepted` enqueued, `shed` dropped by policy |
//! | `BUSY`     | s → c     | backpressure: queue full after `accepted`; retry the rest after `retry_ms` |
//! | `FLUSH`    | c → s     | end the stream; reply is the final `REPORT` |
//! | `CLOSE`    | c → s     | end the connection (flushes an open session); reply `BYE` |
//! | `BYE`      | s → c     | goodbye |
//! | `EPOCH`    | s → c     | push: an epoch closed (metadata only, never the dataset) |
//! | `REPORT`   | s → c     | a full [`RunReport`] (reply to `FLUSH`/`STATS`) |
//! | `STATS`    | c → s     | request a mid-run report snapshot |
//! | `SHUTDOWN` | c → s     | drain every session and stop the daemon; reply `BYE` |
//! | `ERROR`    | s → c     | request failed (code + message) |
//! | `RECONFIG` | c → s     | swap the tenant's policy plane (applies at the next window boundary) |
//! | `RECONFIG_OK` | s → c  | policy plane installed; echoes the rule count |
//!
//! Decoding is total: any byte sequence either parses or yields a
//! [`WireError`] carrying the byte offset (relative to the frame start)
//! where decoding failed — never a panic. The proptests in
//! `tests/protocol_properties.rs` pin both directions.

use glove_core::api::json::{field, field_or, Json, JsonValue};
use glove_core::api::report::RunReport;
use glove_core::config::StreamConfig;
use glove_core::policy::PolicyPlane;
use glove_core::stream::StreamEvent;
use glove_core::Sample;
use std::io::{Read, Write};

/// Hard cap on `len` (tag + payload bytes) of a single frame: 16 MiB.
pub const MAX_FRAME_LEN: usize = 16 << 20;

/// Bytes of one event record inside an [`Frame::Events`] payload:
/// `user: u32, x: i64, y: i64, dx: u32, dy: u32, t: u32, dt: u32`, all
/// little-endian.
pub const EVENT_WIRE_BYTES: usize = 36;

/// Hard cap on events per [`Frame::Events`] frame, keeping the largest
/// ingest frame (~2.3 MiB) far below [`MAX_FRAME_LEN`].
pub const MAX_EVENTS_PER_FRAME: usize = 65_536;

/// Machine-readable category of a [`Frame::Error`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The peer violated the protocol (bad frame sequence or payload).
    Protocol,
    /// `HELLO` named a tenant that already ran or is running.
    TenantExists,
    /// An ingest/control frame arrived with no open session.
    NoTenant,
    /// The tenant's engine rejected the stream (e.g. out-of-order events)
    /// or its epoch sink failed.
    Engine,
    /// The daemon is shutting down and takes no new work.
    Shutdown,
}

impl ErrorCode {
    /// The wire spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::Protocol => "protocol",
            ErrorCode::TenantExists => "tenant-exists",
            ErrorCode::NoTenant => "no-tenant",
            ErrorCode::Engine => "engine",
            ErrorCode::Shutdown => "shutdown",
        }
    }

    fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "protocol" => ErrorCode::Protocol,
            "tenant-exists" => ErrorCode::TenantExists,
            "no-tenant" => ErrorCode::NoTenant,
            "engine" => ErrorCode::Engine,
            "shutdown" => ErrorCode::Shutdown,
            _ => return None,
        })
    }
}

impl std::fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One protocol frame (see the module docs for the frame table).
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Open a tenant session.
    Hello {
        /// Tenant name (also the epoch output subdirectory).
        tenant: String,
        /// `true`: drop events instead of answering `BUSY` when the
        /// bounded queue is full (the drops are booked in the shed ledger).
        shed: bool,
        /// The session's full streaming configuration.
        config: StreamConfig,
    },
    /// Session opened.
    HelloOk {
        /// Echoed tenant name.
        tenant: String,
        /// Capacity of the session's bounded event queue.
        queue: u32,
    },
    /// A batch of time-ordered events.
    Events(Vec<StreamEvent>),
    /// Ingest accounting for one `EVENTS` frame.
    EventsOk {
        /// Events enqueued for the engine.
        accepted: u32,
        /// Events dropped by the shed policy (shed sessions only).
        shed: u32,
    },
    /// Backpressure: the queue filled after `accepted` events; resend the
    /// remainder after `retry_ms` milliseconds.
    Busy {
        /// Events enqueued before the queue filled.
        accepted: u32,
        /// Suggested client backoff, milliseconds.
        retry_ms: u32,
    },
    /// End the tenant's stream and await its final report.
    Flush,
    /// End the connection.
    Close,
    /// Goodbye (reply to `CLOSE` and `SHUTDOWN`).
    Bye,
    /// Server push: an epoch closed (metadata only — epoch datasets go to
    /// the tenant's output directory, never over the wire).
    Epoch {
        /// Tenant the epoch belongs to.
        tenant: String,
        /// Epoch sequence number.
        epoch: u64,
        /// Start of the closed window, minutes since the stream origin.
        window_start_min: u64,
        /// k-anonymous groups published.
        groups: u64,
        /// Subscribers published.
        users: u64,
    },
    /// A full run report (reply to `FLUSH` and `STATS`).
    Report {
        /// Tenant the report describes.
        tenant: String,
        /// The report itself (final after `FLUSH`, snapshot after
        /// `STATS`). Boxed: a `RunReport` dwarfs every other variant.
        report: Box<RunReport>,
    },
    /// Request a mid-run report snapshot.
    Stats,
    /// Drain every session and stop the daemon.
    Shutdown,
    /// The previous request failed.
    Error {
        /// Machine-readable category.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
    /// Swap the open session's policy plane. The engine picks the new
    /// plane up at its next window boundary — the epoch currently filling
    /// keeps the policy it opened under.
    Reconfig {
        /// The replacement plane (validated before installation). Boxed:
        /// a plane with cohorts dwarfs the scalar variants.
        plane: Box<PolicyPlane>,
    },
    /// Policy plane installed.
    ReconfigOk {
        /// Echoed tenant name.
        tenant: String,
        /// Rules in the installed plane (0 = back to uniform).
        rules: u32,
    },
}

impl Frame {
    /// The frame's tag byte.
    pub fn tag(&self) -> u8 {
        match self {
            Frame::Hello { .. } => 1,
            Frame::HelloOk { .. } => 2,
            Frame::Events(_) => 3,
            Frame::EventsOk { .. } => 4,
            Frame::Busy { .. } => 5,
            Frame::Flush => 6,
            Frame::Close => 7,
            Frame::Bye => 8,
            Frame::Epoch { .. } => 9,
            Frame::Report { .. } => 10,
            Frame::Stats => 11,
            Frame::Shutdown => 12,
            Frame::Error { .. } => 13,
            Frame::Reconfig { .. } => 14,
            Frame::ReconfigOk { .. } => 15,
        }
    }

    /// The frame's name (for diagnostics).
    pub fn name(&self) -> &'static str {
        match self {
            Frame::Hello { .. } => "HELLO",
            Frame::HelloOk { .. } => "HELLO_OK",
            Frame::Events(_) => "EVENTS",
            Frame::EventsOk { .. } => "EVENTS_OK",
            Frame::Busy { .. } => "BUSY",
            Frame::Flush => "FLUSH",
            Frame::Close => "CLOSE",
            Frame::Bye => "BYE",
            Frame::Epoch { .. } => "EPOCH",
            Frame::Report { .. } => "REPORT",
            Frame::Stats => "STATS",
            Frame::Shutdown => "SHUTDOWN",
            Frame::Error { .. } => "ERROR",
            Frame::Reconfig { .. } => "RECONFIG",
            Frame::ReconfigOk { .. } => "RECONFIG_OK",
        }
    }
}

/// A framing/decoding failure, locating the offending byte.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// Byte offset relative to the start of the frame (offset 0 is the
    /// first length byte; the payload starts at offset 5).
    pub offset: usize,
    /// What went wrong there.
    pub message: String,
}

impl WireError {
    fn new(offset: usize, message: impl Into<String>) -> Self {
        Self {
            offset,
            message: message.into(),
        }
    }
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "wire error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for WireError {}

/// Offset of the first payload byte inside a frame (after `len` + tag).
pub const PAYLOAD_OFFSET: usize = 5;

fn json_payload(v: &JsonValue) -> Vec<u8> {
    v.render().into_bytes()
}

/// A JSON reader's failure, located at the payload.
fn at_payload(message: String) -> WireError {
    WireError::new(PAYLOAD_OFFSET, message)
}

/// Reads the required key `key` of a JSON payload.
fn wire_field<T: Json>(v: &JsonValue, key: &str) -> Result<T, WireError> {
    field(v, key).map_err(at_payload)
}

fn parse_json(payload: &[u8], what: &str) -> Result<JsonValue, WireError> {
    let text = std::str::from_utf8(payload)
        .map_err(|e| WireError::new(PAYLOAD_OFFSET + e.valid_up_to(), "payload is not UTF-8"))?;
    JsonValue::parse(text)
        .map_err(|e| WireError::new(PAYLOAD_OFFSET, format!("bad {what} JSON: {e}")))
}

/// Encodes one frame to its wire bytes.
pub fn encode_frame(frame: &Frame) -> Vec<u8> {
    let payload: Vec<u8> = match frame {
        Frame::Hello {
            tenant,
            shed,
            config,
        } => json_payload(&JsonValue::obj(vec![
            ("tenant", tenant.to_value()),
            ("shed", shed.to_value()),
            ("config", config.to_value()),
        ])),
        Frame::HelloOk { tenant, queue } => json_payload(&JsonValue::obj(vec![
            ("tenant", tenant.to_value()),
            ("queue", queue.to_value()),
        ])),
        Frame::Events(events) => {
            let mut out = Vec::with_capacity(4 + events.len() * EVENT_WIRE_BYTES);
            out.extend_from_slice(&(events.len() as u32).to_le_bytes());
            for e in events {
                out.extend_from_slice(&e.user.to_le_bytes());
                out.extend_from_slice(&e.sample.x.to_le_bytes());
                out.extend_from_slice(&e.sample.y.to_le_bytes());
                out.extend_from_slice(&e.sample.dx.to_le_bytes());
                out.extend_from_slice(&e.sample.dy.to_le_bytes());
                out.extend_from_slice(&e.sample.t.to_le_bytes());
                out.extend_from_slice(&e.sample.dt.to_le_bytes());
            }
            out
        }
        Frame::EventsOk { accepted, shed } => json_payload(&JsonValue::obj(vec![
            ("accepted", accepted.to_value()),
            ("shed", shed.to_value()),
        ])),
        Frame::Busy { accepted, retry_ms } => json_payload(&JsonValue::obj(vec![
            ("accepted", accepted.to_value()),
            ("retry_ms", retry_ms.to_value()),
        ])),
        Frame::Flush | Frame::Close | Frame::Bye | Frame::Stats | Frame::Shutdown => Vec::new(),
        Frame::Epoch {
            tenant,
            epoch,
            window_start_min,
            groups,
            users,
        } => json_payload(&JsonValue::obj(vec![
            ("tenant", tenant.to_value()),
            ("epoch", epoch.to_value()),
            ("window_start_min", window_start_min.to_value()),
            ("groups", groups.to_value()),
            ("users", users.to_value()),
        ])),
        Frame::Report { tenant, report } => json_payload(&JsonValue::obj(vec![
            ("tenant", tenant.to_value()),
            ("report", report.to_value()),
        ])),
        Frame::Error { code, message } => json_payload(&JsonValue::obj(vec![
            ("code", JsonValue::Str(code.as_str().to_string())),
            ("message", message.to_value()),
        ])),
        Frame::Reconfig { plane } => {
            json_payload(&JsonValue::obj(vec![("plane", plane.to_value())]))
        }
        Frame::ReconfigOk { tenant, rules } => json_payload(&JsonValue::obj(vec![
            ("tenant", tenant.to_value()),
            ("rules", rules.to_value()),
        ])),
    };
    let len = 1 + payload.len();
    debug_assert!(len <= MAX_FRAME_LEN, "frame exceeds MAX_FRAME_LEN");
    let mut out = Vec::with_capacity(4 + len);
    out.extend_from_slice(&(len as u32).to_le_bytes());
    out.push(frame.tag());
    out.extend_from_slice(&payload);
    out
}

/// Decodes one frame from the front of `buf`, returning it with the number
/// of bytes consumed.
///
/// Total: every input either decodes or returns a [`WireError`] whose
/// `offset` points at the byte where decoding failed — truncated input is
/// an error (offset = the length available), never a panic.
pub fn decode_frame(buf: &[u8]) -> Result<(Frame, usize), WireError> {
    if buf.len() < 4 {
        return Err(WireError::new(
            buf.len(),
            format!(
                "truncated frame header: have {} of 4 length bytes",
                buf.len()
            ),
        ));
    }
    let len = u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]) as usize;
    if len == 0 {
        return Err(WireError::new(
            0,
            "frame length 0 (a frame has at least a tag)",
        ));
    }
    if len > MAX_FRAME_LEN {
        return Err(WireError::new(
            0,
            format!("frame length {len} exceeds MAX_FRAME_LEN {MAX_FRAME_LEN}"),
        ));
    }
    let total = 4 + len;
    if buf.len() < total {
        return Err(WireError::new(
            buf.len(),
            format!(
                "truncated frame: header promises {total} bytes, have {}",
                buf.len()
            ),
        ));
    }
    let tag = buf[4];
    let payload = &buf[5..total];
    let frame = decode_body(tag, payload)?;
    Ok((frame, total))
}

fn expect_empty(payload: &[u8], name: &str, frame: Frame) -> Result<Frame, WireError> {
    if payload.is_empty() {
        Ok(frame)
    } else {
        Err(WireError::new(
            PAYLOAD_OFFSET,
            format!("{name} carries no payload, got {} bytes", payload.len()),
        ))
    }
}

fn decode_body(tag: u8, payload: &[u8]) -> Result<Frame, WireError> {
    match tag {
        1 => {
            let v = parse_json(payload, "HELLO")?;
            let tenant: String = wire_field(&v, "tenant")?;
            if tenant.is_empty()
                || !tenant
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_')
            {
                return Err(WireError::new(
                    PAYLOAD_OFFSET,
                    "tenant names are non-empty [A-Za-z0-9_-]",
                ));
            }
            Ok(Frame::Hello {
                tenant,
                shed: field_or(&v, "shed", false).map_err(at_payload)?,
                config: wire_field(&v, "config")?,
            })
        }
        2 => {
            let v = parse_json(payload, "HELLO_OK")?;
            Ok(Frame::HelloOk {
                tenant: wire_field(&v, "tenant")?,
                queue: wire_field(&v, "queue")?,
            })
        }
        3 => {
            if payload.len() < 4 {
                return Err(WireError::new(
                    PAYLOAD_OFFSET + payload.len(),
                    "truncated EVENTS count",
                ));
            }
            let count =
                u32::from_le_bytes([payload[0], payload[1], payload[2], payload[3]]) as usize;
            if count > MAX_EVENTS_PER_FRAME {
                return Err(WireError::new(
                    PAYLOAD_OFFSET,
                    format!("EVENTS count {count} exceeds {MAX_EVENTS_PER_FRAME}"),
                ));
            }
            let body = &payload[4..];
            if body.len() != count * EVENT_WIRE_BYTES {
                return Err(WireError::new(
                    PAYLOAD_OFFSET + 4 + body.len().min(count * EVENT_WIRE_BYTES),
                    format!(
                        "EVENTS body is {} bytes, count {count} needs {}",
                        body.len(),
                        count * EVENT_WIRE_BYTES
                    ),
                ));
            }
            let mut events = Vec::with_capacity(count);
            for i in 0..count {
                let at = i * EVENT_WIRE_BYTES;
                let rec = &body[at..at + EVENT_WIRE_BYTES];
                let le_u32 =
                    |o: usize| u32::from_le_bytes([rec[o], rec[o + 1], rec[o + 2], rec[o + 3]]);
                let le_i64 = |o: usize| {
                    i64::from_le_bytes([
                        rec[o],
                        rec[o + 1],
                        rec[o + 2],
                        rec[o + 3],
                        rec[o + 4],
                        rec[o + 5],
                        rec[o + 6],
                        rec[o + 7],
                    ])
                };
                let sample = Sample::new(
                    le_i64(4),
                    le_i64(12),
                    le_u32(20),
                    le_u32(24),
                    le_u32(28),
                    le_u32(32),
                )
                .map_err(|e| WireError::new(PAYLOAD_OFFSET + 4 + at, format!("event {i}: {e}")))?;
                events.push(StreamEvent {
                    user: le_u32(0),
                    sample,
                });
            }
            Ok(Frame::Events(events))
        }
        4 => {
            let v = parse_json(payload, "EVENTS_OK")?;
            Ok(Frame::EventsOk {
                accepted: wire_field(&v, "accepted")?,
                shed: wire_field(&v, "shed")?,
            })
        }
        5 => {
            let v = parse_json(payload, "BUSY")?;
            Ok(Frame::Busy {
                accepted: wire_field(&v, "accepted")?,
                retry_ms: wire_field(&v, "retry_ms")?,
            })
        }
        6 => expect_empty(payload, "FLUSH", Frame::Flush),
        7 => expect_empty(payload, "CLOSE", Frame::Close),
        8 => expect_empty(payload, "BYE", Frame::Bye),
        9 => {
            let v = parse_json(payload, "EPOCH")?;
            Ok(Frame::Epoch {
                tenant: wire_field(&v, "tenant")?,
                epoch: wire_field(&v, "epoch")?,
                window_start_min: wire_field(&v, "window_start_min")?,
                groups: wire_field(&v, "groups")?,
                users: wire_field(&v, "users")?,
            })
        }
        10 => {
            let v = parse_json(payload, "REPORT")?;
            Ok(Frame::Report {
                tenant: wire_field(&v, "tenant")?,
                report: Box::new(wire_field::<RunReport>(&v, "report")?),
            })
        }
        11 => expect_empty(payload, "STATS", Frame::Stats),
        12 => expect_empty(payload, "SHUTDOWN", Frame::Shutdown),
        13 => {
            let v = parse_json(payload, "ERROR")?;
            let code_str: String = wire_field(&v, "code")?;
            let code = ErrorCode::parse(&code_str).ok_or_else(|| {
                WireError::new(PAYLOAD_OFFSET, format!("unknown error code '{code_str}'"))
            })?;
            Ok(Frame::Error {
                code,
                message: wire_field(&v, "message")?,
            })
        }
        14 => {
            let v = parse_json(payload, "RECONFIG")?;
            let plane = PolicyPlane::from_value(
                v.get("plane")
                    .ok_or_else(|| WireError::new(PAYLOAD_OFFSET, "missing 'plane' object"))?,
            )
            .map_err(|e| WireError::new(PAYLOAD_OFFSET, format!("bad plane: {e}")))?;
            Ok(Frame::Reconfig {
                plane: Box::new(plane),
            })
        }
        15 => {
            let v = parse_json(payload, "RECONFIG_OK")?;
            Ok(Frame::ReconfigOk {
                tenant: wire_field(&v, "tenant")?,
                rules: wire_field(&v, "rules")?,
            })
        }
        other => Err(WireError::new(4, format!("unknown frame tag {other}"))),
    }
}

/// Writes one frame to `w` (unbuffered single write; callers wrap sockets
/// in a `BufWriter` and flush per frame).
pub fn write_frame<W: Write + ?Sized>(w: &mut W, frame: &Frame) -> std::io::Result<()> {
    w.write_all(&encode_frame(frame))?;
    w.flush()
}

/// Reads one frame from `w`, blocking. `Ok(None)` is a clean EOF at a
/// frame boundary; EOF inside a frame or a decode failure is an
/// `InvalidData` error carrying the [`WireError`] text.
pub fn read_frame(r: &mut impl Read) -> std::io::Result<Option<Frame>> {
    let mut head = [0u8; 4];
    let mut got = 0;
    while got < 4 {
        match r.read(&mut head[got..])? {
            0 if got == 0 => return Ok(None),
            0 => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    format!("EOF inside frame header after {got} bytes"),
                ))
            }
            n => got += n,
        }
    }
    let len = u32::from_le_bytes(head) as usize;
    if len == 0 || len > MAX_FRAME_LEN {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            WireError::new(0, format!("bad frame length {len}")).to_string(),
        ));
    }
    let mut body = vec![0u8; len];
    r.read_exact(&mut body)?;
    let mut whole = Vec::with_capacity(4 + len);
    whole.extend_from_slice(&head);
    whole.extend_from_slice(&body);
    match decode_frame(&whole) {
        Ok((frame, consumed)) => {
            debug_assert_eq!(consumed, whole.len());
            Ok(Some(frame))
        }
        Err(e) => Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            e.to_string(),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn control_frames_round_trip() {
        for (frame, payload) in [
            (Frame::Flush, ""),
            (Frame::Close, ""),
            (Frame::Bye, ""),
            (Frame::Stats, ""),
            (Frame::Shutdown, ""),
            (
                Frame::HelloOk {
                    tenant: "a".into(),
                    queue: 4096,
                },
                r#"{"tenant":"a","queue":4096}"#,
            ),
            (
                Frame::EventsOk {
                    accepted: 7,
                    shed: 3,
                },
                r#"{"accepted":7,"shed":3}"#,
            ),
            (
                Frame::Busy {
                    accepted: 2,
                    retry_ms: 50,
                },
                r#"{"accepted":2,"retry_ms":50}"#,
            ),
            (
                Frame::Epoch {
                    tenant: "metro".into(),
                    epoch: 3,
                    window_start_min: 4320,
                    groups: 12,
                    users: 40,
                },
                r#"{"tenant":"metro","epoch":3,"window_start_min":4320,"groups":12,"users":40}"#,
            ),
            (
                Frame::Error {
                    code: ErrorCode::NoTenant,
                    message: "say HELLO first".into(),
                },
                r#"{"code":"no-tenant","message":"say HELLO first"}"#,
            ),
        ] {
            let bytes = encode_frame(&frame);
            let (back, used) = decode_frame(&bytes).unwrap();
            assert_eq!(used, bytes.len());
            assert_eq!(back, frame);
            assert_eq!(
                std::str::from_utf8(&bytes[PAYLOAD_OFFSET..]).unwrap(),
                payload
            );
        }
    }

    #[test]
    fn hello_round_trips_config_exactly() {
        let mut config = StreamConfig {
            window_min: 720,
            ..StreamConfig::default()
        };
        config.glove.k = 5;
        config.glove.stretch.w_space = 0.25;
        config.glove.stretch.w_time = 0.75;
        let frame = Frame::Hello {
            tenant: "metro-a".into(),
            shed: true,
            config,
        };
        let (back, _) = decode_frame(&encode_frame(&frame)).unwrap();
        assert_eq!(back, frame);
    }

    #[test]
    fn events_round_trip() {
        let events: Vec<StreamEvent> = (0..100u32)
            .map(|i| StreamEvent {
                user: i % 7,
                sample: Sample::point(i64::from(i) * 100 - 3_000, -50, i + 1),
            })
            .collect();
        let frame = Frame::Events(events);
        let (back, _) = decode_frame(&encode_frame(&frame)).unwrap();
        assert_eq!(back, frame);
    }

    #[test]
    fn reconfig_round_trips_plane_exactly() {
        use glove_core::policy::{CohortSpec, PolicyOverride, PolicyRule};
        let plane = PolicyPlane {
            cohorts: vec![CohortSpec {
                name: "vip".into(),
                users: vec![3, 9, 27],
            }],
            rules: vec![
                PolicyRule {
                    from_epoch: 2,
                    to_epoch: Some(6),
                    cohort: None,
                    set: PolicyOverride {
                        k: Some(4),
                        ..PolicyOverride::default()
                    },
                },
                PolicyRule {
                    from_epoch: 2,
                    to_epoch: None,
                    cohort: Some("vip".into()),
                    set: PolicyOverride {
                        k: Some(6),
                        ..PolicyOverride::default()
                    },
                },
            ],
        };
        let frame = Frame::Reconfig {
            plane: Box::new(plane),
        };
        let (back, used) = decode_frame(&encode_frame(&frame)).unwrap();
        assert_eq!(used, encode_frame(&frame).len());
        assert_eq!(back, frame);

        let ok = Frame::ReconfigOk {
            tenant: "metro".into(),
            rules: 2,
        };
        let (back, _) = decode_frame(&encode_frame(&ok)).unwrap();
        assert_eq!(back, ok);
    }

    #[test]
    fn reconfig_without_a_plane_is_rejected() {
        let mut bytes = Vec::new();
        let payload = b"{\"nope\":1}";
        bytes.extend_from_slice(&((1 + payload.len()) as u32).to_le_bytes());
        bytes.push(14);
        bytes.extend_from_slice(payload);
        let err = decode_frame(&bytes).unwrap_err();
        assert!(err.message.contains("plane"), "{}", err.message);
    }

    #[test]
    fn truncation_is_an_error_with_the_right_offset() {
        let bytes = encode_frame(&Frame::Stats);
        for cut in 0..bytes.len() {
            let err = decode_frame(&bytes[..cut]).unwrap_err();
            assert_eq!(err.offset, cut, "offset should be where bytes ran out");
        }
    }

    #[test]
    fn oversized_and_zero_lengths_are_rejected() {
        let mut bytes = ((MAX_FRAME_LEN + 1) as u32).to_le_bytes().to_vec();
        bytes.push(11);
        assert!(decode_frame(&bytes)
            .unwrap_err()
            .message
            .contains("exceeds"));
        let bytes = 0u32.to_le_bytes().to_vec();
        assert!(decode_frame(&bytes)
            .unwrap_err()
            .message
            .contains("length 0"));
    }

    #[test]
    fn invalid_event_extent_is_rejected_at_its_record() {
        let good = StreamEvent {
            user: 1,
            sample: Sample::point(0, 0, 5),
        };
        let mut bytes = encode_frame(&Frame::Events(vec![good, good]));
        // Zero the second record's dx (offset: 4 len + 1 tag + 4 count +
        // 36 first record + 20 into the second record).
        let at = 4 + 1 + 4 + EVENT_WIRE_BYTES + 20;
        bytes[at..at + 4].copy_from_slice(&0u32.to_le_bytes());
        let err = decode_frame(&bytes).unwrap_err();
        assert_eq!(err.offset, PAYLOAD_OFFSET + 4 + EVENT_WIRE_BYTES);
        assert!(err.message.contains("event 1"), "{}", err.message);
    }

    #[test]
    fn read_frame_handles_eof() {
        let mut empty: &[u8] = &[];
        assert!(read_frame(&mut empty).unwrap().is_none());
        let bytes = encode_frame(&Frame::Bye);
        let mut cut: &[u8] = &bytes[..3];
        assert!(
            read_frame(&mut cut).is_err(),
            "EOF inside a frame is an error"
        );
        let mut whole: &[u8] = &bytes;
        assert_eq!(read_frame(&mut whole).unwrap(), Some(Frame::Bye));
    }
}
