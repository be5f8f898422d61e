//! Wire protocol of the `boomflow serve` campaign service.
//!
//! Deliberately tiny and dependency-free: length-prefixed frames over any
//! byte stream (Unix socket or TCP), payloads encoded with the same
//! [`rv_isa::codec`] primitives the journal and disk cache use.
//!
//! # Frame layout
//!
//! ```text
//! u32 LE payload length | payload bytes
//! ```
//!
//! Payloads are capped at [`MAX_FRAME`] (a corrupted length prefix must
//! not allocate gigabytes). Client payloads open with the protocol
//! version (`u32`) then a message tag (`u8`); server payloads open with
//! the tag directly — the server echoes no version because rejecting a
//! mismatched client is its job, not the client's.
//!
//! # Event kinds
//!
//! Client → server: [`ClientMsg::Submit`] (run this request, stream my
//! events), [`ClientMsg::Attach`] (re-subscribe to a known request id —
//! also the resume path after a server crash), [`ClientMsg::Shutdown`]
//! (drain journals and exit).
//!
//! Server → client: [`ServerMsg::Admitted`] (request accepted, here is
//! its id), [`ServerMsg::Progress`] (point completion ticks),
//! [`ServerMsg::Done`] (final deterministic report bytes + stage
//! summary), [`ServerMsg::Rejected`] (version mismatch, full queue,
//! unknown attach id, or a shutting-down server), [`ServerMsg::Bye`]
//! (shutdown acknowledged).
//!
//! # Versioning
//!
//! [`PROTOCOL_VERSION`] is bumped on any change to the frame grammar;
//! the server rejects other versions with a human-readable
//! [`ServerMsg::Rejected`], which every decodable older/newer client can
//! still print. The *request id* is content-addressed —
//! [`request_id`] hashes the canonical encoding of the [`Request`] — so
//! id stability across versions follows from encoding stability, and two
//! clients submitting byte-identical requests are coalesced onto one
//! run.

use crate::flow::FlowConfig;
use crate::scheduler::CampaignOptions;
use crate::sweep::SweepOptions;
use rv_isa::codec::{ByteReader, ByteWriter, Codec, CodecError};
use rv_workloads::Scale;
use std::io::{Read, Write};

/// Version of the frame grammar (see module docs).
pub const PROTOCOL_VERSION: u32 = 1;

/// Hard cap on one frame's payload size.
pub const MAX_FRAME: usize = 64 * 1024 * 1024;

/// Why a frame could not be read, written, or decoded.
#[derive(Debug)]
pub enum ProtocolError {
    /// The underlying stream failed.
    Io(std::io::Error),
    /// The payload did not decode.
    Codec(CodecError),
    /// The peer speaks a different protocol version.
    Version(u32),
    /// The length prefix exceeds [`MAX_FRAME`].
    FrameTooLarge(usize),
    /// Unknown message tag in an otherwise valid frame.
    UnknownTag(u8),
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtocolError::Io(e) => write!(f, "stream error: {e}"),
            ProtocolError::Codec(e) => write!(f, "malformed payload: {e}"),
            ProtocolError::Version(got) => {
                write!(f, "protocol version {got} (this side speaks {PROTOCOL_VERSION})")
            }
            ProtocolError::FrameTooLarge(n) => {
                write!(f, "frame of {n} bytes exceeds the {MAX_FRAME}-byte cap")
            }
            ProtocolError::UnknownTag(t) => write!(f, "unknown message tag {t:#04x}"),
        }
    }
}

impl From<std::io::Error> for ProtocolError {
    fn from(e: std::io::Error) -> ProtocolError {
        ProtocolError::Io(e)
    }
}

impl From<CodecError> for ProtocolError {
    fn from(e: CodecError) -> ProtocolError {
        ProtocolError::Codec(e)
    }
}

/// Writes one length-prefixed frame and flushes the stream.
///
/// # Errors
///
/// Oversized payloads and stream failures.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> Result<(), ProtocolError> {
    if payload.len() > MAX_FRAME {
        return Err(ProtocolError::FrameTooLarge(payload.len()));
    }
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()?;
    Ok(())
}

/// Reads one length-prefixed frame.
///
/// # Errors
///
/// Oversized length prefixes and stream failures (including EOF).
pub fn read_frame(r: &mut impl Read) -> Result<Vec<u8>, ProtocolError> {
    let mut len = [0u8; 4];
    r.read_exact(&mut len)?;
    let len = u32::from_le_bytes(len) as usize;
    if len > MAX_FRAME {
        return Err(ProtocolError::FrameTooLarge(len));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(payload)
}

rv_isa::record! {
    /// A campaign specification as submitted over the wire. The server and
    /// a solo `boomflow` run both realize it through
    /// [`realize_campaign`](crate::realize_campaign), so a submitted
    /// campaign and a solo run of the same flags produce byte-identical
    /// deterministic reports. [`Default`] is the solo CLI's defaults.
    ///
    /// CLI-local flags, which only a solo run accepts: `--predictor`,
    /// `--iq`, `--full`, `--cycle-budget`, `--mem-backend` and the
    /// `--l2*`/`--dram*` knobs, `--co-run`, `--jobs`, the paths
    /// (`--cache-dir`, `--journal`, `--resume`) and the `--inject-*`
    /// drills. Each would need a new field, and a new field changes every
    /// request id and the benchmark's request literals, so they wait for a
    /// change that moves both together. `--jobs` and the paths are
    /// per-process anyway: the server has its own pool, cache and state
    /// directory.
    #[derive(Clone, Debug, PartialEq)]
    pub struct CampaignRequest {
        /// Workload selection: `all` or a comma-separated name list.
        pub workloads: String [key],
        /// Configuration selection: `medium`, `large`, `mega`, or `all`.
        pub config: String [key],
        /// Workload scale (`Scale`).
        pub scale: Scale [key],
        /// Warm-up instructions per point.
        pub warmup: u64 [key],
        /// Per-point retry attempts.
        pub retries: u32 [key],
        /// Configurations per batched work item.
        pub batch_lanes: usize [key],
        /// Event-driven idle-cycle skipping.
        pub idle_skip: bool [key],
    }
}

rv_isa::record! {
    /// A sweep specification as submitted over the wire, realized by
    /// [`realize_sweep`](crate::realize_sweep) on both the server and the
    /// solo `boomflow sweep`. [`Default`] is the solo sweep's defaults; an
    /// empty `preset` is the solo sweep without `--grid-preset`.
    ///
    /// `--grid`, `--random`/`--seed` and `--idle-skip`/`--no-idle-skip`
    /// stay CLI-local ([`SweepExtras`](crate::SweepExtras)): the axis
    /// grammar has no wire encoding, and adding one changes every sweep's
    /// request id, so served sweeps name a preset and auto-arm idle
    /// skipping.
    #[derive(Clone, Debug, PartialEq)]
    pub struct SweepRequest {
        /// Grid preset name (`ref64`, `smoke16`).
        pub preset: String [key],
        /// Base configuration override (`medium`, `large`, `mega`; empty
        /// keeps the preset's base).
        pub base: String [key],
        /// Workload selection: `all` or a comma-separated name list.
        pub workloads: String [key],
        /// Workload scale.
        pub scale: Scale [key],
        /// Warm-up instructions per point.
        pub warmup: u64 [key],
        /// Rung-count cap; `0` keeps the natural doubling schedule.
        pub max_rungs: usize [key],
        /// Point budget of the truncated prefilter rung.
        pub rung0_points: usize [key],
        /// Interval truncation shift of the prefilter rung.
        pub rung0_shift: u32 [key],
        /// ε-band of the elimination rule.
        pub epsilon: f64 [key],
        /// Per-rung multiplicative ε decay.
        pub epsilon_decay: f64 [key],
        /// Single full-budget rung, no elimination.
        pub exhaustive: bool [key],
        /// Configurations per batched point lane group.
        pub batch_lanes: usize [key],
    }
}

impl Default for CampaignRequest {
    fn default() -> CampaignRequest {
        let flow = FlowConfig::default();
        CampaignRequest {
            workloads: "all".to_string(),
            config: "all".to_string(),
            scale: Scale::Small,
            warmup: flow.warmup_insts,
            retries: flow.retry.max_attempts,
            batch_lanes: CampaignOptions::default().batch_lanes,
            idle_skip: flow.idle_skip,
        }
    }
}

impl Default for SweepRequest {
    fn default() -> SweepRequest {
        let opts = SweepOptions::default();
        SweepRequest {
            preset: String::new(),
            base: String::new(),
            workloads: "all".to_string(),
            scale: Scale::Small,
            warmup: FlowConfig::default().warmup_insts,
            max_rungs: opts.max_rungs.unwrap_or(0),
            rung0_points: opts.rung0_points,
            rung0_shift: opts.rung0_shift,
            epsilon: opts.epsilon,
            epsilon_decay: opts.epsilon_decay,
            exhaustive: opts.exhaustive,
            batch_lanes: opts.batch_lanes,
        }
    }
}

/// One unit of service work: a campaign or a sweep.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// A supervised configuration × workload campaign.
    Campaign(CampaignRequest),
    /// An adaptive (or exhaustive) design-space sweep.
    Sweep(SweepRequest),
}

/// Client → server messages.
#[derive(Clone, Debug, PartialEq)]
pub enum ClientMsg {
    /// Run this request (or join it if an identical one is in flight)
    /// and stream my progress events.
    Submit(Request),
    /// Re-subscribe to a request by id — the attach/resume path.
    Attach(u64),
    /// Drain journals and exit.
    Shutdown,
}

/// Server → client messages.
#[derive(Clone, Debug, PartialEq)]
pub enum ServerMsg {
    /// The request was admitted (or coalesced onto an identical one).
    Admitted {
        /// Content-addressed request id ([`request_id`]).
        id: u64,
        /// Points replayed from a resumed journal at admission.
        replayed: u64,
        /// Requests active on the server after this admission.
        active: u64,
    },
    /// Point-completion tick of one request.
    Progress {
        /// The request the tick belongs to.
        id: u64,
        /// Completed point outcomes (replays included).
        done: u64,
        /// Total point outcomes of the request.
        total: u64,
    },
    /// Terminal event of one request.
    Done {
        /// The request this result belongs to.
        id: u64,
        /// Whether every cell succeeded (the solo CLI's exit-0 rule).
        ok: bool,
        /// The deterministic report — byte-identical to the solo run's
        /// `--report-out` file.
        report: Vec<u8>,
        /// The human-readable stage summary (wall-clock, cache and
        /// single-flight counters; *not* deterministic).
        summary: String,
        /// Kind-specific extra payload (the rendered Pareto frontier for
        /// sweeps; empty for campaigns).
        extra: String,
    },
    /// The request was not admitted (version mismatch, full queue,
    /// unknown attach id, shutdown in progress).
    Rejected {
        /// Human-readable reason.
        reason: String,
    },
    /// Shutdown acknowledged; journals are drained before the socket
    /// closes.
    Bye {
        /// Requests that were still active (they resume on restart).
        active: u64,
    },
}

/// A one-byte kind tag (0 campaign, 1 sweep), then the specification.
impl Codec for Request {
    const MIN_BYTES: usize = 1;
    fn encode(&self, w: &mut ByteWriter) {
        match self {
            Request::Campaign(c) => {
                w.put_u8(0);
                c.encode(w);
            }
            Request::Sweep(s) => {
                w.put_u8(1);
                s.encode(w);
            }
        }
    }

    fn decode(r: &mut ByteReader<'_>) -> Result<Request, CodecError> {
        match r.u8()? {
            0 => Ok(Request::Campaign(CampaignRequest::decode(r)?)),
            1 => Ok(Request::Sweep(SweepRequest::decode(r)?)),
            _ => Err(CodecError::Invalid("request kind tag")),
        }
    }
}

/// The content-addressed id of a request: FNV-1a over its canonical
/// encoding. Identical specifications — regardless of which client sent
/// them, or when — share an id, which is what lets the server coalesce
/// duplicate submissions and a crashed client re-[`ClientMsg::Attach`]
/// deterministically.
pub fn request_id(req: &Request) -> u64 {
    req.content_key()
}

/// Encodes a client message into a frame payload (version-prefixed).
pub fn encode_client(msg: &ClientMsg) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_u32(PROTOCOL_VERSION);
    match msg {
        ClientMsg::Submit(req) => {
            w.put_u8(0x01);
            req.encode(&mut w);
        }
        ClientMsg::Attach(id) => {
            w.put_u8(0x02);
            w.put_u64(*id);
        }
        ClientMsg::Shutdown => w.put_u8(0x03),
    }
    w.into_bytes()
}

/// Decodes a client frame payload.
///
/// # Errors
///
/// Version mismatches (before any tag parsing, so every future version
/// can at least be rejected cleanly), unknown tags, and truncations.
pub fn decode_client(payload: &[u8]) -> Result<ClientMsg, ProtocolError> {
    let mut r = ByteReader::new(payload);
    let version = r.u32()?;
    if version != PROTOCOL_VERSION {
        return Err(ProtocolError::Version(version));
    }
    let msg = match r.u8()? {
        0x01 => ClientMsg::Submit(Request::decode(&mut r)?),
        0x02 => ClientMsg::Attach(r.u64()?),
        0x03 => ClientMsg::Shutdown,
        t => return Err(ProtocolError::UnknownTag(t)),
    };
    r.finish()?;
    Ok(msg)
}

/// Encodes a server message into a frame payload.
pub fn encode_server(msg: &ServerMsg) -> Vec<u8> {
    let mut w = ByteWriter::new();
    match msg {
        ServerMsg::Admitted { id, replayed, active } => {
            w.put_u8(0x10);
            w.put_u64(*id);
            w.put_u64(*replayed);
            w.put_u64(*active);
        }
        ServerMsg::Progress { id, done, total } => {
            w.put_u8(0x11);
            w.put_u64(*id);
            w.put_u64(*done);
            w.put_u64(*total);
        }
        ServerMsg::Done { id, ok, report, summary, extra } => {
            w.put_u8(0x12);
            w.put_u64(*id);
            w.put_bool(*ok);
            w.put_bytes(report);
            w.put_str(summary);
            w.put_str(extra);
        }
        ServerMsg::Rejected { reason } => {
            w.put_u8(0x13);
            w.put_str(reason);
        }
        ServerMsg::Bye { active } => {
            w.put_u8(0x14);
            w.put_u64(*active);
        }
    }
    w.into_bytes()
}

/// Decodes a server frame payload.
///
/// # Errors
///
/// Unknown tags and truncations.
pub fn decode_server(payload: &[u8]) -> Result<ServerMsg, ProtocolError> {
    let mut r = ByteReader::new(payload);
    let msg = match r.u8()? {
        0x10 => ServerMsg::Admitted { id: r.u64()?, replayed: r.u64()?, active: r.u64()? },
        0x11 => ServerMsg::Progress { id: r.u64()?, done: r.u64()?, total: r.u64()? },
        0x12 => ServerMsg::Done {
            id: r.u64()?,
            ok: r.bool()?,
            report: r.bytes()?.to_vec(),
            summary: r.str()?.to_string(),
            extra: r.str()?.to_string(),
        },
        0x13 => ServerMsg::Rejected { reason: r.str()?.to_string() },
        0x14 => ServerMsg::Bye { active: r.u64()? },
        t => return Err(ProtocolError::UnknownTag(t)),
    };
    r.finish()?;
    Ok(msg)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_campaign() -> Request {
        Request::Campaign(CampaignRequest {
            workloads: "bitcount,sha".to_string(),
            config: "all".to_string(),
            scale: Scale::Test,
            warmup: 500,
            retries: 3,
            batch_lanes: 1,
            idle_skip: true,
        })
    }

    fn sample_sweep() -> Request {
        Request::Sweep(SweepRequest {
            preset: "smoke16".to_string(),
            base: "medium".to_string(),
            workloads: "sha".to_string(),
            scale: Scale::Test,
            warmup: 500,
            max_rungs: 2,
            rung0_points: 1,
            rung0_shift: 3,
            epsilon: 0.05,
            epsilon_decay: 0.5,
            exhaustive: false,
            batch_lanes: 4,
        })
    }

    #[test]
    fn client_messages_round_trip() {
        for msg in [
            ClientMsg::Submit(sample_campaign()),
            ClientMsg::Submit(sample_sweep()),
            ClientMsg::Attach(0xdead_beef_0102_0304),
            ClientMsg::Shutdown,
        ] {
            let decoded = decode_client(&encode_client(&msg)).expect("round trip");
            assert_eq!(decoded, msg);
        }
    }

    #[test]
    fn server_messages_round_trip() {
        for msg in [
            ServerMsg::Admitted { id: 7, replayed: 3, active: 2 },
            ServerMsg::Progress { id: 7, done: 5, total: 12 },
            ServerMsg::Done {
                id: 7,
                ok: true,
                report: b"report bytes".to_vec(),
                summary: "=== stage summary ===".to_string(),
                extra: String::new(),
            },
            ServerMsg::Rejected { reason: "queue full".to_string() },
            ServerMsg::Bye { active: 1 },
        ] {
            let decoded = decode_server(&encode_server(&msg)).expect("round trip");
            assert_eq!(decoded, msg);
        }
    }

    #[test]
    fn frames_round_trip_over_a_stream() {
        let mut buf = Vec::new();
        let payloads: [&[u8]; 3] = [b"", b"x", b"hello frames"];
        for p in payloads {
            write_frame(&mut buf, p).expect("write");
        }
        let mut r = &buf[..];
        for p in payloads {
            assert_eq!(read_frame(&mut r).expect("read"), p);
        }
        // Stream drained: the next read reports EOF as an Io error.
        assert!(matches!(read_frame(&mut r), Err(ProtocolError::Io(_))));
    }

    #[test]
    fn oversized_frames_are_refused_without_allocating() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(u32::MAX).to_le_bytes());
        assert!(matches!(read_frame(&mut &buf[..]), Err(ProtocolError::FrameTooLarge(_))));
    }

    #[test]
    fn version_mismatch_is_a_typed_rejection() {
        let mut payload = encode_client(&ClientMsg::Shutdown);
        payload[0] = 0xfe; // clobber the version word
        assert!(matches!(decode_client(&payload), Err(ProtocolError::Version(_))));
    }

    #[test]
    fn malformed_payload_renders_the_codec_error() {
        let mut payload = encode_client(&ClientMsg::Submit(sample_campaign()));
        let at = payload.windows(8).position(|w| w == b"bitcount").expect("workload bytes");
        payload[at] = 0xff; // no longer UTF-8
        let err = decode_client(&payload).expect_err("non-UTF-8 workload string");
        assert_eq!(err.to_string(), "malformed payload: invalid artifact (utf-8)");
    }

    #[test]
    fn request_ids_keep_their_values() {
        // Captured from the hand-written request codec the records
        // replaced: a request persisted or coalesced under an earlier
        // build keeps its id.
        assert_eq!(request_id(&sample_campaign()), 0x420c_387a_3dc2_643b);
        assert_eq!(request_id(&sample_sweep()), 0x5377_4c03_e1a3_4b0c);
    }

    #[test]
    fn request_id_is_content_addressed() {
        let a = sample_campaign();
        let b = sample_campaign();
        assert_eq!(request_id(&a), request_id(&b), "identical specs share an id");
        let Request::Campaign(mut c) = sample_campaign() else { unreachable!() };
        c.warmup += 1;
        assert_ne!(
            request_id(&a),
            request_id(&Request::Campaign(c)),
            "any field change moves the id"
        );
        assert_ne!(request_id(&a), request_id(&sample_sweep()));
    }
}
