//! Wire protocol for `isobar serve`.
//!
//! A deliberately small length-prefixed binary framing: every request
//! starts with a fixed 19-byte header carrying the magic, version,
//! opcode, and the lengths of the three variable-length fields that
//! follow (tenant, name, payload). Every length is validated against a
//! hard cap *before* any allocation happens, so a hostile client can
//! neither panic the daemon nor make it allocate unbounded memory —
//! the same typed-error, bounded-allocation discipline the container
//! and store decoders follow.
//!
//! ## Request frame
//!
//! ```text
//! offset  size  field
//! 0       4     magic "ISRQ"
//! 4       1     protocol version (= 1)
//! 5       1     opcode (1 = put, 2 = get, 3 = stat, 4 = ls)
//! 6       2     tenant length      (u16 LE, <= 255)
//! 8       2     name length        (u16 LE, <= 4096)
//! 10      4     step               (u32 LE)
//! 14      1     element width      (put only: 1, 2, 4, or 8)
//! 15      4     payload length     (u32 LE, put only, <= max_payload)
//! 19      ...   tenant bytes, then name bytes, then payload bytes
//! ```
//!
//! ## Response frame
//!
//! ```text
//! offset  size  field
//! 0       4     magic "ISRP"
//! 4       1     protocol version (= 1)
//! 5       1     status (see [`Status`])
//! 6       4     payload length (u32 LE)
//! 10      1     reserved (= 0)
//! 11      ...   payload bytes
//! ```
//!
//! The header is decoded from a stack buffer; tenant and name are
//! bounded by constants; the payload bound is the server's configured
//! `max_payload`. Responses other than `Ok` carry a human-readable
//! diagnostic as their payload.

use std::fmt;
use std::io::{self, Read, Write};

/// Request frame magic.
pub const REQUEST_MAGIC: [u8; 4] = *b"ISRQ";
/// Response frame magic.
pub const RESPONSE_MAGIC: [u8; 4] = *b"ISRP";
/// Protocol version this build speaks.
pub const PROTOCOL_VERSION: u8 = 1;
/// Fixed request header size in bytes.
pub const REQUEST_HEADER_LEN: usize = 19;
/// Fixed response header size in bytes.
pub const RESPONSE_HEADER_LEN: usize = 11;
/// Longest accepted tenant identifier, in bytes.
pub const MAX_TENANT_LEN: usize = 255;
/// Longest accepted variable name, in bytes.
pub const MAX_NAME_LEN: usize = 4096;
/// Byte that joins tenant and name into a store key; forbidden inside
/// either field so one tenant can never forge another tenant's keys.
pub const TENANT_SEPARATOR: u8 = 0x1f;

/// What a request asks the daemon to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Opcode {
    /// Store one variable (payload = raw element bytes).
    Put = 1,
    /// Fetch one variable (response payload = raw element bytes).
    Get = 2,
    /// Describe one variable (response payload = text key/value line).
    Stat = 3,
    /// List the tenant's variables (response payload = text lines).
    Ls = 4,
}

impl Opcode {
    /// Decode a wire byte; `None` for anything this version does not
    /// speak.
    fn from_wire(byte: u8) -> Option<Opcode> {
        match byte {
            1 => Some(Opcode::Put),
            2 => Some(Opcode::Get),
            3 => Some(Opcode::Stat),
            4 => Some(Opcode::Ls),
            _ => None,
        }
    }
}

/// How the daemon answered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Status {
    /// The request succeeded; the payload is the result.
    Ok = 0,
    /// Admission control rejected the request: the daemon's in-flight
    /// byte budget is full. Back off and retry.
    Busy = 1,
    /// The named variable does not exist (for this tenant).
    NotFound = 2,
    /// The request frame was malformed; the connection is closed
    /// afterwards because the stream can no longer be trusted to be
    /// frame-aligned.
    BadRequest = 3,
    /// The store failed internally; the payload describes the error.
    ServerError = 4,
    /// The daemon is draining for shutdown and accepts no new work.
    ShuttingDown = 5,
}

impl Status {
    /// Decode a wire byte; `None` for unknown status values.
    fn from_wire(byte: u8) -> Option<Status> {
        match byte {
            0 => Some(Status::Ok),
            1 => Some(Status::Busy),
            2 => Some(Status::NotFound),
            3 => Some(Status::BadRequest),
            4 => Some(Status::ServerError),
            5 => Some(Status::ShuttingDown),
            _ => None,
        }
    }
}

/// Why a frame was rejected. Every variant is a deterministic verdict
/// about the bytes — never a panic, never an allocation proportional
/// to attacker-controlled lengths.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtoError {
    /// The first four bytes were not [`REQUEST_MAGIC`] /
    /// [`RESPONSE_MAGIC`].
    BadMagic([u8; 4]),
    /// Unsupported protocol version.
    BadVersion(u8),
    /// Unknown opcode byte.
    BadOpcode(u8),
    /// Unknown status byte in a response.
    BadStatus(u8),
    /// Tenant field longer than [`MAX_TENANT_LEN`].
    TenantTooLong(usize),
    /// Name field longer than [`MAX_NAME_LEN`].
    NameTooLong(usize),
    /// Name field empty (every request addresses a variable or, for
    /// `ls`, must still carry a non-empty placeholder of `*`).
    EmptyName,
    /// Payload length above the server's configured cap.
    PayloadTooLarge {
        /// Claimed payload length.
        len: u64,
        /// The server's cap.
        max: u64,
    },
    /// A non-`put` request claimed a payload.
    UnexpectedPayload(u8),
    /// A `put` with a width other than 1, 2, 4, or 8.
    BadWidth(u8),
    /// A `put` whose payload length is zero or not a multiple of the
    /// element width (the store pipeline requires whole elements).
    PayloadNotElements {
        /// Claimed payload length.
        len: u64,
        /// Claimed element width.
        width: u8,
    },
    /// Tenant or name bytes were not valid UTF-8.
    BadUtf8(&'static str),
    /// Tenant or name contained the reserved [`TENANT_SEPARATOR`].
    ReservedSeparator(&'static str),
    /// The non-reserved response header byte was not zero.
    BadReserved(u8),
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtoError::BadMagic(m) => write!(f, "bad frame magic {m:02x?}"),
            ProtoError::BadVersion(v) => write!(f, "unsupported protocol version {v}"),
            ProtoError::BadOpcode(b) => write!(f, "unknown opcode {b}"),
            ProtoError::BadStatus(b) => write!(f, "unknown status {b}"),
            ProtoError::TenantTooLong(n) => {
                write!(
                    f,
                    "tenant of {n} bytes exceeds the {MAX_TENANT_LEN}-byte cap"
                )
            }
            ProtoError::NameTooLong(n) => {
                write!(f, "name of {n} bytes exceeds the {MAX_NAME_LEN}-byte cap")
            }
            ProtoError::EmptyName => write!(f, "empty variable name"),
            ProtoError::PayloadTooLarge { len, max } => {
                write!(f, "payload of {len} bytes exceeds the {max}-byte cap")
            }
            ProtoError::UnexpectedPayload(op) => {
                write!(f, "opcode {op} must not carry a payload")
            }
            ProtoError::BadWidth(w) => {
                write!(f, "element width {w} is not one of 1, 2, 4, 8")
            }
            ProtoError::PayloadNotElements { len, width } => {
                write!(
                    f,
                    "payload of {len} bytes is not a positive multiple of width {width}"
                )
            }
            ProtoError::BadUtf8(field) => write!(f, "{field} is not valid UTF-8"),
            ProtoError::ReservedSeparator(field) => {
                write!(f, "{field} contains the reserved separator byte 0x1f")
            }
            ProtoError::BadReserved(b) => write!(f, "reserved header byte is {b}, not 0"),
        }
    }
}

impl std::error::Error for ProtoError {}

/// A frame-level failure: either the bytes were wrong ([`ProtoError`])
/// or the transport failed underneath them.
#[derive(Debug)]
pub enum FrameError {
    /// The bytes arrived but do not form a valid frame.
    Proto(ProtoError),
    /// The transport failed (including truncation mid-frame).
    Io(io::Error),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Proto(e) => write!(f, "protocol error: {e}"),
            FrameError::Io(e) => write!(f, "transport error: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<ProtoError> for FrameError {
    fn from(e: ProtoError) -> Self {
        FrameError::Proto(e)
    }
}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        FrameError::Io(e)
    }
}

/// The fixed request header, validated but with the variable-length
/// fields not yet read. The daemon runs admission control between the
/// header and the payload, so an over-budget `put` is rejected before
/// its bytes are buffered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestHeader {
    /// What the request asks for.
    pub opcode: Opcode,
    /// Tenant field length in bytes (0 = the default tenant).
    pub tenant_len: u16,
    /// Name field length in bytes.
    pub name_len: u16,
    /// Simulation time step addressed.
    pub step: u32,
    /// Element width (meaningful for `put` only).
    pub width: u8,
    /// Payload length in bytes (`put` only, 0 otherwise).
    pub payload_len: u32,
}

/// A fully decoded request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// What the request asks for.
    pub opcode: Opcode,
    /// Tenant namespace ("" = the default tenant).
    pub tenant: String,
    /// Variable name.
    pub name: String,
    /// Simulation time step addressed.
    pub step: u32,
    /// Element width (meaningful for `put` only).
    pub width: u8,
    /// Raw element bytes (`put` only, empty otherwise).
    pub payload: Vec<u8>,
}

/// A decoded response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// How the daemon answered.
    pub status: Status,
    /// Result bytes (`Ok`) or a diagnostic message (anything else).
    pub payload: Vec<u8>,
}

/// Parse and validate a fixed request header from `buf`
/// (`buf.len() == REQUEST_HEADER_LEN`). Pure — no I/O, no allocation.
pub fn parse_request_header(
    buf: &[u8; REQUEST_HEADER_LEN],
    max_payload: u64,
) -> Result<RequestHeader, ProtoError> {
    if buf[..4] != REQUEST_MAGIC {
        return Err(ProtoError::BadMagic([buf[0], buf[1], buf[2], buf[3]]));
    }
    if buf[4] != PROTOCOL_VERSION {
        return Err(ProtoError::BadVersion(buf[4]));
    }
    let opcode = Opcode::from_wire(buf[5]).ok_or(ProtoError::BadOpcode(buf[5]))?;
    let tenant_len = u16::from_le_bytes([buf[6], buf[7]]);
    let name_len = u16::from_le_bytes([buf[8], buf[9]]);
    let step = u32::from_le_bytes([buf[10], buf[11], buf[12], buf[13]]);
    let width = buf[14];
    let payload_len = u32::from_le_bytes([buf[15], buf[16], buf[17], buf[18]]);
    if tenant_len as usize > MAX_TENANT_LEN {
        return Err(ProtoError::TenantTooLong(tenant_len as usize));
    }
    if name_len as usize > MAX_NAME_LEN {
        return Err(ProtoError::NameTooLong(name_len as usize));
    }
    if name_len == 0 && opcode != Opcode::Ls {
        return Err(ProtoError::EmptyName);
    }
    match opcode {
        Opcode::Put => {
            if !matches!(width, 1 | 2 | 4 | 8) {
                return Err(ProtoError::BadWidth(width));
            }
            if u64::from(payload_len) > max_payload {
                return Err(ProtoError::PayloadTooLarge {
                    len: u64::from(payload_len),
                    max: max_payload,
                });
            }
            if payload_len == 0 || !payload_len.is_multiple_of(u32::from(width)) {
                return Err(ProtoError::PayloadNotElements {
                    len: u64::from(payload_len),
                    width,
                });
            }
        }
        Opcode::Get | Opcode::Stat | Opcode::Ls => {
            if payload_len != 0 {
                return Err(ProtoError::UnexpectedPayload(opcode as u8));
            }
        }
    }
    Ok(RequestHeader {
        opcode,
        tenant_len,
        name_len,
        step,
        width,
        payload_len,
    })
}

/// Validate one identifier field (tenant or name) that was read off
/// the wire: UTF-8, no reserved separator.
fn validate_field(field: &'static str, bytes: Vec<u8>) -> Result<String, ProtoError> {
    if bytes.contains(&TENANT_SEPARATOR) {
        return Err(ProtoError::ReservedSeparator(field));
    }
    String::from_utf8(bytes).map_err(|_| ProtoError::BadUtf8(field))
}

/// Read exactly `len` bytes, growing the buffer in bounded steps so a
/// frame that lies about its length and then stalls or disconnects has
/// only ever cost one chunk of allocation, not the full claimed size.
pub fn read_bounded(r: &mut impl Read, len: usize) -> io::Result<Vec<u8>> {
    const STEP: usize = 1 << 20;
    let mut buf = Vec::new();
    let mut remaining = len;
    while remaining > 0 {
        let take = remaining.min(STEP);
        let old = buf.len();
        buf.resize(old + take, 0);
        r.read_exact(&mut buf[old..])?;
        remaining -= take;
    }
    Ok(buf)
}

/// Read and throw away `len` bytes in small chunks: used to keep the
/// stream frame-aligned when a request is rejected (e.g. `Busy`)
/// without buffering the rejected payload.
pub fn discard_exact(r: &mut impl Read, len: u64) -> io::Result<()> {
    let mut scratch = [0u8; 16 * 1024];
    let mut remaining = len;
    while remaining > 0 {
        let take = remaining.min(scratch.len() as u64) as usize;
        r.read_exact(&mut scratch[..take])?;
        remaining -= take as u64;
    }
    Ok(())
}

/// Read the tenant and name fields that follow a request header. Both
/// fields are consumed off the wire before either is validated, so a
/// validation failure leaves the stream frame-aligned (only the
/// payload, if any, remains unread).
pub fn read_request_fields(
    r: &mut impl Read,
    header: &RequestHeader,
) -> Result<(String, String), FrameError> {
    let tenant_bytes = read_bounded(r, header.tenant_len as usize)?;
    let name_bytes = read_bounded(r, header.name_len as usize)?;
    let tenant = validate_field("tenant", tenant_bytes)?;
    let name = validate_field("name", name_bytes)?;
    Ok((tenant, name))
}

/// Encode a request into a frame (used by clients and by the fuzz
/// harness to build its specimen pool).
pub fn encode_request(req: &Request) -> Vec<u8> {
    let mut frame = Vec::with_capacity(
        REQUEST_HEADER_LEN + req.tenant.len() + req.name.len() + req.payload.len(),
    );
    frame.extend_from_slice(&REQUEST_MAGIC);
    frame.push(PROTOCOL_VERSION);
    frame.push(req.opcode as u8);
    frame.extend_from_slice(&(req.tenant.len() as u16).to_le_bytes());
    frame.extend_from_slice(&(req.name.len() as u16).to_le_bytes());
    frame.extend_from_slice(&req.step.to_le_bytes());
    frame.push(req.width);
    frame.extend_from_slice(&(req.payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(req.tenant.as_bytes());
    frame.extend_from_slice(req.name.as_bytes());
    frame.extend_from_slice(&req.payload);
    frame
}

/// Write one response frame.
pub fn write_response(w: &mut impl Write, status: Status, payload: &[u8]) -> io::Result<()> {
    let mut header = [0u8; RESPONSE_HEADER_LEN];
    header[..4].copy_from_slice(&RESPONSE_MAGIC);
    header[4] = PROTOCOL_VERSION;
    header[5] = status as u8;
    header[6..10].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    header[10] = 0;
    w.write_all(&header)?;
    w.write_all(payload)?;
    w.flush()
}

/// Read one response frame. `max_payload` bounds the allocation a
/// misbehaving server could induce in a client.
pub fn read_response(r: &mut impl Read, max_payload: u64) -> Result<Response, FrameError> {
    let mut header = [0u8; RESPONSE_HEADER_LEN];
    r.read_exact(&mut header).map_err(FrameError::Io)?;
    if header[..4] != RESPONSE_MAGIC {
        return Err(ProtoError::BadMagic([header[0], header[1], header[2], header[3]]).into());
    }
    if header[4] != PROTOCOL_VERSION {
        return Err(ProtoError::BadVersion(header[4]).into());
    }
    let status = Status::from_wire(header[5]).ok_or(ProtoError::BadStatus(header[5]))?;
    let payload_len = u32::from_le_bytes([header[6], header[7], header[8], header[9]]);
    if u64::from(payload_len) > max_payload {
        return Err(ProtoError::PayloadTooLarge {
            len: u64::from(payload_len),
            max: max_payload,
        }
        .into());
    }
    if header[10] != 0 {
        return Err(ProtoError::BadReserved(header[10]).into());
    }
    let payload = read_bounded(r, payload_len as usize)?;
    Ok(Response { status, payload })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn put_request() -> Request {
        Request {
            opcode: Opcode::Put,
            tenant: "acme".into(),
            name: "density".into(),
            step: 7,
            width: 8,
            payload: vec![0x11; 64],
        }
    }

    fn decode(frame: &[u8], max_payload: u64) -> Result<Request, FrameError> {
        let mut cursor = io::Cursor::new(frame);
        let mut header = [0u8; REQUEST_HEADER_LEN];
        cursor.read_exact(&mut header)?;
        let header = parse_request_header(&header, max_payload)?;
        let (tenant, name) = read_request_fields(&mut cursor, &header)?;
        let payload = read_bounded(&mut cursor, header.payload_len as usize)?;
        Ok(Request {
            opcode: header.opcode,
            tenant,
            name,
            step: header.step,
            width: header.width,
            payload,
        })
    }

    #[test]
    fn encode_decode_round_trips() {
        for req in [
            put_request(),
            Request {
                opcode: Opcode::Get,
                tenant: String::new(),
                name: "phi".into(),
                step: 0,
                width: 0,
                payload: Vec::new(),
            },
            Request {
                opcode: Opcode::Ls,
                tenant: "t1".into(),
                name: String::new(),
                step: 0,
                width: 0,
                payload: Vec::new(),
            },
        ] {
            let frame = encode_request(&req);
            let back = decode(&frame, 1 << 20).expect("valid frame decodes");
            assert_eq!(back, req);
        }
    }

    #[test]
    fn response_round_trips() {
        let mut wire = Vec::new();
        write_response(&mut wire, Status::Ok, b"hello").unwrap();
        let resp = read_response(&mut io::Cursor::new(&wire), 1 << 20).unwrap();
        assert_eq!(resp.status, Status::Ok);
        assert_eq!(resp.payload, b"hello");
    }

    /// The pinned corrupt-frame specimen corpus: each specimen is a
    /// hand-built hostile frame and the exact typed verdict the
    /// decoder must return for it. These are regression pins — if one
    /// starts decoding, the bounded-decode discipline regressed.
    #[test]
    fn corrupt_frame_specimens_get_typed_verdicts() {
        let good = encode_request(&put_request());
        let max = 1 << 20;

        // Specimen 1: wrong magic.
        let mut f = good.clone();
        f[..4].copy_from_slice(b"JUNK");
        assert!(matches!(
            decode(&f, max),
            Err(FrameError::Proto(ProtoError::BadMagic(_)))
        ));

        // Specimen 2: future protocol version.
        let mut f = good.clone();
        f[4] = 9;
        assert!(matches!(
            decode(&f, max),
            Err(FrameError::Proto(ProtoError::BadVersion(9)))
        ));

        // Specimen 3: unknown opcode.
        let mut f = good.clone();
        f[5] = 0xEE;
        assert!(matches!(
            decode(&f, max),
            Err(FrameError::Proto(ProtoError::BadOpcode(0xEE)))
        ));

        // Specimen 4: tenant length above the cap.
        let mut f = good.clone();
        f[6..8].copy_from_slice(&u16::MAX.to_le_bytes());
        assert!(matches!(
            decode(&f, max),
            Err(FrameError::Proto(ProtoError::TenantTooLong(_)))
        ));

        // Specimen 5: name length above the cap.
        let mut f = good.clone();
        f[8..10].copy_from_slice(&u16::MAX.to_le_bytes());
        assert!(matches!(
            decode(&f, max),
            Err(FrameError::Proto(ProtoError::NameTooLong(_)))
        ));

        // Specimen 6: payload length above the server cap — rejected
        // from the header alone, before any payload allocation.
        let mut f = good.clone();
        f[15..19].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            decode(&f, 1024),
            Err(FrameError::Proto(ProtoError::PayloadTooLarge { .. }))
        ));

        // Specimen 7: get with a payload.
        let get = Request {
            opcode: Opcode::Get,
            tenant: String::new(),
            name: "x".into(),
            step: 0,
            width: 0,
            payload: Vec::new(),
        };
        let mut f = encode_request(&get);
        f[15..19].copy_from_slice(&8u32.to_le_bytes());
        assert!(matches!(
            decode(&f, max),
            Err(FrameError::Proto(ProtoError::UnexpectedPayload(2)))
        ));

        // Specimen 8: put with a width of 3.
        let mut f = good.clone();
        f[14] = 3;
        assert!(matches!(
            decode(&f, max),
            Err(FrameError::Proto(ProtoError::BadWidth(3)))
        ));

        // Specimen 9: put whose payload is not whole elements.
        let mut f = good.clone();
        f[15..19].copy_from_slice(&63u32.to_le_bytes());
        assert!(matches!(
            decode(&f, max),
            Err(FrameError::Proto(ProtoError::PayloadNotElements { .. }))
        ));

        // Specimen 10: empty name on a get.
        let mut f = encode_request(&get);
        f[8..10].copy_from_slice(&0u16.to_le_bytes());
        assert!(matches!(
            decode(&f, max),
            Err(FrameError::Proto(ProtoError::EmptyName))
        ));

        // Specimen 11: tenant carrying the reserved separator.
        let mut evil = put_request();
        evil.tenant = "a\u{1f}b".into();
        let f = encode_request(&evil);
        assert!(matches!(
            decode(&f, max),
            Err(FrameError::Proto(ProtoError::ReservedSeparator("tenant")))
        ));

        // Specimen 12: non-UTF-8 name bytes.
        let mut f = good.clone();
        // name starts after header + tenant ("acme" = 4 bytes)
        f[REQUEST_HEADER_LEN + 4] = 0xFF;
        assert!(matches!(
            decode(&f, max),
            Err(FrameError::Proto(ProtoError::BadUtf8("name")))
        ));

        // Specimen 13: frame truncated mid-payload.
        let mut f = good.clone();
        f.truncate(f.len() - 10);
        assert!(matches!(decode(&f, max), Err(FrameError::Io(_))));
    }

    #[test]
    fn bad_response_frames_get_typed_verdicts() {
        let mut wire = Vec::new();
        write_response(&mut wire, Status::Ok, b"x").unwrap();

        let mut f = wire.clone();
        f[5] = 99;
        assert!(matches!(
            read_response(&mut io::Cursor::new(&f), 1024),
            Err(FrameError::Proto(ProtoError::BadStatus(99)))
        ));

        let mut f = wire.clone();
        f[10] = 7;
        assert!(matches!(
            read_response(&mut io::Cursor::new(&f), 1024),
            Err(FrameError::Proto(ProtoError::BadReserved(7)))
        ));

        let mut f = wire;
        f[6..10].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            read_response(&mut io::Cursor::new(&f), 1024),
            Err(FrameError::Proto(ProtoError::PayloadTooLarge { .. }))
        ));
    }

    #[test]
    fn discard_exact_drains_without_buffering() {
        let data = vec![0xAAu8; 100_000];
        let mut cursor = io::Cursor::new(&data);
        discard_exact(&mut cursor, 100_000).unwrap();
        assert_eq!(cursor.position(), 100_000);
        assert!(discard_exact(&mut cursor, 1).is_err(), "EOF is an error");
    }
}
