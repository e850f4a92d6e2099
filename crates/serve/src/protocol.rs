//! The length-prefixed wire protocol (dep-free, `std::net`).
//!
//! Every frame, in both directions, is
//!
//! ```text
//! ┌──────────────┬──────────┬─────────────────────┐
//! │ len: u32 LE  │ op: u8   │ payload: len bytes  │
//! └──────────────┴──────────┴─────────────────────┘
//! ```
//!
//! where `len` counts the payload only and is capped at [`MAX_FRAME`].
//! Client→server opcodes: [`OP_EMBED`] (payload = structural Verilog,
//! UTF-8), [`OP_STATS`] (empty payload), [`OP_RELOAD`] (UTF-8 checkpoint
//! path, or empty for the configured watch path), and [`OP_HEALTH`]
//! (empty payload). Server→client: [`OP_EMBEDDING`] (`u32 LE` dimension
//! then that many `f32 LE` values), [`OP_ERROR`] (`u16 LE` [`ErrorCode`]
//! then a UTF-8 message), [`OP_STATS_REPLY`] (UTF-8 JSON),
//! [`OP_RELOAD_REPLY`] (`u64 LE` new generation), and
//! [`OP_HEALTH_REPLY`] (UTF-8 JSON).
//!
//! Malformed input never panics the reader: a truncated frame or transport
//! error surfaces as [`FrameReadError::Io`], an absurd length prefix as
//! [`FrameReadError::Oversized`] *before* any allocation, and a clean
//! close at a frame boundary as `Ok(None)`.

use std::io::{self, ErrorKind, IoSlice, Read, Write};

/// Maximum payload bytes per frame (8 MiB — a multi-hundred-thousand-cell
/// netlist; anything larger is rejected before allocation).
pub const MAX_FRAME: usize = 8 * 1024 * 1024;

/// Client→server: embed the structural-Verilog payload.
pub const OP_EMBED: u8 = 0x01;
/// Client→server: return server statistics.
pub const OP_STATS: u8 = 0x02;
/// Client→server: hot-reload the serving checkpoint. The payload is a
/// UTF-8 checkpoint path, or empty to reload the server's configured
/// watch path (`MOSS_SERVE_CKPT`). The swap is validated first; a bad
/// checkpoint is rejected with [`ErrorCode::Reload`] and the previous
/// generation keeps serving.
pub const OP_RELOAD: u8 = 0x03;
/// Client→server: return liveness/health (empty payload).
pub const OP_HEALTH: u8 = 0x04;
/// Server→client: an embedding (`u32 LE` dim + dim × `f32 LE`).
pub const OP_EMBEDDING: u8 = 0x81;
/// Server→client: a typed error (`u16 LE` code + UTF-8 message).
pub const OP_ERROR: u8 = 0x82;
/// Server→client: statistics as UTF-8 JSON.
pub const OP_STATS_REPLY: u8 = 0x83;
/// Server→client: reload succeeded (`u64 LE` new generation number).
pub const OP_RELOAD_REPLY: u8 = 0x84;
/// Server→client: health snapshot as UTF-8 JSON (uptime, generation,
/// reload and respawn counters, queue depth).
pub const OP_HEALTH_REPLY: u8 = 0x85;

/// Typed error categories carried in [`OP_ERROR`] frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u16)]
pub enum ErrorCode {
    /// The frame itself was malformed (bad opcode, non-UTF-8 payload,
    /// oversized length prefix).
    BadFrame = 1,
    /// The netlist payload failed to parse as structural Verilog.
    Parse = 2,
    /// The netlist parsed but cannot be embedded (e.g. a combinational
    /// cycle).
    Graph = 3,
    /// A deterministic `moss-faults` injection (`MOSS_FAULTS=serve:…`)
    /// poisoned this request — a rehearsed failure, not an organic one.
    Fault = 4,
    /// The scheduler queue is full; retry later.
    Overload = 5,
    /// The server failed internally (e.g. a forward pass panicked).
    Internal = 6,
    /// A checkpoint hot-reload was rejected (corrupt, truncated,
    /// shape-mismatched, or non-finite checkpoint; or the file could not
    /// be read). The previous generation is still serving.
    Reload = 7,
}

impl ErrorCode {
    /// The wire value.
    pub fn as_u16(self) -> u16 {
        self as u16
    }
}

/// One decoded frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Opcode byte.
    pub op: u8,
    /// Payload bytes (`len` of them).
    pub payload: Vec<u8>,
}

/// Why a frame could not be read.
#[derive(Debug)]
pub enum FrameReadError {
    /// Transport failure: disconnect mid-frame, read timeout, reset.
    Io(io::Error),
    /// The length prefix exceeds [`MAX_FRAME`] (the stream is considered
    /// desynchronized and must be dropped after an optional error frame).
    Oversized(u64),
}

/// Reads one frame. Returns `Ok(None)` on a clean close at a frame
/// boundary; any mid-frame close, timeout, or transport error is
/// [`FrameReadError::Io`].
pub fn read_frame<R: Read>(r: &mut R) -> Result<Option<Frame>, FrameReadError> {
    let mut len_buf = [0u8; 4];
    let mut got = 0usize;
    while got < 4 {
        match r.read(&mut len_buf[got..]) {
            Ok(0) if got == 0 => return Ok(None),
            Ok(0) => {
                return Err(FrameReadError::Io(io::Error::new(
                    ErrorKind::UnexpectedEof,
                    "connection closed mid-header",
                )))
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(FrameReadError::Io(e)),
        }
    }
    let len = u64::from(u32::from_le_bytes(len_buf));
    if len > MAX_FRAME as u64 {
        return Err(FrameReadError::Oversized(len));
    }
    let mut op = [0u8; 1];
    r.read_exact(&mut op).map_err(FrameReadError::Io)?;
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload).map_err(FrameReadError::Io)?;
    Ok(Some(Frame { op: op[0], payload }))
}

/// Writes one frame and flushes.
///
/// Header and payload go out through vectored writes, so on a socket a
/// frame is one `writev` (one segment under `TCP_NODELAY`), not three
/// writes, and the payload is never copied. A writer that takes only part
/// of the frame is called again with the rest.
///
/// # Errors
///
/// Propagates transport errors ([`ErrorKind::WriteZero`] if the writer
/// stops accepting bytes); rejects payloads over [`MAX_FRAME`].
pub fn write_frame<W: Write>(w: &mut W, op: u8, payload: &[u8]) -> io::Result<()> {
    if payload.len() > MAX_FRAME {
        return Err(io::Error::new(
            ErrorKind::InvalidInput,
            "frame payload exceeds MAX_FRAME",
        ));
    }
    let mut header = [0u8; 5];
    header[..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    header[4] = op;
    let mut slices = [IoSlice::new(&header), IoSlice::new(payload)];
    let mut rest: &mut [IoSlice<'_>] = &mut slices;
    while !rest.is_empty() {
        match w.write_vectored(rest) {
            Ok(0) => {
                return Err(io::Error::new(
                    ErrorKind::WriteZero,
                    "failed to write the whole frame",
                ))
            }
            Ok(n) => IoSlice::advance_slices(&mut rest, n),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    w.flush()
}

/// Encodes an [`OP_ERROR`] payload.
pub fn error_payload(code: ErrorCode, message: &str) -> Vec<u8> {
    let mut out = Vec::with_capacity(2 + message.len());
    out.extend_from_slice(&code.as_u16().to_le_bytes());
    out.extend_from_slice(message.as_bytes());
    out
}

/// Decodes an [`OP_ERROR`] payload into `(code, message)`.
pub fn decode_error(payload: &[u8]) -> Option<(u16, String)> {
    if payload.len() < 2 {
        return None;
    }
    let code = u16::from_le_bytes([payload[0], payload[1]]);
    let message = String::from_utf8_lossy(&payload[2..]).into_owned();
    Some((code, message))
}

/// Encodes an [`OP_EMBEDDING`] payload.
pub fn embedding_payload(embedding: &[f32]) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + 4 * embedding.len());
    out.extend_from_slice(&(embedding.len() as u32).to_le_bytes());
    for v in embedding {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

/// Encodes an [`OP_RELOAD_REPLY`] payload.
pub fn reload_payload(generation: u64) -> Vec<u8> {
    generation.to_le_bytes().to_vec()
}

/// Decodes an [`OP_RELOAD_REPLY`] payload; `None` on a wrong length.
pub fn decode_reload(payload: &[u8]) -> Option<u64> {
    let bytes: [u8; 8] = payload.try_into().ok()?;
    Some(u64::from_le_bytes(bytes))
}

/// Decodes an [`OP_EMBEDDING`] payload; `None` if the dimension header
/// disagrees with the payload length.
pub fn decode_embedding(payload: &[u8]) -> Option<Vec<f32>> {
    if payload.len() < 4 {
        return None;
    }
    let dim = u32::from_le_bytes([payload[0], payload[1], payload[2], payload[3]]) as usize;
    let body = &payload[4..];
    if body.len() != dim * 4 {
        return None;
    }
    Some(
        body.chunks_exact(4)
            .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn frame_round_trips() {
        let mut buf = Vec::new();
        write_frame(&mut buf, OP_EMBED, b"module m (); endmodule").unwrap();
        let f = read_frame(&mut Cursor::new(&buf)).unwrap().unwrap();
        assert_eq!(f.op, OP_EMBED);
        assert_eq!(f.payload, b"module m (); endmodule");
    }

    /// Accepts 1, 2 or 3 bytes per call (cycling), across slice
    /// boundaries, and counts the calls.
    struct Trickle {
        out: Vec<u8>,
        calls: usize,
        interrupt_every: usize,
    }

    impl Write for Trickle {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            self.calls += 1;
            if self.interrupt_every > 0 && self.calls.is_multiple_of(self.interrupt_every) {
                return Err(io::Error::from(ErrorKind::Interrupted));
            }
            let budget = 1 + self.calls % 3;
            let before = self.out.len();
            for b in bufs {
                let take = (budget - (self.out.len() - before)).min(b.len());
                self.out.extend_from_slice(&b[..take]);
            }
            Ok(self.out.len() - before)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn partial_writes_still_deliver_the_exact_frame() {
        for payload in [
            &b""[..],
            b"x",
            b"module m (); endmodule",
            &[0xffu8; 300][..],
        ] {
            for interrupt_every in [0, 4] {
                let mut w = Trickle {
                    out: Vec::new(),
                    calls: 0,
                    interrupt_every,
                };
                write_frame(&mut w, OP_EMBEDDING, payload).unwrap();
                let mut want = (payload.len() as u32).to_le_bytes().to_vec();
                want.push(OP_EMBEDDING);
                want.extend_from_slice(payload);
                assert_eq!(w.out, want);
                let f = read_frame(&mut Cursor::new(&w.out)).unwrap().unwrap();
                assert_eq!((f.op, f.payload.as_slice()), (OP_EMBEDDING, payload));
            }
        }
    }

    #[test]
    fn a_willing_writer_takes_the_frame_in_one_call() {
        struct Counting(Vec<u8>, usize);
        impl Write for Counting {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.1 += 1;
                self.0.extend_from_slice(buf);
                Ok(buf.len())
            }
            fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
                self.1 += 1;
                bufs.iter().for_each(|b| self.0.extend_from_slice(b));
                Ok(bufs.iter().map(|b| b.len()).sum())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut w = Counting(Vec::new(), 0);
        write_frame(&mut w, OP_EMBED, b"abc").unwrap();
        assert_eq!(w.1, 1);
        assert_eq!(w.0, [3, 0, 0, 0, OP_EMBED, b'a', b'b', b'c']);
    }

    #[test]
    fn a_writer_that_stops_accepting_is_write_zero() {
        let mut full = [0u8; 3];
        let err = write_frame(&mut &mut full[..], OP_EMBED, b"abc").unwrap_err();
        assert_eq!(err.kind(), ErrorKind::WriteZero);
    }

    #[test]
    fn clean_close_is_none_and_midframe_close_is_io() {
        assert!(matches!(read_frame(&mut Cursor::new(&[])), Ok(None)));
        // Partial header.
        assert!(matches!(
            read_frame(&mut Cursor::new(&[1u8, 0])),
            Err(FrameReadError::Io(_))
        ));
        // Header promises more payload than arrives.
        let mut buf = Vec::new();
        write_frame(&mut buf, OP_EMBED, b"abcdef").unwrap();
        buf.truncate(buf.len() - 3);
        assert!(matches!(
            read_frame(&mut Cursor::new(&buf)),
            Err(FrameReadError::Io(_))
        ));
    }

    #[test]
    fn oversized_prefix_is_rejected_before_allocation() {
        let mut buf = u32::MAX.to_le_bytes().to_vec();
        buf.push(OP_EMBED);
        match read_frame(&mut Cursor::new(&buf)) {
            Err(FrameReadError::Oversized(n)) => assert_eq!(n, u64::from(u32::MAX)),
            other => panic!("expected Oversized, got {other:?}"),
        }
    }

    #[test]
    fn embedding_payload_round_trips() {
        let emb = [0.25f32, -1.5, 3.75e-5, f32::MIN_POSITIVE];
        let p = embedding_payload(&emb);
        assert_eq!(decode_embedding(&p).unwrap(), emb);
        assert_eq!(decode_embedding(&p[..p.len() - 1]), None);
        assert_eq!(decode_embedding(&[]), None);
    }

    #[test]
    fn reload_payload_round_trips() {
        assert_eq!(decode_reload(&reload_payload(0)), Some(0));
        assert_eq!(decode_reload(&reload_payload(u64::MAX)), Some(u64::MAX));
        assert_eq!(decode_reload(&[1, 2, 3]), None);
        assert_eq!(decode_reload(&[]), None);
    }

    #[test]
    fn error_payload_round_trips() {
        let p = error_payload(ErrorCode::Parse, "bad verilog");
        assert_eq!(decode_error(&p).unwrap(), (2, "bad verilog".to_string()));
        assert_eq!(decode_error(&[1]), None);
    }
}
