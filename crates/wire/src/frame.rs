//! Length-delimited record framing for append-only storage files.
//!
//! The ledger's durable block store (`SegmentStore`) lays blocks out as a
//! sequence of frames — `[u32 le length][payload]` — inside append-only
//! files. The framing lives here, next to the rest of the wire format, so the
//! on-disk layout is specified in exactly one place and the store (plus any
//! future replication / snapshot shipping code) shares one implementation.
//!
//! Segment files additionally open with a [`SegmentHeader`] identifying the
//! file format and the segment's position in the sequence, so a directory of
//! segments can be re-assembled after restart without trusting file names.

use crate::{Codec, Reader, WireError, Writer};
use std::io::{self, Read, Write};

/// Magic bytes opening every segment file (`BPSG` = BlockProv SeGment).
pub const SEGMENT_MAGIC: [u8; 4] = *b"BPSG";

/// Current segment file format version.
pub const SEGMENT_VERSION: u16 = 1;

/// Bytes of framing overhead per record (the `u32` length prefix).
pub const FRAME_OVERHEAD: u64 = 4;

/// Header opening a segment file: magic, format version, sequence number.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentHeader {
    /// Format version (readers reject versions they do not understand).
    pub version: u16,
    /// Zero-based position of this segment in the store's sequence.
    pub segment_id: u32,
}

impl SegmentHeader {
    /// Encoded size: 4 magic + 2 version + 4 id.
    pub const ENCODED_LEN: usize = 10;

    /// Header for segment `segment_id` at the current format version.
    pub fn new(segment_id: u32) -> Self {
        Self {
            version: SEGMENT_VERSION,
            segment_id,
        }
    }
}

impl Codec for SegmentHeader {
    fn encode(&self, w: &mut Writer) {
        w.put_raw(&SEGMENT_MAGIC);
        w.put_u16(self.version);
        w.put_u32(self.segment_id);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let magic = r.get_raw(4)?;
        if magic != SEGMENT_MAGIC {
            return Err(WireError::Invalid("bad segment magic"));
        }
        let version = r.get_u16()?;
        if version != SEGMENT_VERSION {
            return Err(WireError::Invalid("unsupported segment version"));
        }
        Ok(Self {
            version,
            segment_id: r.get_u32()?,
        })
    }
}

/// Total on-disk size of a frame carrying `payload_len` bytes.
pub fn frame_len(payload_len: usize) -> u64 {
    FRAME_OVERHEAD + payload_len as u64
}

/// Append one frame to a wire buffer.
pub fn put_frame(w: &mut Writer, payload: &[u8]) {
    w.put_u32(payload.len() as u32);
    w.put_raw(payload);
}

/// Read one frame from a wire reader, borrowing the payload.
pub fn get_frame<'a>(r: &mut Reader<'a>) -> Result<&'a [u8], WireError> {
    let len = r.get_u32()? as usize;
    r.get_raw(len)
}

/// Write one frame to an `io` sink (no flush — callers batch and flush once).
///
/// Rejects payloads over [`crate::MAX_LEN`] *before* anything hits the sink:
/// [`read_frame_from`] enforces the same bound, so an oversized frame that
/// were written durably could never be read back — the store would brick on
/// reopen.
pub fn write_frame_to<W: Write>(w: &mut W, payload: &[u8]) -> io::Result<()> {
    if payload.len() > crate::MAX_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!(
                "frame length {} exceeds limit {} (would be unreadable)",
                payload.len(),
                crate::MAX_LEN
            ),
        ));
    }
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload)
}

/// Read the next frame from an `io` source.
///
/// Returns `Ok(None)` on a clean end-of-stream (EOF exactly at a frame
/// boundary); a partial frame is an error, so torn trailing writes surface
/// loudly instead of being silently dropped.
pub fn read_frame_from<R: Read>(r: &mut R) -> io::Result<Option<Vec<u8>>> {
    let mut len_buf = [0u8; 4];
    match r.read_exact(&mut len_buf) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let len = u32::from_le_bytes(len_buf) as usize;
    if len > crate::MAX_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds limit {}", crate::MAX_LEN),
        ));
    }
    let mut body = vec![0u8; len];
    r.read_exact(&mut body)?;
    Ok(Some(body))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn segment_header_round_trip() {
        let h = SegmentHeader::new(7);
        let bytes = h.to_wire();
        assert_eq!(bytes.len(), SegmentHeader::ENCODED_LEN);
        assert_eq!(SegmentHeader::from_wire(&bytes).unwrap(), h);
    }

    #[test]
    fn segment_header_rejects_bad_magic_and_version() {
        let mut bytes = SegmentHeader::new(0).to_wire();
        bytes[0] = b'X';
        assert!(SegmentHeader::from_wire(&bytes).is_err());

        let mut bytes = SegmentHeader::new(0).to_wire();
        bytes[4] = 0xFF; // version low byte
        assert!(SegmentHeader::from_wire(&bytes).is_err());
    }

    #[test]
    fn frame_round_trip_in_memory() {
        let mut w = Writer::new();
        put_frame(&mut w, b"alpha");
        put_frame(&mut w, b"");
        put_frame(&mut w, &[9u8; 300]);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(get_frame(&mut r).unwrap(), b"alpha");
        assert_eq!(get_frame(&mut r).unwrap(), b"");
        assert_eq!(get_frame(&mut r).unwrap(), &[9u8; 300][..]);
        assert!(r.is_exhausted());
    }

    #[test]
    fn frame_round_trip_through_io() {
        let mut buf = Vec::new();
        write_frame_to(&mut buf, b"one").unwrap();
        write_frame_to(&mut buf, b"two").unwrap();
        let mut cursor = std::io::Cursor::new(buf);
        assert_eq!(read_frame_from(&mut cursor).unwrap().unwrap(), b"one");
        assert_eq!(read_frame_from(&mut cursor).unwrap().unwrap(), b"two");
        assert_eq!(read_frame_from(&mut cursor).unwrap(), None);
    }

    #[test]
    fn torn_trailing_frame_is_an_error_not_eof() {
        let mut buf = Vec::new();
        write_frame_to(&mut buf, b"whole").unwrap();
        buf.extend_from_slice(&(100u32).to_le_bytes());
        buf.extend_from_slice(b"short");
        let mut cursor = std::io::Cursor::new(buf);
        assert!(read_frame_from(&mut cursor).unwrap().is_some());
        assert!(read_frame_from(&mut cursor).is_err());
    }

    #[test]
    fn oversized_frame_rejected_at_write_time() {
        let payload = vec![0u8; crate::MAX_LEN + 1];
        let mut buf = Vec::new();
        let err = write_frame_to(&mut buf, &payload).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
        assert!(buf.is_empty(), "nothing written for a rejected frame");
    }

    #[test]
    fn frame_length_bomb_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(u32::MAX).to_le_bytes());
        buf.extend_from_slice(&[0u8; 8]);
        let mut cursor = std::io::Cursor::new(buf);
        assert!(read_frame_from(&mut cursor).is_err());
    }

    #[test]
    fn frame_len_accounts_for_prefix() {
        assert_eq!(frame_len(0), 4);
        assert_eq!(frame_len(100), 104);
    }
}
