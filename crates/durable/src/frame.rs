//! CRC32-framed, length-prefixed record encoding for the write-ahead log
//! and the pipeline checkpoint files.
//!
//! Every frame on disk is:
//!
//! ```text
//! +----------------+----------------+=====================+
//! | len: u32 LE    | crc: u32 LE    | payload (len bytes) |
//! +----------------+----------------+=====================+
//! ```
//!
//! `crc` is the IEEE CRC32 of the payload bytes. A reader accepts a frame
//! only when the full header and `len` payload bytes are present *and* the
//! checksum matches; anything else is a torn or corrupt tail and reading
//! stops at the last verified frame. Because counter records carry absolute
//! values (see [`WalRecord::Advance`]) and counters are monotonic, replaying
//! any verified prefix yields a correct — merely possibly earlier — state.

use mc_counter::Value;

/// Bytes of frame header preceding every payload: `u32` length + `u32` CRC.
pub const FRAME_HEADER: usize = 8;

/// Frames larger than this are rejected as corrupt rather than allocated.
/// No legitimate record comes anywhere near it; a flipped bit in the length
/// field must not turn into a multi-gigabyte allocation.
pub const MAX_FRAME_LEN: u32 = 1 << 20;

const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

/// IEEE CRC32 checksum of `bytes` (the polynomial used by zip/png/ethernet).
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = !0u32;
    for &b in bytes {
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

/// Appends one framed payload (`header + payload`) to `out`.
pub fn write_frame(out: &mut Vec<u8>, payload: &[u8]) {
    debug_assert!(payload.len() <= MAX_FRAME_LEN as usize);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
}

/// The result of attempting to read one frame at `offset` in `bytes`.
pub enum FrameRead<'a> {
    /// A verified frame: its payload and the offset of the next frame.
    Frame {
        /// The CRC-verified payload bytes.
        payload: &'a [u8],
        /// Offset of the byte after this frame (where the next one starts).
        next: usize,
    },
    /// Clean end of input: `offset` is exactly the end of the buffer.
    End,
    /// Torn or corrupt data at `offset` — a partial header, a partial
    /// payload, an oversized length, or a checksum mismatch. Everything
    /// from `offset` on must be discarded.
    Corrupt,
}

/// Reads the frame starting at `offset`, verifying length and checksum.
pub fn read_frame(bytes: &[u8], offset: usize) -> FrameRead<'_> {
    if offset == bytes.len() {
        return FrameRead::End;
    }
    let Some(header) = bytes.get(offset..offset + FRAME_HEADER) else {
        return FrameRead::Corrupt;
    };
    let len = u32::from_le_bytes(header[..4].try_into().expect("4 bytes"));
    let crc = u32::from_le_bytes(header[4..].try_into().expect("4 bytes"));
    if len > MAX_FRAME_LEN {
        return FrameRead::Corrupt;
    }
    let start = offset + FRAME_HEADER;
    let Some(payload) = bytes.get(start..start + len as usize) else {
        return FrameRead::Corrupt;
    };
    if crc32(payload) != crc {
        return FrameRead::Corrupt;
    }
    FrameRead::Frame {
        payload,
        next: start + len as usize,
    }
}

const TAG_ADVANCE: u8 = 1;
const TAG_POISON: u8 = 2;

/// One durable event in a counter's write-ahead log.
///
/// `Advance` records carry the **absolute** value rather than a delta:
/// combined with monotonicity, that makes replay idempotent by construction
/// — recovery is simply the running maximum over the verified prefix, so
/// replaying a record twice (e.g. a record both covered by a snapshot and
/// still present in the log after a crash mid-truncation) cannot inflate
/// the value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalRecord {
    /// The counter's durable value reached `value`.
    Advance {
        /// Monotonically increasing record sequence number.
        seq: u64,
        /// The absolute counter value as of this record.
        value: Value,
    },
    /// The counter was poisoned.
    Poison {
        /// Monotonically increasing record sequence number.
        seq: u64,
        /// Name of the thread that failed.
        thread: String,
        /// The failure description.
        message: String,
        /// Optional level context attached to the failure.
        level: Option<Value>,
    },
}

impl WalRecord {
    /// This record's sequence number.
    pub fn seq(&self) -> u64 {
        match self {
            WalRecord::Advance { seq, .. } | WalRecord::Poison { seq, .. } => *seq,
        }
    }

    /// Encodes the record payload (unframed).
    pub fn encode(&self) -> Vec<u8> {
        match self {
            WalRecord::Advance { seq, value } => {
                let mut out = Vec::with_capacity(17);
                out.push(TAG_ADVANCE);
                out.extend_from_slice(&seq.to_le_bytes());
                out.extend_from_slice(&value.to_le_bytes());
                out
            }
            WalRecord::Poison {
                seq,
                thread,
                message,
                level,
            } => {
                let mut out = Vec::with_capacity(26 + thread.len() + message.len());
                out.push(TAG_POISON);
                out.extend_from_slice(&seq.to_le_bytes());
                encode_poison(&mut out, thread, message, *level);
                out
            }
        }
    }

    /// Encodes the record as a complete frame (header + payload).
    pub fn encode_framed(&self) -> Vec<u8> {
        let payload = self.encode();
        let mut out = Vec::with_capacity(FRAME_HEADER + payload.len());
        write_frame(&mut out, &payload);
        out
    }

    /// Decodes a record payload produced by [`encode`](Self::encode).
    ///
    /// Returns `None` for any malformed payload (unknown tag, short buffer,
    /// trailing garbage, invalid UTF-8) — never panics. The caller treats a
    /// malformed record inside a CRC-verified frame the same as a corrupt
    /// frame: the verified prefix ends there.
    pub fn decode(payload: &[u8]) -> Option<WalRecord> {
        let (&tag, rest) = payload.split_first()?;
        match tag {
            TAG_ADVANCE => {
                if rest.len() != 16 {
                    return None;
                }
                let seq = u64::from_le_bytes(rest[..8].try_into().ok()?);
                let value = u64::from_le_bytes(rest[8..].try_into().ok()?);
                Some(WalRecord::Advance { seq, value })
            }
            TAG_POISON => {
                let seq = u64::from_le_bytes(rest.get(..8)?.try_into().ok()?);
                let (thread, message, level) = decode_poison(&rest[8..])?;
                Some(WalRecord::Poison {
                    seq,
                    thread: thread.to_string(),
                    message: message.to_string(),
                    level,
                })
            }
            _ => None,
        }
    }
}

/// Appends the poison fields a [`WalRecord::Poison`] and a snapshot share:
/// a level tag (`0`, or `1` followed by the level), then the thread and
/// the message, each prefixed by its `u32` length.
pub(crate) fn encode_poison(out: &mut Vec<u8>, thread: &str, message: &str, level: Option<Value>) {
    match level {
        Some(l) => {
            out.push(1);
            out.extend_from_slice(&l.to_le_bytes());
        }
        None => out.push(0),
    }
    for field in [thread, message] {
        out.extend_from_slice(&(field.len() as u32).to_le_bytes());
        out.extend_from_slice(field.as_bytes());
    }
}

/// Decodes exactly the bytes [`encode_poison`] writes as
/// `(thread, message, level)`: `None` for a bad level tag, a short buffer,
/// invalid UTF-8 or trailing bytes.
pub(crate) fn decode_poison(bytes: &[u8]) -> Option<(&str, &str, Option<Value>)> {
    let (level, mut rest) = match bytes.split_first()? {
        (0, rest) => (None, rest),
        (1, rest) => {
            let (l, rest) = rest.split_first_chunk::<8>()?;
            (Some(u64::from_le_bytes(*l)), rest)
        }
        _ => return None,
    };
    let mut field = || {
        let (len, tail) = rest.split_first_chunk::<4>()?;
        let len = u32::from_le_bytes(*len) as usize;
        let s = std::str::from_utf8(tail.get(..len)?).ok()?;
        rest = &tail[len..];
        Some(s)
    };
    let (thread, message) = (field()?, field()?);
    rest.is_empty().then_some((thread, message, level))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // The classic IEEE CRC32 test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn frame_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello");
        write_frame(&mut buf, b"");
        write_frame(&mut buf, b"world!");
        let FrameRead::Frame { payload, next } = read_frame(&buf, 0) else {
            panic!("first frame unreadable");
        };
        assert_eq!(payload, b"hello");
        let FrameRead::Frame { payload, next } = read_frame(&buf, next) else {
            panic!("second frame unreadable");
        };
        assert_eq!(payload, b"");
        let FrameRead::Frame { payload, next } = read_frame(&buf, next) else {
            panic!("third frame unreadable");
        };
        assert_eq!(payload, b"world!");
        assert!(matches!(read_frame(&buf, next), FrameRead::End));
    }

    #[test]
    fn truncated_and_corrupt_frames_are_rejected() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"payload");
        // Torn header.
        assert!(matches!(read_frame(&buf[..4], 0), FrameRead::Corrupt));
        // Torn payload.
        assert!(matches!(
            read_frame(&buf[..buf.len() - 1], 0),
            FrameRead::Corrupt
        ));
        // Flipped payload bit.
        let mut bad = buf.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0x40;
        assert!(matches!(read_frame(&bad, 0), FrameRead::Corrupt));
        // Absurd length field.
        let mut huge = buf;
        huge[..4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(read_frame(&huge, 0), FrameRead::Corrupt));
    }

    #[test]
    fn record_round_trip() {
        let records = [
            WalRecord::Advance { seq: 0, value: 0 },
            WalRecord::Advance {
                seq: 7,
                value: u64::MAX,
            },
            WalRecord::Poison {
                seq: 8,
                thread: "worker-3".into(),
                message: "producer died mid-protocol".into(),
                level: Some(42),
            },
            WalRecord::Poison {
                seq: 9,
                thread: String::new(),
                message: String::new(),
                level: None,
            },
        ];
        for r in &records {
            assert_eq!(WalRecord::decode(&r.encode()).as_ref(), Some(r));
        }
    }

    #[test]
    fn malformed_payloads_decode_to_none() {
        assert!(WalRecord::decode(&[]).is_none());
        assert!(WalRecord::decode(&[99, 0, 0]).is_none());
        assert!(WalRecord::decode(&[TAG_ADVANCE, 1, 2]).is_none());
        let mut ok = WalRecord::Advance { seq: 1, value: 2 }.encode();
        ok.push(0); // trailing garbage
        assert!(WalRecord::decode(&ok).is_none());
    }
}
