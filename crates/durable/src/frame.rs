//! CRC32-framed, length-prefixed encoding for the write-ahead log's slots,
//! the poison file and the pipeline checkpoint files.
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
//! checksum matches; anything else is torn or corrupt. A log slot's payload
//! is the counter's **absolute** value, so a slot that verifies is a
//! correct — merely possibly earlier — state of a monotone counter.

use mc_counter::{FailureInfo, Value};

/// Bytes of frame header preceding every payload: `u32` length + `u32` CRC.
pub const FRAME_HEADER: usize = 8;

/// Frames larger than this are rejected as corrupt rather than allocated.
/// No legitimate frame comes anywhere near it; a flipped bit in the length
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

/// A log slot's frame: the absolute counter value, as 8 little-endian
/// payload bytes.
pub(crate) fn slot_frame(value: Value) -> Vec<u8> {
    let mut out = Vec::with_capacity(FRAME_HEADER + 8);
    write_frame(&mut out, &value.to_le_bytes());
    out
}

/// The value a log slot holds, or `None` when it does not verify (a write
/// torn by a crash, or foreign bytes). A slot that was never written is
/// zeros, which read as a frame with an empty payload (the CRC32 of nothing
/// is 0): the value 0 the log was created at.
pub(crate) fn slot_value(slot: &[u8]) -> Option<Value> {
    match read_frame(slot, 0) {
        FrameRead::Frame { payload: [], .. } => Some(0),
        FrameRead::Frame { payload, .. } => Some(u64::from_le_bytes(payload.try_into().ok()?)),
        FrameRead::End | FrameRead::Corrupt => None,
    }
}

/// The poison file's one frame: a level tag (`0`, or `1` followed by the
/// level), then the thread and the message, each prefixed by its `u32`
/// length.
pub(crate) fn poison_frame(info: &FailureInfo) -> Vec<u8> {
    let mut payload = Vec::with_capacity(17 + info.thread().len() + info.message().len());
    match info.level() {
        Some(l) => {
            payload.push(1);
            payload.extend_from_slice(&l.to_le_bytes());
        }
        None => payload.push(0),
    }
    for field in [info.thread(), info.message()] {
        payload.extend_from_slice(&(field.len() as u32).to_le_bytes());
        payload.extend_from_slice(field.as_bytes());
    }
    let mut out = Vec::with_capacity(FRAME_HEADER + payload.len());
    write_frame(&mut out, &payload);
    out
}

/// Decodes exactly the bytes [`poison_frame`] writes: `None` for a frame
/// that does not verify, trailing bytes, a bad level tag, a short field or
/// invalid UTF-8.
pub(crate) fn decode_poison_frame(bytes: &[u8]) -> Option<FailureInfo> {
    let FrameRead::Frame { payload, next } = read_frame(bytes, 0) else {
        return None;
    };
    if next != bytes.len() {
        return None;
    }
    let (level, mut rest) = match payload.split_first()? {
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
    if !rest.is_empty() {
        return None;
    }
    let info = FailureInfo::new(message).with_thread(thread);
    Some(match level {
        Some(l) => info.with_level(l),
        None => info,
    })
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
    fn poison_frame_round_trip() {
        let causes = [
            FailureInfo::new("producer died mid-protocol")
                .with_thread("worker-3")
                .with_level(42),
            FailureInfo::new("").with_thread(""),
        ];
        for info in &causes {
            assert_eq!(
                decode_poison_frame(&poison_frame(info)).as_ref(),
                Some(info)
            );
        }
    }

    #[test]
    fn malformed_poison_frames_decode_to_none() {
        let framed = |payload: &[u8]| {
            let mut out = Vec::new();
            write_frame(&mut out, payload);
            out
        };
        assert!(decode_poison_frame(&[]).is_none());
        assert!(decode_poison_frame(&framed(&[])).is_none());
        assert!(decode_poison_frame(&framed(&[7, 0, 0, 0, 0])).is_none());
        assert!(decode_poison_frame(&framed(&[0, 9, 0, 0, 0])).is_none());
        assert!(decode_poison_frame(&framed(&[0, 1, 0, 0, 0, 0xFF, 0, 0, 0, 0])).is_none());
        let mut ok = poison_frame(&FailureInfo::new("x"));
        ok.push(0); // trailing garbage
        assert!(decode_poison_frame(&ok).is_none());
    }

    #[test]
    fn slot_values_decode_only_whole_frames() {
        let mut slot = vec![0u8; 64];
        assert_eq!(slot_value(&slot), Some(0), "a zero slot was never written");
        let frame = slot_frame(0x0102_0304_0506_0708);
        slot[..frame.len()].copy_from_slice(&frame);
        assert_eq!(slot_value(&slot), Some(0x0102_0304_0506_0708));
        for cut in 1..frame.len() {
            let mut torn = vec![0u8; 64];
            torn[..cut].copy_from_slice(&frame[..cut]);
            assert_eq!(slot_value(&torn), None, "cut at {cut}");
        }
        let mut short = Vec::new();
        write_frame(&mut short, &[1, 2, 3]);
        assert_eq!(slot_value(&short), None, "a payload that is not 8 bytes");
    }
}
