//! Ethernet-ish frames: the unit the switch forwards and the rings carry.
//!
//! A frame is a small header (destination/source MAC, destination/source
//! port, payload length) plus payload bytes. Frames are *materialized* in
//! guest physical memory — the TX path encodes them into a ring buffer,
//! the RX path decodes them back — so cross-container payload integrity is
//! checkable end to end: the differential tests compare FNV payload hashes
//! across backends, and the backpressure property test tracks every acked
//! frame by hash until it is delivered.

/// A MAC address in the simulated cluster (we use the low 48 bits of a
/// `u64`; addresses are locally administered, derived from container ids).
pub type Mac = u64;

/// Bytes of one ring buffer slot. A frame (header + payload) must fit.
pub const BUF_SIZE: u64 = 2048;

/// Header bytes: dst (8) + src (8) + dst_port (2) + src_port (2) + len (4).
pub const HEADER_BYTES: usize = 24;

/// Largest payload one frame can carry.
pub const MAX_PAYLOAD: usize = BUF_SIZE as usize - HEADER_BYTES;

/// One network frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Destination MAC.
    pub dst: Mac,
    /// Source MAC.
    pub src: Mac,
    /// Destination port (socket demultiplexing key).
    pub dst_port: u16,
    /// Source port.
    pub src_port: u16,
    /// Payload bytes.
    pub payload: Vec<u8>,
}

impl Frame {
    /// Total encoded size in bytes.
    pub fn wire_bytes(&self) -> usize {
        HEADER_BYTES + self.payload.len()
    }

    /// Encodes the frame into a byte buffer (header then payload).
    ///
    /// # Panics
    ///
    /// Panics if the payload exceeds [`MAX_PAYLOAD`].
    pub fn encode(&self) -> Vec<u8> {
        assert!(self.payload.len() <= MAX_PAYLOAD, "oversized frame");
        let mut out = Vec::with_capacity(self.wire_bytes());
        out.extend_from_slice(&self.dst.to_le_bytes());
        out.extend_from_slice(&self.src.to_le_bytes());
        out.extend_from_slice(&self.dst_port.to_le_bytes());
        out.extend_from_slice(&self.src_port.to_le_bytes());
        out.extend_from_slice(&(self.payload.len() as u32).to_le_bytes());
        out.extend_from_slice(&self.payload);
        out
    }

    /// Decodes a frame from `bytes` (as produced by [`Frame::encode`]).
    /// Returns `None` if the buffer is too short or the length field lies.
    pub fn decode(bytes: &[u8]) -> Option<Frame> {
        if bytes.len() < HEADER_BYTES {
            return None;
        }
        let dst = u64::from_le_bytes(bytes[0..8].try_into().ok()?);
        let src = u64::from_le_bytes(bytes[8..16].try_into().ok()?);
        let dst_port = u16::from_le_bytes(bytes[16..18].try_into().ok()?);
        let src_port = u16::from_le_bytes(bytes[18..20].try_into().ok()?);
        let len = u32::from_le_bytes(bytes[20..24].try_into().ok()?) as usize;
        if len > MAX_PAYLOAD || HEADER_BYTES + len > bytes.len() {
            return None;
        }
        Some(Frame {
            dst,
            src,
            dst_port,
            src_port,
            payload: bytes[HEADER_BYTES..HEADER_BYTES + len].to_vec(),
        })
    }

    /// FNV-1a hash of the payload, masked to 63 bits so it survives the
    /// differential tests' `i64` result encoding without colliding with
    /// negative errno sentinels.
    pub fn payload_hash(&self) -> u64 {
        message_hash(std::slice::from_ref(self))
    }
}

/// Hash of a message sent as consecutive `frames`: FNV-1a over their
/// concatenated payloads, masked like [`Frame::payload_hash`]. A one-frame
/// message hashes exactly like its frame.
pub fn message_hash(frames: &[Frame]) -> u64 {
    let h = frames
        .iter()
        .fold(FNV_OFFSET, |h, f| fnv1a_extend(h, &f.payload));
    h & 0x7fff_ffff_ffff_ffff
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a over a byte slice.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_extend(FNV_OFFSET, bytes)
}

fn fnv1a_extend(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Deterministic payload bytes for a (seed, len) pair — how the guest
/// socket layer materializes request/response bodies so payload hashes are
/// reproducible across backends and runs.
pub fn payload_pattern(seed: u64, len: usize) -> Vec<u8> {
    let len = len.min(MAX_PAYLOAD);
    let mut state = seed ^ 0x9e37_79b9_7f4a_7c15;
    let mut out = Vec::with_capacity(len);
    for _ in 0..len {
        // xorshift64* — cheap, deterministic, full-period.
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        out.push((state.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 56) as u8);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_roundtrip() {
        let f = Frame {
            dst: 0x0200_0000_0001,
            src: 0x0200_0000_0002,
            dst_port: 80,
            src_port: 49152,
            payload: payload_pattern(7, 500),
        };
        let bytes = f.encode();
        assert_eq!(bytes.len(), HEADER_BYTES + 500);
        let g = Frame::decode(&bytes).unwrap();
        assert_eq!(f, g);
        assert_eq!(f.payload_hash(), g.payload_hash());
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(Frame::decode(&[0u8; 4]).is_none());
        let mut bytes = Frame {
            dst: 1,
            src: 2,
            dst_port: 3,
            src_port: 4,
            payload: vec![9; 16],
        }
        .encode();
        // Length field claiming more than the buffer holds.
        bytes[20..24].copy_from_slice(&(10_000u32).to_le_bytes());
        assert!(Frame::decode(&bytes).is_none());
    }

    #[test]
    fn payload_pattern_is_deterministic_and_seed_sensitive() {
        assert_eq!(payload_pattern(42, 64), payload_pattern(42, 64));
        assert_ne!(payload_pattern(42, 64), payload_pattern(43, 64));
        assert_eq!(payload_pattern(1, MAX_PAYLOAD + 999).len(), MAX_PAYLOAD);
    }

    #[test]
    fn payload_hash_is_non_negative_as_i64() {
        for seed in 0..64u64 {
            let f = Frame {
                dst: 0,
                src: 0,
                dst_port: 0,
                src_port: 0,
                payload: payload_pattern(seed, 128),
            };
            assert!((f.payload_hash() as i64) >= 0);
        }
    }

    #[test]
    fn message_hash_covers_every_segment_in_order() {
        let seg = |seed, len| Frame {
            dst: 0,
            src: 0,
            dst_port: 0,
            src_port: 0,
            payload: payload_pattern(seed, len),
        };
        let (a, b) = (seg(1, MAX_PAYLOAD), seg(2, 7));
        let whole = [a.payload.clone(), b.payload.clone()].concat();
        assert_eq!(
            message_hash(&[a.clone(), b.clone()]),
            fnv1a(&whole) & 0x7fff_ffff_ffff_ffff
        );
        assert_ne!(
            message_hash(&[a.clone(), b.clone()]),
            message_hash(&[b, a.clone()])
        );
        assert_eq!(message_hash(std::slice::from_ref(&a)), a.payload_hash());
    }
}
