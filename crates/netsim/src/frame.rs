//! Ethernet-ish frames: the unit the switch forwards and the rings carry.
//!
//! A frame is a small header (destination/source MAC, destination/source
//! port, payload length) plus payload bytes. Frames are *materialized* in
//! guest physical memory — [`Frame::write_to`] puts the header and then the
//! payload straight into a ring buffer slot, [`Frame::read_from`] reads them
//! back into the frame's one payload buffer — so cross-container payload
//! integrity is checkable end to end: the differential tests compare FNV
//! payload hashes across backends, and the backpressure property test
//! tracks every acked frame by hash until it is delivered.
//!
//! Each payload byte is hashed once per side. [`payload_pattern_hashed`]
//! generates a sender's bytes and folds them into a running FNV-1a state in
//! the same pass; [`hash_payloads`] hashes a receiver's drained frames four
//! at a time. [`fnv1a`], [`message_hash`] and [`Frame::payload_hash`] are
//! the byte-serial references both are tested against.

use sim_mem::PhysMem;

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

    /// Writes the frame into guest memory at `pa`: the header, then the
    /// payload, [`Frame::wire_bytes`] bytes in all.
    ///
    /// # Panics
    ///
    /// Panics if the payload exceeds [`MAX_PAYLOAD`].
    pub fn write_to(&self, mem: &mut PhysMem, pa: u64) {
        assert!(self.payload.len() <= MAX_PAYLOAD, "oversized frame");
        let mut header = [0u8; HEADER_BYTES];
        header[0..8].copy_from_slice(&self.dst.to_le_bytes());
        header[8..16].copy_from_slice(&self.src.to_le_bytes());
        header[16..18].copy_from_slice(&self.dst_port.to_le_bytes());
        header[18..20].copy_from_slice(&self.src_port.to_le_bytes());
        header[20..24].copy_from_slice(&(self.payload.len() as u32).to_le_bytes());
        mem.write_bytes(pa, &header);
        mem.write_bytes(pa + HEADER_BYTES as u64, &self.payload);
    }

    /// Reads the frame in the `len`-byte buffer at `pa` (as written by
    /// [`Frame::write_to`]). Returns `None` if the buffer is shorter than a
    /// header or the length field lies: more than [`MAX_PAYLOAD`], or more
    /// than the buffer holds. Never reads past `pa + len`.
    pub fn read_from(mem: &mut PhysMem, pa: u64, len: usize) -> Option<Frame> {
        if len < HEADER_BYTES {
            return None;
        }
        let mut header = [0u8; HEADER_BYTES];
        mem.read_bytes(pa, &mut header);
        let field = |at: usize| u64::from_le_bytes(header[at..at + 8].try_into().expect("8 bytes"));
        let half = |at: usize| u16::from_le_bytes([header[at], header[at + 1]]);
        let payload_len = u32::from_le_bytes(header[20..24].try_into().expect("4 bytes")) as usize;
        if payload_len > MAX_PAYLOAD || HEADER_BYTES + payload_len > len {
            return None;
        }
        let mut payload = vec![0u8; payload_len];
        mem.read_bytes(pa + HEADER_BYTES as u64, &mut payload);
        Some(Frame {
            dst: field(0),
            src: field(8),
            dst_port: half(16),
            src_port: half(18),
            payload,
        })
    }

    /// FNV-1a hash of the payload, masked to 63 bits so it survives the
    /// differential tests' `i64` result encoding without colliding with
    /// negative errno sentinels. Byte-serial: the reference for
    /// [`hash_payloads`].
    pub fn payload_hash(&self) -> u64 {
        message_hash(std::slice::from_ref(self))
    }
}

/// Hash of a message sent as consecutive `frames`: FNV-1a over their
/// concatenated payloads, masked like [`Frame::payload_hash`]. A one-frame
/// message hashes exactly like its frame. Byte-serial: the reference for
/// [`payload_pattern_hashed`] threaded across a message's segments.
pub fn message_hash(frames: &[Frame]) -> u64 {
    let h = frames
        .iter()
        .fold(FNV_OFFSET, |h, f| fnv1a_extend(h, &f.payload));
    finish_hash(h)
}

/// FNV-1a state of an empty message: where a running hash starts.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// The hash a running FNV-1a state stands for, masked to 63 bits like
/// [`Frame::payload_hash`].
pub fn finish_hash(h: u64) -> u64 {
    h & 0x7fff_ffff_ffff_ffff
}

fn fnv1a_step(h: u64, b: u8) -> u64 {
    (h ^ b as u64).wrapping_mul(FNV_PRIME)
}

/// FNV-1a over a byte slice.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_extend(FNV_OFFSET, bytes)
}

fn fnv1a_extend(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| fnv1a_step(h, b))
}

/// Deterministic payload bytes for a (seed, len) pair — how the guest
/// socket layer materializes request/response bodies so payload hashes are
/// reproducible across backends and runs. `len` is clamped to
/// [`MAX_PAYLOAD`].
pub fn payload_pattern(seed: u64, len: usize) -> Vec<u8> {
    payload_pattern_hashed(seed, len, FNV_OFFSET).0
}

/// The one payload generator: [`payload_pattern`]'s bytes for
/// `(seed, len)`, and the FNV-1a state `h` extended by them, in one pass.
/// The xorshift chain that makes the bytes and the multiply chain that
/// hashes them are independent, so they overlap. Threading `h` through a
/// message's segments gives its [`message_hash`] via [`finish_hash`].
pub fn payload_pattern_hashed(seed: u64, len: usize, mut h: u64) -> (Vec<u8>, u64) {
    let len = len.min(MAX_PAYLOAD);
    let mut state = seed ^ 0x9e37_79b9_7f4a_7c15;
    let bytes = (0..len)
        .map(|_| {
            // xorshift64* — cheap, deterministic, full-period.
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            let b = (state.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 56) as u8;
            h = fnv1a_step(h, b);
            b
        })
        .collect();
    (bytes, h)
}

/// [`Frame::payload_hash`] of each of `frames`, in order. Frames are
/// hashed four at a time in interleaved FNV-1a chains, so each chain's
/// multiply latency hides behind the other three's. Until the longest of
/// the four ends, a lane whose payload has ended hashes the shortest
/// unfinished lane's bytes and throws the result away.
pub fn hash_payloads(frames: &[Frame]) -> Vec<u64> {
    let mut out = Vec::with_capacity(frames.len());
    for group in frames.chunks(4) {
        let mut rest: [&[u8]; 4] = [&[]; 4];
        for (r, f) in rest.iter_mut().zip(group) {
            *r = &f.payload;
        }
        let mut h = [FNV_OFFSET; 4];
        let mut done = h;
        while let Some(&shortest) = rest
            .iter()
            .filter(|r| !r.is_empty())
            .min_by_key(|r| r.len())
        {
            let n = shortest.len();
            let [a, b, c, d] = rest.map(|r| if r.is_empty() { shortest } else { &r[..n] });
            for (((&a, &b), &c), &d) in a.iter().zip(b).zip(c).zip(d) {
                h[0] = fnv1a_step(h[0], a);
                h[1] = fnv1a_step(h[1], b);
                h[2] = fnv1a_step(h[2], c);
                h[3] = fnv1a_step(h[3], d);
            }
            for ((r, done), &h) in rest.iter_mut().zip(&mut done).zip(&h) {
                if !r.is_empty() {
                    *r = &r[n..];
                    *done = h;
                }
            }
        }
        out.extend(done[..group.len()].iter().map(|&h| finish_hash(h)));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Byte-serial reference for the bytes [`payload_pattern_hashed`] makes.
    fn pattern_reference(seed: u64, len: usize) -> Vec<u8> {
        let mut state = seed ^ 0x9e37_79b9_7f4a_7c15;
        let mut out = Vec::new();
        for _ in 0..len.min(MAX_PAYLOAD) {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            out.push((state.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 56) as u8);
        }
        out
    }

    /// splitmix64: test inputs from a seed.
    fn mix(x: &mut u64) -> u64 {
        *x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *x;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn frame(payload: Vec<u8>) -> Frame {
        Frame {
            dst: 0x0200_0000_0001,
            src: 0x0200_0000_0002,
            dst_port: 80,
            src_port: 49152,
            payload,
        }
    }

    /// Two pages of memory, and the address of a `len`-byte buffer that
    /// ends where memory ends: reading past it panics.
    fn tail_buffer(len: usize) -> (PhysMem, u64) {
        let mem = PhysMem::new(2 * 4096);
        let pa = mem.size() - len as u64;
        (mem, pa)
    }

    /// Overwrites the length field of the header at `pa`.
    fn set_len(mem: &mut PhysMem, pa: u64, len: u32) {
        mem.write_bytes(pa + 20, &len.to_le_bytes());
    }

    #[test]
    fn write_read_roundtrip() {
        let f = frame(payload_pattern(7, 500));
        let (mut mem, pa) = tail_buffer(f.wire_bytes());
        f.write_to(&mut mem, pa);
        let mut len = [0; 4];
        mem.read_bytes(pa + 20, &mut len);
        assert_eq!(u32::from_le_bytes(len), 500, "header first, then payload");
        let g = Frame::read_from(&mut mem, pa, HEADER_BYTES + 500).unwrap();
        assert_eq!(f, g);
        assert_eq!(f.payload_hash(), g.payload_hash());
        // A buffer longer than the frame holds the same frame.
        let (mut mem, pa) = tail_buffer(BUF_SIZE as usize);
        f.write_to(&mut mem, pa);
        assert_eq!(Frame::read_from(&mut mem, pa, BUF_SIZE as usize), Some(f));
        let empty = frame(Vec::new());
        let (mut mem, pa) = tail_buffer(HEADER_BYTES);
        empty.write_to(&mut mem, pa);
        assert_eq!(Frame::read_from(&mut mem, pa, HEADER_BYTES), Some(empty));
    }

    /// Each malformed buffer ends where memory ends, so a read past it
    /// would panic instead of returning `None`.
    #[test]
    fn read_rejects_garbage_without_reading_past_the_buffer() {
        // A buffer shorter than the header.
        for len in [0, 4, HEADER_BYTES - 1] {
            let (mut mem, pa) = tail_buffer(len);
            assert_eq!(Frame::read_from(&mut mem, pa, len), None, "len {len}");
        }
        // A length field claiming more than the buffer holds.
        let (mut mem, pa) = tail_buffer(HEADER_BYTES + 10);
        mem.write_bytes(pa, &[9; HEADER_BYTES + 10]);
        set_len(&mut mem, pa, 16);
        assert_eq!(Frame::read_from(&mut mem, pa, HEADER_BYTES + 10), None);
        set_len(&mut mem, pa, 10_000);
        assert_eq!(Frame::read_from(&mut mem, pa, HEADER_BYTES + 10), None);
        set_len(&mut mem, pa, 10);
        assert_eq!(
            Frame::read_from(&mut mem, pa, HEADER_BYTES + 10).map(|g| g.payload.len()),
            Some(10),
            "the same buffer with an honest length reads"
        );
        // A payload over MAX_PAYLOAD, in a buffer that would hold it.
        let (mut mem, pa) = tail_buffer(4096);
        frame(vec![1; MAX_PAYLOAD]).write_to(&mut mem, pa);
        set_len(&mut mem, pa, MAX_PAYLOAD as u32 + 1);
        assert_eq!(Frame::read_from(&mut mem, pa, 4096), None);
    }

    #[test]
    #[should_panic(expected = "oversized frame")]
    fn write_refuses_an_oversized_payload() {
        frame(vec![0; MAX_PAYLOAD + 1]).write_to(&mut PhysMem::new(4096), 0);
    }

    #[test]
    fn fused_generator_matches_the_byte_serial_references() {
        let mut x = 1;
        for _ in 0..200 {
            let seed = mix(&mut x);
            let len = (mix(&mut x) % (MAX_PAYLOAD as u64 + 64)) as usize;
            // A fresh message, or a segment after earlier ones.
            let h0 = if mix(&mut x).is_multiple_of(2) {
                FNV_OFFSET
            } else {
                mix(&mut x)
            };
            let want = pattern_reference(seed, len);
            let (bytes, h) = payload_pattern_hashed(seed, len, h0);
            assert_eq!(h, fnv1a_extend(h0, &want), "seed {seed:#x} len {len}");
            assert_eq!(bytes, want, "seed {seed:#x} len {len}");
            assert_eq!(payload_pattern(seed, len), want);
        }
        // Threaded across segments, the state hashes the whole message.
        let lens = [MAX_PAYLOAD, 0, 7, MAX_PAYLOAD, 1];
        let mut h = FNV_OFFSET;
        let mut segments = Vec::new();
        for (i, &len) in lens.iter().enumerate() {
            let (bytes, next) = payload_pattern_hashed(i as u64, len, h);
            h = next;
            segments.push(frame(bytes));
        }
        assert_eq!(finish_hash(h), message_hash(&segments));
    }

    #[test]
    fn interleaved_hasher_matches_payload_hash() {
        let mut x = 2;
        for n in 0..=9 {
            for _ in 0..20 {
                let batch: Vec<Frame> = (0..n)
                    .map(|_| {
                        let len = match mix(&mut x) % 4 {
                            0 => 0,
                            1 => (mix(&mut x) % 16) as usize,
                            _ => (mix(&mut x) % (MAX_PAYLOAD as u64 + 1)) as usize,
                        };
                        frame(pattern_reference(mix(&mut x), len))
                    })
                    .collect();
                let want: Vec<u64> = batch.iter().map(Frame::payload_hash).collect();
                assert_eq!(hash_payloads(&batch), want, "{n} frames");
            }
        }
        let same = vec![frame(vec![5; 33]); 6];
        assert_eq!(hash_payloads(&same), vec![same[0].payload_hash(); 6]);
    }

    #[test]
    fn payload_pattern_is_deterministic_and_seed_sensitive() {
        assert_eq!(payload_pattern(42, 64), payload_pattern(42, 64));
        assert_ne!(payload_pattern(42, 64), payload_pattern(43, 64));
        assert_eq!(payload_pattern(1, MAX_PAYLOAD + 999).len(), MAX_PAYLOAD);
    }

    /// Payload bytes and hashes as the byte-serial generator and FNV-1a
    /// produced them; any rewrite of either must reproduce these.
    #[test]
    fn payloads_and_hashes_are_pinned() {
        let seed = (49152 << 32) | 7;
        for (len, want) in [
            (0, 0xcbf2_9ce4_8422_2325),
            (1, 0xaf64_464c_8602_a0aa),
            (64, 0x57ec_6ed1_7639_1a23),
            (600, 0xf223_bb7c_16ef_921a),
            (1044, 0xcdee_decd_7627_ce27),
            (MAX_PAYLOAD, 0xffa6_4d2d_a460_bfea),
            (MAX_PAYLOAD + 999, 0xffa6_4d2d_a460_bfea),
        ] {
            assert_eq!(fnv1a(&payload_pattern(seed, len)), want, "len {len}");
        }
        let seg = |seed, len| Frame {
            dst: 0,
            src: 0,
            dst_port: 0,
            src_port: 0,
            payload: payload_pattern(seed, len),
        };
        let message = [
            seg(seed, MAX_PAYLOAD),
            seg(seed + 1, MAX_PAYLOAD),
            seg(seed + 2, 1),
        ];
        assert_eq!(message_hash(&message), 0x70b9_ca33_a6f0_4140);
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
