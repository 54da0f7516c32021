//! Dataplane properties: backpressure never drops an acked frame, and the
//! whole NIC/switch pipeline replays byte-identically under a seeded
//! coalescing schedule.

use netsim::{
    payload_pattern, Coalesce, Frame, HostSwitch, NetError, NicBackendKind, NicLayout, VirtioNic,
    KICK_TIMER_CYCLES,
};
use sim_hw::{Clock, Tag};
use sim_mem::PhysMem;

struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        // xorshift64* — deterministic schedule driver.
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }
}

/// One host service pass over `nics`, in slice order.
fn service(sw: &mut HostSwitch, mem: &mut PhysMem, clock: &mut Clock, nics: &mut [VirtioNic]) {
    sw.service(mem, clock, |visit| nics.iter_mut().for_each(visit), |_| {});
}

fn mk_nic(
    mem: &mut PhysMem,
    clock: &mut Clock,
    base: u64,
    mac: u64,
    queue: u16,
    coalesce: Coalesce,
) -> VirtioNic {
    let frames: Vec<u64> = (0..NicLayout::frames_needed(queue) as u64)
        .map(|i| base + i * 4096)
        .collect();
    VirtioNic::for_backend(
        mem,
        clock,
        NicLayout::from_frames(queue, &frames),
        mac,
        NicBackendKind::Cki,
        coalesce,
    )
}

/// Two NICs through a depth-2 switch, a seeded schedule interleaving
/// sends, service passes, and receives. Every send the NIC *acked* (Ok)
/// must come out the far side exactly once, in per-flow order — ring-full
/// rejections and switch backpressure may delay frames but never lose one.
#[test]
fn backpressure_never_drops_an_acked_frame() {
    for seed in [1u64, 7, 42, 0xDEADBEEF] {
        let mut rng = Rng(seed);
        let mut mem = PhysMem::new(1 << 22);
        let mut clock = Clock::default();
        let coalesce = Coalesce { kick_batch: 4 };
        let mut nics = [
            mk_nic(&mut mem, &mut clock, 0x100000, 0xA, 8, coalesce),
            mk_nic(&mut mem, &mut clock, 0x200000, 0xB, 8, coalesce),
        ];
        let mut sw = HostSwitch::new(2);
        nics.iter_mut().for_each(|n| sw.attach(n));

        let mut acked: Vec<u64> = Vec::new(); // hashes, send order
        let mut received: Vec<u64> = Vec::new();
        let mut next_payload = 0u64;
        let mut rejected = 0u64;

        for step in 0..4000 {
            match rng.next() % 4 {
                0 | 1 => {
                    let f = Frame {
                        dst: 0xB,
                        src: 0xA,
                        dst_port: 80,
                        src_port: 49152,
                        payload: payload_pattern(next_payload, 64 + (next_payload % 200) as usize),
                    };
                    next_payload += 1;
                    match nics[0].send(&mut mem, &mut clock, std::slice::from_ref(&f)) {
                        Ok(()) => acked.push(f.payload_hash()),
                        Err(NetError::RingFull) => rejected += 1,
                        Err(e) => panic!("unexpected {e:?} at step {step}"),
                    }
                }
                2 => {
                    service(&mut sw, &mut mem, &mut clock, &mut nics);
                }
                _ => {
                    while let Some(f) = nics[1].recv(&mut mem, &mut clock) {
                        received.push(f.payload_hash());
                    }
                }
            }
        }
        // Final drain: flush pending kicks, then service until quiescent.
        nics[0].flush(&mut clock);
        for _ in 0..16 {
            service(&mut sw, &mut mem, &mut clock, &mut nics);
            while let Some(f) = nics[1].recv(&mut mem, &mut clock) {
                received.push(f.payload_hash());
            }
        }
        assert_eq!(
            received, acked,
            "seed {seed}: every acked frame delivered exactly once, in order"
        );
        assert!(rejected > 0, "seed {seed}: schedule should hit ring-full");
        assert!(
            sw.stats.backpressured > 0,
            "seed {seed}: schedule should hit switch backpressure"
        );
        assert_eq!(sw.stats.dropped_unknown_dst, 0);
        assert_eq!(sw.stats.dropped_dead_port, 0);
    }
}

/// One full seeded run — sends, coalesced kicks, timer-driven compute
/// gaps, service passes, receives — executed twice must agree byte for
/// byte: same hash stream, same stats, same final clock cycle count.
#[test]
fn seeded_coalescing_schedule_replays_byte_identically() {
    fn run(seed: u64) -> (Vec<u64>, String, u64) {
        let mut rng = Rng(seed);
        let mut mem = PhysMem::new(1 << 22);
        let mut clock = Clock::default();
        let coalesce = Coalesce { kick_batch: 4 };
        let mut nics = [
            mk_nic(&mut mem, &mut clock, 0x100000, 0xA, 8, coalesce),
            mk_nic(&mut mem, &mut clock, 0x200000, 0xB, 8, coalesce),
        ];
        let mut sw = HostSwitch::new(4);
        nics.iter_mut().for_each(|n| sw.attach(n));
        let mut hashes = Vec::new();
        let mut n = 0u64;
        for _ in 0..1500 {
            match rng.next() % 5 {
                0 | 1 => {
                    let f = Frame {
                        dst: 0xB,
                        src: 0xA,
                        dst_port: 80,
                        src_port: 49152,
                        payload: payload_pattern(n, 128),
                    };
                    n += 1;
                    let _ = nics[0].send(&mut mem, &mut clock, std::slice::from_ref(&f));
                }
                2 => {
                    service(&mut sw, &mut mem, &mut clock, &mut nics);
                }
                3 => {
                    while let Some(f) = nics[1].recv(&mut mem, &mut clock) {
                        hashes.push(f.payload_hash());
                    }
                }
                // Four gaps fire the doorbell's timer fallback.
                _ => clock.charge(Tag::Compute, KICK_TIMER_CYCLES / 4),
            }
        }
        let stats = format!("{:?} {:?} {:?}", nics[0].stats, nics[1].stats, sw.stats);
        (hashes, stats, clock.cycles())
    }

    let first = run(0xC0FFEE);
    let second = run(0xC0FFEE);
    assert_eq!(first.0, second.0, "hash stream");
    assert_eq!(first.1, second.1, "stats");
    assert_eq!(first.2, second.2, "cycle-exact clock");
    assert!(first.1.contains("coalesced_kicks"), "stats are meaningful");
    // A different seed must actually produce a different execution.
    let other = run(0xBEEF);
    assert_ne!(first.2, other.2);
}
