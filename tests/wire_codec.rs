//! The wire codec is canonical and total (ROADMAP 9b's cheap half).
//!
//! Valid payloads of every frame kind are damaged at random — bit flips,
//! overwritten bytes, lying counts, truncation, extension, a swapped kind
//! byte — and handed, with arbitrary bytes, to both body decoders:
//!
//! * **Total** — a decoder returns `Ok` or `WireError::Malformed`; it never
//!   panics, and no `count`/`len` field makes it allocate more than a
//!   constant factor of the payload it was handed (metered with a counting
//!   allocator, so a lying count that reserved first and checked later
//!   would fail here, not in production).
//! * **Canonical** — every payload a decoder accepts re-encodes to the same
//!   bytes: one value, one encoding.
//! * **Roundtrip** — `decode(encode(x)) == x` for every value so reached
//!   (damage inside a field is a new value; NaNs compare by their text).

use proptest::prelude::*;
use proptest::StdRng;
use rand::{Rng, SeedableRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use tripro_serve::protocol::{
    decode_header, decode_request_body_traced, decode_response_body, encode_request_traced,
    encode_response, HEADER_LEN,
};
use tripro_serve::WireError;

thread_local! {
    /// Bytes requested from the allocator on this thread since the last
    /// reset (frees are not subtracted: this bounds *work*, not residency).
    static REQUESTED: Cell<usize> = const { Cell::new(0) };
}

struct Metered;

fn note(bytes: usize) {
    // `try_with`: the allocator also runs during thread teardown, after
    // the thread-local is gone.
    let _ = REQUESTED.try_with(|c| c.set(c.get().saturating_add(bytes)));
}

// SAFETY: every method forwards to `System` unchanged; the only addition is
// a thread-local counter update, which does not allocate (`const`-initialised
// `Cell<usize>`).
unsafe impl GlobalAlloc for Metered {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: same contract as the caller's, forwarded verbatim.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through `alloc`/`realloc` above.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: same contract as the caller's, forwarded verbatim.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: Metered = Metered;

/// Run `f` and report how many bytes it asked the allocator for.
fn metered<T>(f: impl FnOnce() -> T) -> (T, usize) {
    REQUESTED.with(|c| c.set(0));
    let out = f();
    (out, REQUESTED.with(Cell::get))
}

/// One valid payload per frame kind and per optional body (hex; spaces
/// separate fields): trace context absent and present, stats summary absent
/// and present, a counter and a histogram series.
#[rustfmt::skip]
const SEEDS: &[(u8, &str)] = &[
    (0x01, "08 08 02"),
    (0x02, ""),
    (0x04, ""),
    (0x05, ""),
    (0x07, ""),
    (0x09, ""),
    (0x10, "000000000000f03f 0000000000000040 0000000000000840 fa000000 00"),
    (0x11, "09000000 fa000000 01 0807060504030201 01"),
    (0x12, "09000000 000000000000e03f fa000000 00"),
    (0x13, "09000000 ffffffff 01 0100000000000000 00"),
    (0x14, "09000000 04000000 fa000000 00"),
    (0x15, "09000000 fa000000 00"),
    (0x16, "09000000 04000000 00000000 00"),
    (0x81, "08 01"),
    (0x82, ""),
    (0x84, ""),
    (0x85, "02000000 0100 6e 0100 6c 0000 00 2900000000000000 \
            0100 68 0000 0200 c3a9 01 0300000000000000 6300000000000000 0700000000000000 \
            3200000000000000 02000000 11000000 0200000000000000 12000000 0100000000000000"),
    (0x87, "01 0700000000000000 01000000 03000000 0000000000000440 \
            2800000000000000 1100000000000000 2900000000000000"),
    (0x89, "04000000 61c3a90a"),
    (0x90, "01 00 03000000 05000000 09000000 0a000000 00"),
    (0x90, "00 01 01000000 05000000 01 \
            6400000000000000 c800000000000000 2c01000000000000 0700000000000000 \
            0300000000000000 0100000000000000 0100000000000000 0010000000000000 \
            0200000000000000 0000000000000000 0800000000000000 0400000000000000 \
            0000000000000000 0000000000000000 0000000000000000 0000000000000000 \
            0000000000000000 0000000000000000 0000000000000000 0000000000000000 \
            0000000000000000 0000000000000000 0000000000000000 0000000000000000 \
            0000000000000000 0000000000000000 0400000000000000 0400000000000000 \
            0000000000000000 0000000000000000 0000000000000000 0000000000000000 \
            0000000000000000 0000000000000000 0000000000000000 0000000000000000 \
            0000000000000000 0000000000000000 0000000000000000 0000000000000000 \
            0000000000000000 0000000000000000"),
    (0x91, "01 00 02000000 03000000 000000000000d03f 07000000 000000000000f87f 00"),
    (0x91, "01 01 00000000 01 \
            0100000000000000 0200000000000000 0300000000000000 0400000000000000 \
            0500000000000000 0600000000000000 0700000000000000 0800000000000000 \
            0900000000000000 0a00000000000000 1100000000000000 1200000000000000 \
            1300000000000000 1400000000000000 1500000000000000 1600000000000000 \
            1700000000000000 1800000000000000 1900000000000000 1a00000000000000 \
            1b00000000000000 1c00000000000000 1d00000000000000 1e00000000000000 \
            1f00000000000000 2000000000000000 2100000000000000 2200000000000000 \
            2300000000000000 2400000000000000 2500000000000000 2600000000000000 \
            2700000000000000 2800000000000000 2900000000000000 2a00000000000000 \
            2b00000000000000 2c00000000000000 2d00000000000000 2e00000000000000 \
            2f00000000000000 3000000000000000"),
    (0xFF, "01 0400 62757379 fa000000"),
];

fn hex(s: &str) -> Vec<u8> {
    let digits: Vec<u8> = s
        .bytes()
        .filter(|b| !b.is_ascii_whitespace())
        .map(|b| (b as char).to_digit(16).unwrap() as u8)
        .collect();
    digits.chunks(2).map(|d| d[0] << 4 | d[1]).collect()
}

/// Damage one payload. Positions lean towards the first and last bytes,
/// where the flags, counts and tags live.
fn damage(kind: &mut u8, payload: &mut Vec<u8>, rng: &mut StdRng) {
    let n = payload.len();
    let at = |rng: &mut StdRng| match rng.gen_range(0..4u8) {
        0 | 1 => rng.gen_range(0..n.min(16)),
        2 => n - 1 - rng.gen_range(0..n.min(24)),
        _ => rng.gen_range(0..n),
    };
    match rng.gen_range(0..6u8) {
        0 if n > 0 => payload[at(rng)] ^= 1 << rng.gen_range(0..8u8),
        1 if n > 0 => payload[at(rng)] = rng.gen(),
        // A count or length that lies, big.
        2 if n >= 4 => {
            let i = at(rng).min(n - 4);
            payload[i..i + 4].copy_from_slice(&(rng.gen::<u32>() | 0x00FF_0000).to_le_bytes());
        }
        3 if n > 0 => payload.truncate(rng.gen_range(0..n)),
        4 => payload.extend((0..rng.gen_range(1..20usize)).map(|_| rng.gen::<u8>())),
        // The same bytes under another frame kind.
        _ => *kind = rng.gen(),
    }
}

/// Total, canonical and roundtrip, for one (kind, payload) handed to both
/// decoders. Returns whether either accepted it.
fn check_decoders(kind: u8, payload: &[u8]) -> bool {
    // A decoded series costs a fixed struct (three `String`s and a value)
    // for as little as 15 payload bytes, and `Vec` growth re-requests what
    // it copies; everything else is smaller. A lying count would be off by
    // orders of magnitude, not by this factor.
    let bound = 64 * payload.len() + 4096;

    let (req, requested) = metered(|| decode_request_body_traced(kind, payload));
    assert!(
        requested <= bound,
        "request decoder: {requested} B > {bound}"
    );
    let request_ok = match req {
        Ok((req, ctx)) => {
            let again = encode_request_traced(0, &req, ctx.as_ref());
            assert_eq!(again[7], kind, "{req:?}");
            assert_eq!(&again[HEADER_LEN..], payload, "not canonical: {req:?}");
            let back = decode_request_body_traced(kind, &again[HEADER_LEN..]).unwrap();
            assert_eq!(format!("{back:?}"), format!("{:?}", (req, ctx)));
            true
        }
        Err(WireError::Malformed(_)) => false,
        Err(other) => panic!("body decoders only ever say Malformed, got {other:?}"),
    };
    let (resp, requested) = metered(|| decode_response_body(kind, payload));
    assert!(
        requested <= bound,
        "response decoder: {requested} B > {bound}"
    );
    match resp {
        Ok(resp) => {
            let again = encode_response(0, &resp);
            assert_eq!(again[7], kind, "{resp:?}");
            assert_eq!(&again[HEADER_LEN..], payload, "not canonical: {resp:?}");
            let back = decode_response_body(kind, &again[HEADER_LEN..]).unwrap();
            assert_eq!(format!("{back:?}"), format!("{resp:?}"));
            true
        }
        Err(WireError::Malformed(_)) => request_ok,
        Err(other) => panic!("body decoders only ever say Malformed, got {other:?}"),
    }
}

/// The meter itself: a reservation the size of a lying count is seen.
#[test]
fn the_meter_sees_a_reservation() {
    let (v, requested) = metered(|| Vec::<u8>::with_capacity(1 << 20));
    assert!(requested >= 1 << 20, "{requested} for {}", v.capacity());
}

#[test]
fn every_seed_is_a_valid_frame() {
    for (kind, payload) in SEEDS {
        assert!(check_decoders(*kind, &hex(payload)), "seed {kind:#04x}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    #[test]
    fn damaged_frames_decode_canonically_or_fail_typed(
        seed in 0..SEEDS.len(),
        rng_seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(rng_seed);
        let (mut kind, mut payload) = (SEEDS[seed].0, hex(SEEDS[seed].1));
        for _ in 0..rng.gen_range(1..4u8) {
            damage(&mut kind, &mut payload, &mut rng);
            check_decoders(kind, &payload);
        }
    }

    #[test]
    fn arbitrary_bytes_decode_canonically_or_fail_typed(
        kind in any::<u8>(),
        payload in proptest::collection::vec(any::<u8>(), 0..96),
        header in proptest::collection::vec(any::<u8>(), 16..17),
    ) {
        // Any valid kind in a handful of draws; the rest exercise the
        // unknown-kind arm.
        for kind in [kind, kind & 0x1F, kind | 0x80, 0x90 | (kind & 1), 0xFF] {
            check_decoders(kind, &payload);
        }
        match decode_header(header.as_slice().try_into().unwrap()) {
            Ok(h) => prop_assert_eq!(&h.payload_len.to_le_bytes(), &header[..4]),
            Err(WireError::Malformed(_) | WireError::Oversized(_)) => {}
            Err(other) => panic!("header decoder said {other:?}"),
        }
    }
}
