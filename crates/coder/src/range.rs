//! Carry-aware byte range coder (LZMA-style) with an adaptive order-0
//! byte model.
//!
//! This is the entropy-coding backend of the PPVP compressed format: the
//! base-mesh connectivity, ring references and quantised coordinate deltas
//! are serialised as byte streams, and a stream is stored squeezed through
//! this coder when that saves at least 1/16 of its bytes (the paper
//! applies "entropy encoding and adaptive quantization" from the PPMC line
//! of work, §6.2).

use crate::varint::DecodeError;

const TOP: u32 = 1 << 24;
const BOT: u32 = 1 << 16;

/// Streaming carryless range encoder (Subbotin's construction: encoder and
/// decoder mirror the same `(low, range)` state, so no carry propagation is
/// needed).
struct RangeEncoder {
    low: u32,
    range: u32,
    out: Vec<u8>,
}

impl RangeEncoder {
    fn new(out: Vec<u8>) -> Self {
        Self {
            low: 0,
            range: u32::MAX,
            out,
        }
    }

    /// Encode a symbol occupying `[start, start+size)` out of `total`
    /// cumulative frequency. `total` must be ≤ 2¹⁶ so `range/total` never
    /// collapses to zero.
    fn encode(&mut self, start: u32, size: u32, total: u32) {
        debug_assert!(size > 0 && start + size <= total && total <= BOT);
        let r = self.range / total;
        self.low = self.low.wrapping_add(start * r);
        self.range = r * size;
        loop {
            if (self.low ^ self.low.wrapping_add(self.range)) < TOP {
                // Top byte settled: emit it.
            } else if self.range < BOT {
                // Underflow: pin the range to the current 64 KiB window.
                self.range = BOT - (self.low & (BOT - 1));
            } else {
                break;
            }
            self.out.push((self.low >> 24) as u8);
            self.low <<= 8;
            self.range <<= 8;
        }
    }

    /// Flush pending state and return the output buffer.
    fn finish(mut self) -> Vec<u8> {
        for _ in 0..4 {
            self.out.push((self.low >> 24) as u8);
            self.low <<= 8;
        }
        self.out
    }
}

/// Streaming range decoder over a byte slice, mirroring [`RangeEncoder`].
struct RangeDecoder<'a> {
    low: u32,
    code: u32,
    range: u32,
    buf: &'a [u8],
    pos: usize,
}

impl<'a> RangeDecoder<'a> {
    fn new(buf: &'a [u8]) -> Self {
        let mut d = Self {
            low: 0,
            code: 0,
            range: u32::MAX,
            buf,
            pos: 0,
        };
        for _ in 0..4 {
            d.code = (d.code << 8) | d.next_byte() as u32;
        }
        d
    }

    fn next_byte(&mut self) -> u8 {
        // Reading past the end yields zeros; the arithmetic stream is
        // self-terminating given the symbol count is stored out of band.
        let b = self.buf.get(self.pos).copied().unwrap_or(0);
        self.pos += 1;
        b
    }

    /// The width `r = range / total` of one frequency unit, and the
    /// cumulative-frequency value of the next symbol, in `[0, total)`.
    fn decode_freq(&self, total: u32) -> (u32, u32) {
        let r = self.range / total;
        (r, (self.code.wrapping_sub(self.low) / r).min(total - 1))
    }

    /// Commit the decode of the symbol at `[start, start+size)`, in units of
    /// the `r` that [`RangeDecoder::decode_freq`] returned for it.
    fn decode_update(&mut self, start: u32, size: u32, r: u32) {
        self.low = self.low.wrapping_add(start * r);
        self.range = r * size;
        loop {
            if (self.low ^ self.low.wrapping_add(self.range)) < TOP {
            } else if self.range < BOT {
                self.range = BOT - (self.low & (BOT - 1));
            } else {
                break;
            }
            self.code = (self.code << 8) | self.next_byte() as u32;
            self.low <<= 8;
            self.range <<= 8;
        }
    }
}

const MAX_TOTAL: u32 = 1 << 16;
const INCREMENT: u32 = 24;

/// Adaptive order-0 frequency model over byte symbols.
///
/// Frequencies start uniform and adapt with every coded symbol; when the
/// total crosses 2¹⁶ all counts are halved (floor at 1). Identical evolution
/// on both sides keeps encoder and decoder in lockstep.
struct ByteModel {
    freq: [u32; 256],
    total: u32,
}

impl ByteModel {
    fn new() -> Self {
        Self {
            freq: [1; 256],
            total: 256,
        }
    }

    fn bump(&mut self, sym: u8) {
        self.freq[sym as usize] += INCREMENT;
        self.total += INCREMENT;
        if self.total > MAX_TOTAL {
            self.total = 0;
            for f in &mut self.freq {
                *f = (*f).div_ceil(2);
                self.total += *f;
            }
        }
    }

    fn encode(&mut self, enc: &mut RangeEncoder, sym: u8) {
        let start: u32 = self.freq[..sym as usize].iter().sum();
        enc.encode(start, self.freq[sym as usize], self.total);
        self.bump(sym);
    }

    fn decode(&mut self, dec: &mut RangeDecoder<'_>) -> u8 {
        let (r, target) = dec.decode_freq(self.total);
        let mut cum = 0u32;
        let mut sym = 0usize;
        while cum + self.freq[sym] <= target {
            cum += self.freq[sym];
            sym += 1;
        }
        dec.decode_update(cum, self.freq[sym], r);
        self.bump(sym as u8);
        sym as u8
    }
}

/// Compress a byte slice with an adaptive order-0 model.
///
/// Framing: varint length, then the arithmetic stream.
pub fn compress(data: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(data.len() / 2 + 16);
    crate::varint::write_u64(&mut out, data.len() as u64);
    let mut enc = RangeEncoder::new(out);
    let mut model = ByteModel::new();
    for &b in data {
        model.encode(&mut enc, b);
    }
    enc.finish()
}

/// Inverse of [`compress`].
pub fn decompress(data: &[u8]) -> Result<Vec<u8>, DecodeError> {
    let mut r = crate::varint::ByteReader::new(data);
    let n = r.read_usize()?;
    // Guard against absurd lengths from corrupt input.
    if n > data.len().saturating_mul(256).saturating_add(1 << 20) {
        return Err(DecodeError);
    }
    let mut dec = RangeDecoder::new(&data[r.position()..]);
    let mut model = ByteModel::new();
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(model.decode(&mut dec));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(data: &[u8]) {
        let c = compress(data);
        let d = decompress(&c).expect("decompress");
        assert_eq!(d, data, "roundtrip failed for {} bytes", data.len());
    }

    #[test]
    fn empty() {
        roundtrip(&[]);
    }

    #[test]
    fn single_bytes() {
        roundtrip(&[0]);
        roundtrip(&[255]);
        roundtrip(&[42]);
    }

    #[test]
    fn all_byte_values() {
        let data: Vec<u8> = (0..=255u8).collect();
        roundtrip(&data);
    }

    #[test]
    fn repetitive_compresses_well() {
        let data = vec![7u8; 10_000];
        let c = compress(&data);
        assert!(
            c.len() < data.len() / 20,
            "10k identical bytes -> {} bytes",
            c.len()
        );
        roundtrip(&data);
    }

    #[test]
    fn skewed_distribution_compresses() {
        let mut data = Vec::new();
        let mut x: u64 = 12345;
        for _ in 0..20_000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            // 90% zeros, 10% small values.
            let b = if x % 10 == 0 { (x >> 32) as u8 % 16 } else { 0 };
            data.push(b);
        }
        let c = compress(&data);
        assert!(c.len() < data.len() / 2);
        roundtrip(&data);
    }

    #[test]
    fn incompressible_random_survives() {
        let mut data = Vec::new();
        let mut x: u64 = 987654321;
        for _ in 0..8_192 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            data.push((x >> 33) as u8);
        }
        let c = compress(&data);
        // Random bytes must not blow up by more than a tiny factor.
        assert!(c.len() < data.len() + data.len() / 8 + 64);
        roundtrip(&data);
    }

    #[test]
    fn long_runs_of_each_value() {
        let mut data = Vec::new();
        for v in [0u8, 1, 128, 255, 3] {
            data.extend(std::iter::repeat(v).take(997));
        }
        roundtrip(&data);
    }

    /// FNV-1a, so the pinned digest below needs no dependency.
    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
        })
    }

    #[test]
    fn coded_stream_is_pinned() {
        // Skewed pseudo-random bytes: small values dominate, as in the PPVP
        // varint streams, so the model adapts and rescales along the way.
        let mut data = Vec::new();
        let mut x: u64 = 0x5eed;
        for _ in 0..50_000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let r = (x >> 33) as u32;
            data.push(if r % 4 == 0 {
                (r >> 8) as u8
            } else {
                (r >> 8) as u8 % 8
            });
        }
        let c = compress(&data);
        assert_eq!((c.len(), fnv1a(&c)), (31_724, 0x0f37_33c7_26a8_c366));
        roundtrip(&data);
    }

    #[test]
    fn corrupt_header_is_error() {
        assert!(decompress(&[]).is_err());
        // Length says 100 bytes but stream is empty.
        assert!(decompress(&[100]).is_err() || decompress(&[100]).unwrap().len() == 100);
    }

    #[test]
    fn adaptivity_beats_static_on_shifting_distribution() {
        // First half all 'a', second half all 'b': adaptive model should get
        // close to 0 bits/symbol on both halves.
        let mut data = vec![b'a'; 5000];
        data.extend(vec![b'b'; 5000]);
        let c = compress(&data);
        // ~0.5 bits/symbol once the model has adapted (vs 8 raw).
        assert!(
            c.len() < 800,
            "expected strong compression, got {}",
            c.len()
        );
        roundtrip(&data);
    }
}
