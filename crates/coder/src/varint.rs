//! LEB128 variable-length integers and ZigZag signed mapping.
//!
//! Removal events in the PPVP stream reference ring vertices as small id
//! deltas; varints keep those references compact before entropy coding.

/// Append `v` as an unsigned LEB128 varint.
pub fn write_u64(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Append `v` with the ZigZag mapping (small magnitudes stay small).
pub fn write_i64(out: &mut Vec<u8>, v: i64) {
    write_u64(out, zigzag(v));
}

/// Map a signed integer to unsigned: 0, -1, 1, -2, … → 0, 1, 2, 3, …
#[inline]
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
#[inline]
pub fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Sequential reader over a byte slice.
#[derive(Debug, Clone)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

/// Error returned when a read runs past the end of the buffer or a varint is
/// malformed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecodeError;

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "malformed or truncated encoded stream")
    }
}

impl std::error::Error for DecodeError {}

impl<'a> ByteReader<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes consumed so far.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Bytes remaining.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    pub fn read_byte(&mut self) -> Result<u8, DecodeError> {
        let b = *self.buf.get(self.pos).ok_or(DecodeError)?;
        self.pos += 1;
        Ok(b)
    }

    pub fn read_exact(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.remaining() < n {
            return Err(DecodeError);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub fn read_u64(&mut self) -> Result<u64, DecodeError> {
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let byte = self.read_byte()?;
            if shift >= 64 {
                return Err(DecodeError);
            }
            v |= ((byte & 0x7F) as u64) << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
        }
    }

    pub fn read_i64(&mut self) -> Result<i64, DecodeError> {
        Ok(unzigzag(self.read_u64()?))
    }

    pub fn read_usize(&mut self) -> Result<usize, DecodeError> {
        let v = self.read_u64()?;
        usize::try_from(v).map_err(|_| DecodeError)
    }

    /// Read a little-endian f64 (used only in uncompressed headers).
    pub fn read_f64(&mut self) -> Result<f64, DecodeError> {
        let s = self.read_exact(8)?;
        let bytes: [u8; 8] = s.try_into().map_err(|_| DecodeError)?;
        Ok(f64::from_le_bytes(bytes))
    }
}

/// Append a little-endian f64.
pub fn write_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_le_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u64_roundtrip() {
        let values = [0u64, 1, 127, 128, 300, 16384, u32::MAX as u64, u64::MAX];
        let mut buf = Vec::new();
        for v in values {
            write_u64(&mut buf, v);
        }
        let mut r = ByteReader::new(&buf);
        for v in values {
            assert_eq!(r.read_u64().unwrap(), v);
        }
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn i64_roundtrip() {
        let values = [0i64, -1, 1, -64, 63, -65, 64, i64::MIN, i64::MAX];
        let mut buf = Vec::new();
        for v in values {
            write_i64(&mut buf, v);
        }
        let mut r = ByteReader::new(&buf);
        for v in values {
            assert_eq!(r.read_i64().unwrap(), v);
        }
    }

    #[test]
    fn zigzag_small_magnitudes_small() {
        assert_eq!(zigzag(0), 0);
        assert_eq!(zigzag(-1), 1);
        assert_eq!(zigzag(1), 2);
        assert_eq!(zigzag(-2), 3);
        for v in -100..100i64 {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    #[test]
    fn truncated_is_error() {
        let mut buf = Vec::new();
        write_u64(&mut buf, 1 << 40);
        buf.pop();
        let mut r = ByteReader::new(&buf);
        assert_eq!(r.read_u64(), Err(DecodeError));
    }

    #[test]
    fn overlong_is_error() {
        // 11 continuation bytes: shift exceeds 64.
        let buf = vec![0x80u8; 10]
            .into_iter()
            .chain([1u8])
            .collect::<Vec<_>>();
        let mut r = ByteReader::new(&buf);
        assert_eq!(r.read_u64(), Err(DecodeError));
    }

    #[test]
    fn f64_roundtrip() {
        let mut buf = Vec::new();
        write_f64(&mut buf, -1234.5678);
        write_f64(&mut buf, f64::INFINITY);
        let mut r = ByteReader::new(&buf);
        assert_eq!(r.read_f64().unwrap(), -1234.5678);
        assert_eq!(r.read_f64().unwrap(), f64::INFINITY);
    }

    #[test]
    fn read_exact_and_position() {
        let buf = [1u8, 2, 3, 4, 5];
        let mut r = ByteReader::new(&buf);
        assert_eq!(r.read_exact(2).unwrap(), &[1, 2]);
        assert_eq!(r.position(), 2);
        assert_eq!(r.remaining(), 3);
        assert!(r.read_exact(4).is_err());
    }
}
