//! # tripro-coder
//!
//! Bit-level substrate of the PPVP compressed mesh format: varints, ZigZag,
//! an adaptive range (arithmetic) coder, and the uniform grid quantiser.
//!
//! The paper builds on the PPMC codebase's "spatial compression, entropy
//! encoding, and adaptive quantization" (§6.2); this crate provides those
//! three ingredients from scratch.

pub mod quant;
pub mod range;
pub mod varint;

pub use quant::Quantizer;
pub use range::{compress, decompress};
pub use varint::{unzigzag, write_f64, write_i64, write_u64, zigzag, ByteReader, DecodeError};
