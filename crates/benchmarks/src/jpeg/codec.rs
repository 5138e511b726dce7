//! Reference JPEG machinery: forward/inverse DCT, quantization, and a
//! complete baseline grayscale JFIF encoder (zigzag, run-length, Annex K
//! Huffman coding, byte stuffing, headers).
//!
//! The forward path validates the IR region; the inverse path decodes
//! quantized coefficient streams back to pixels for the paper's
//! image-diff quality metric; the encoder makes the benchmark a real,
//! file-producing application.

use super::tables::{dct_basis, AC_BITS, AC_VALUES, DC_BITS, DC_VALUES, LUMA_QUANT, ZIGZAG};

/// Forward 2-D DCT + quantization of one 8×8 block of `[0, 255]` samples:
/// the reference semantics of the `jpeg` candidate region.
pub fn dct_quantize(block: &[f32; 64]) -> [f32; 64] {
    let t = dct_basis();
    // Level shift + row pass: tmp[y][u] = Σ_x (f[y][x] - 128) T[u][x]
    let mut tmp = [0.0f32; 64];
    for y in 0..8 {
        for u in 0..8 {
            let mut acc = 0.0;
            for x in 0..8 {
                acc += (block[y * 8 + x] - 128.0) * t[u][x];
            }
            tmp[y * 8 + u] = acc;
        }
    }
    // Column pass + quantization: F[v][u] = Σ_y tmp[y][u] T[v][y]
    let mut out = [0.0f32; 64];
    for v in 0..8 {
        for u in 0..8 {
            let mut acc = 0.0;
            for y in 0..8 {
                acc += tmp[y * 8 + u] * t[v][y];
            }
            out[v * 8 + u] = (acc / LUMA_QUANT[v * 8 + u] + 0.5).floor();
        }
    }
    out
}

/// Dequantization + inverse 2-D DCT back to `[0, 255]` samples.
pub fn dequantize_idct(coeffs: &[f32; 64]) -> [f32; 64] {
    let t = dct_basis();
    let mut freq = [0.0f32; 64];
    for k in 0..64 {
        freq[k] = coeffs[k] * LUMA_QUANT[k];
    }
    // Inverse column pass: tmp[y][u] = Σ_v F[v][u] T[v][y]
    let mut tmp = [0.0f32; 64];
    for y in 0..8 {
        for u in 0..8 {
            let mut acc = 0.0;
            for v in 0..8 {
                acc += freq[v * 8 + u] * t[v][y];
            }
            tmp[y * 8 + u] = acc;
        }
    }
    // Inverse row pass + level unshift.
    let mut out = [0.0f32; 64];
    for y in 0..8 {
        for x in 0..8 {
            let mut acc = 0.0;
            for u in 0..8 {
                acc += tmp[y * 8 + u] * t[u][x];
            }
            out[y * 8 + x] = (acc + 128.0).clamp(0.0, 255.0);
        }
    }
    out
}

/// Decodes a stream of quantized coefficient blocks (block-major, as the
/// benchmark app stores them) into a `dim × dim` grayscale image.
///
/// # Panics
///
/// Panics if `coeffs.len() != dim * dim` or `dim % 8 != 0`.
pub fn decode_coefficient_stream(coeffs: &[f32], dim: usize) -> Vec<f32> {
    assert_eq!(coeffs.len(), dim * dim, "coefficient count mismatch");
    assert_eq!(dim % 8, 0, "image dimension must be a multiple of 8");
    let blocks_per_row = dim / 8;
    let mut image = vec![0.0f32; dim * dim];
    for (bi, chunk) in coeffs.chunks_exact(64).enumerate() {
        let mut block = [0.0f32; 64];
        block.copy_from_slice(chunk);
        let pixels = dequantize_idct(&block);
        let by = bi / blocks_per_row;
        let bx = bi % blocks_per_row;
        for y in 0..8 {
            for x in 0..8 {
                image[(by * 8 + y) * dim + bx * 8 + x] = pixels[y * 8 + x];
            }
        }
    }
    image
}

// ---------------------------------------------------------------------
// Huffman entropy coding
// ---------------------------------------------------------------------

/// A canonical Huffman code table built from `BITS`/`VALUES` (T.81 C.2).
#[derive(Debug, Clone)]
pub struct HuffTable {
    /// `(code, length)` per symbol value.
    codes: Vec<Option<(u16, u8)>>,
}

impl HuffTable {
    /// Builds the canonical code assignment.
    pub fn new(bits: &[u8; 16], values: &[u8]) -> Self {
        let mut codes = vec![None; 256];
        let mut code = 0u16;
        let mut k = 0usize;
        for (len_idx, &count) in bits.iter().enumerate() {
            for _ in 0..count {
                codes[values[k] as usize] = Some((code, len_idx as u8 + 1));
                code += 1;
                k += 1;
            }
            code <<= 1;
        }
        HuffTable { codes }
    }

    /// Code for `symbol`.
    ///
    /// # Panics
    ///
    /// Panics if the symbol has no code (invalid for baseline tables).
    pub fn code(&self, symbol: u8) -> (u16, u8) {
        self.codes[symbol as usize].expect("symbol must have a Huffman code")
    }
}

/// MSB-first bit writer with JPEG `0xFF 0x00` byte stuffing.
#[derive(Debug, Default)]
pub struct BitWriter {
    out: Vec<u8>,
    acc: u32,
    n_bits: u32,
}

impl BitWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        BitWriter::default()
    }

    /// Appends `len` bits of `bits` (MSB first).
    pub fn put(&mut self, bits: u16, len: u8) {
        debug_assert!(len <= 16);
        self.acc = (self.acc << len) | (bits as u32 & ((1u32 << len) - 1));
        self.n_bits += len as u32;
        while self.n_bits >= 8 {
            let byte = (self.acc >> (self.n_bits - 8)) as u8;
            self.out.push(byte);
            if byte == 0xFF {
                self.out.push(0x00); // byte stuffing
            }
            self.n_bits -= 8;
        }
    }

    /// Pads the final partial byte with 1-bits and returns the stream.
    pub fn finish(mut self) -> Vec<u8> {
        if self.n_bits > 0 {
            let pad = 8 - self.n_bits;
            self.put((1u16 << pad) - 1, pad as u8);
        }
        self.out
    }
}

/// JPEG "magnitude category + extra bits" encoding of a signed value.
fn magnitude(v: i32) -> (u8, u16) {
    let abs = v.unsigned_abs();
    let size = 32 - abs.leading_zeros();
    let bits = if v < 0 {
        (v - 1) as u16 & ((1u16 << size) - 1)
    } else {
        v as u16
    };
    (size as u8, bits)
}

/// Entropy-encodes one quantized block (zigzag + RLE + Huffman) given the
/// previous block's DC value; returns the new DC predictor.
pub fn encode_block(
    writer: &mut BitWriter,
    dc_table: &HuffTable,
    ac_table: &HuffTable,
    coeffs: &[f32; 64],
    prev_dc: i32,
) -> i32 {
    let quantized: Vec<i32> = ZIGZAG.iter().map(|&z| coeffs[z] as i32).collect();
    // DC difference.
    let dc = quantized[0];
    let diff = dc - prev_dc;
    let (size, bits) = magnitude(diff);
    let (code, len) = dc_table.code(size);
    writer.put(code, len);
    if size > 0 {
        writer.put(bits, size);
    }
    // AC run-length coding.
    let mut run = 0u8;
    for &v in &quantized[1..] {
        if v == 0 {
            run += 1;
            continue;
        }
        while run >= 16 {
            let (zrl, zlen) = ac_table.code(0xF0); // ZRL: 16 zeros
            writer.put(zrl, zlen);
            run -= 16;
        }
        let (size, bits) = magnitude(v);
        let (code, len) = ac_table.code((run << 4) | size);
        writer.put(code, len);
        writer.put(bits, size);
        run = 0;
    }
    if run > 0 {
        let (eob, elen) = ac_table.code(0x00); // end of block
        writer.put(eob, elen);
    }
    dc
}

/// Assembles a complete baseline grayscale JFIF file from a quantized
/// coefficient stream (block-major) for a `dim × dim` image.
///
/// # Panics
///
/// Panics on a size mismatch.
pub fn encode_jfif(coeffs: &[f32], dim: usize) -> Vec<u8> {
    assert_eq!(coeffs.len(), dim * dim);
    let mut out = Vec::new();
    // SOI + APP0 (JFIF).
    out.extend_from_slice(&[0xFF, 0xD8]);
    out.extend_from_slice(&[0xFF, 0xE0, 0x00, 0x10]);
    out.extend_from_slice(b"JFIF\0");
    out.extend_from_slice(&[0x01, 0x01, 0x00, 0x00, 0x01, 0x00, 0x01, 0x00, 0x00]);
    // DQT (table 0, 8-bit precision, zigzag order).
    out.extend_from_slice(&[0xFF, 0xDB, 0x00, 0x43, 0x00]);
    for &z in &ZIGZAG {
        out.push(LUMA_QUANT[z] as u8);
    }
    // SOF0: 8-bit, dim x dim, 1 component, no subsampling.
    out.extend_from_slice(&[0xFF, 0xC0, 0x00, 0x0B, 0x08]);
    out.extend_from_slice(&(dim as u16).to_be_bytes());
    out.extend_from_slice(&(dim as u16).to_be_bytes());
    out.extend_from_slice(&[0x01, 0x01, 0x11, 0x00]);
    // DHT: DC table 0 and AC table 0.
    let dc_len = 2 + 1 + 16 + DC_VALUES.len();
    out.extend_from_slice(&[0xFF, 0xC4]);
    out.extend_from_slice(&(dc_len as u16).to_be_bytes());
    out.push(0x00);
    out.extend_from_slice(&DC_BITS);
    out.extend_from_slice(&DC_VALUES);
    let ac_len = 2 + 1 + 16 + AC_VALUES.len();
    out.extend_from_slice(&[0xFF, 0xC4]);
    out.extend_from_slice(&(ac_len as u16).to_be_bytes());
    out.push(0x10);
    out.extend_from_slice(&AC_BITS);
    out.extend_from_slice(&AC_VALUES);
    // SOS.
    out.extend_from_slice(&[0xFF, 0xDA, 0x00, 0x08, 0x01, 0x01, 0x00, 0x00, 0x3F, 0x00]);
    // Entropy-coded segment.
    let dc_table = HuffTable::new(&DC_BITS, &DC_VALUES);
    let ac_table = HuffTable::new(&AC_BITS, &AC_VALUES);
    let mut writer = BitWriter::new();
    let mut prev_dc = 0i32;
    for chunk in coeffs.chunks_exact(64) {
        let mut block = [0.0f32; 64];
        block.copy_from_slice(chunk);
        prev_dc = encode_block(&mut writer, &dc_table, &ac_table, &block, prev_dc);
    }
    out.extend_from_slice(&writer.finish());
    // EOI.
    out.extend_from_slice(&[0xFF, 0xD9]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp_block() -> [f32; 64] {
        let mut b = [0.0f32; 64];
        for (i, v) in b.iter_mut().enumerate() {
            *v = (i as f32 * 3.0) % 256.0;
        }
        b
    }

    #[test]
    fn dct_of_flat_block_is_dc_only() {
        let block = [200.0f32; 64];
        let coeffs = dct_quantize(&block);
        // DC = 8 * (200 - 128) / 16 = 36.
        assert_eq!(coeffs[0], 36.0);
        assert!(coeffs[1..].iter().all(|&c| c == 0.0), "{coeffs:?}");
    }

    #[test]
    fn dct_idct_round_trip_is_close() {
        let block = ramp_block();
        let coeffs = dct_quantize(&block);
        let back = dequantize_idct(&coeffs);
        // Quantization loses detail, but values must stay in the right
        // neighbourhood.
        for (a, b) in block.iter().zip(&back) {
            assert!((a - b).abs() < 40.0, "{a} vs {b}");
        }
        let rmse: f32 = block
            .iter()
            .zip(&back)
            .map(|(a, b)| (a - b).powi(2))
            .sum::<f32>()
            .sqrt()
            / 8.0;
        assert!(rmse < 16.0, "rmse = {rmse}");
    }

    #[test]
    fn magnitude_categories() {
        assert_eq!(magnitude(0), (0, 0));
        assert_eq!(magnitude(1), (1, 1));
        assert_eq!(magnitude(-1), (1, 0));
        assert_eq!(magnitude(5), (3, 5));
        assert_eq!(magnitude(-5), (3, 2));
        assert_eq!(magnitude(255), (8, 255));
    }

    #[test]
    fn bit_writer_stuffs_ff() {
        let mut w = BitWriter::new();
        w.put(0xFF, 8);
        let out = w.finish();
        assert_eq!(out, [0xFF, 0x00]);
    }

    #[test]
    fn bit_writer_pads_with_ones() {
        let mut w = BitWriter::new();
        w.put(0b101, 3);
        let out = w.finish();
        assert_eq!(out, [0b1011_1111]);
    }

    #[test]
    fn huffman_table_is_prefix_free() {
        let t = HuffTable::new(&AC_BITS, &AC_VALUES);
        let mut codes: Vec<(u16, u8)> = AC_VALUES.iter().map(|&v| t.code(v)).collect();
        codes.sort();
        for w in codes.windows(2) {
            let ((c1, l1), (c2, l2)) = (w[0], w[1]);
            assert_ne!((c1, l1), (c2, l2), "duplicate code");
            if l2 > l1 {
                // c1 must not be a prefix of c2.
                assert_ne!(c2 >> (l2 - l1), c1, "prefix violation");
            }
        }
    }

    #[test]
    fn jfif_stream_is_well_formed() {
        // Four flat blocks → a 16x16 image.
        let mut coeffs = Vec::new();
        for _ in 0..4 {
            coeffs.extend_from_slice(&dct_quantize(&[180.0f32; 64]));
        }
        let file = encode_jfif(&coeffs, 16);
        assert_eq!(&file[..2], &[0xFF, 0xD8], "SOI");
        assert_eq!(&file[file.len() - 2..], &[0xFF, 0xD9], "EOI");
        // Contains SOF0, DQT, DHT, SOS markers.
        for marker in [0xC0u8, 0xDB, 0xC4, 0xDA] {
            assert!(
                file.windows(2).any(|w| w == [0xFF, marker]),
                "missing marker {marker:02X}"
            );
        }
    }

    #[test]
    fn decode_stream_rebuilds_geometry() {
        let mut coeffs = vec![0.0f32; 256];
        // Block 0 bright, others dark.
        let bright = dct_quantize(&[250.0f32; 64]);
        let dark = dct_quantize(&[20.0f32; 64]);
        coeffs[..64].copy_from_slice(&bright);
        for b in 1..4 {
            coeffs[b * 64..(b + 1) * 64].copy_from_slice(&dark);
        }
        let img = decode_coefficient_stream(&coeffs, 16);
        assert!(img[0] > 200.0); // top-left block
        assert!(img[15] < 60.0); // top-right block
        assert!(img[16 * 8] < 60.0); // bottom-left block
    }
}
