//! Checksummed binary framing for store files.
//!
//! Every file is `[magic "BGIS"][version u16][section u16][payload]
//! [fnv1a-64 of everything before]`, little-endian throughout. The
//! decoder verifies length, magic, version, section, and checksum
//! before handing out a cursor over the payload; any mismatch is a
//! framing error the store maps to [`crate::StoreError::Corrupt`] —
//! reads are bounds-checked and never panic on torn input.

/// 4-byte file magic.
pub const MAGIC: [u8; 4] = *b"BGIS";
/// Format version; bump on any layout change.
pub const VERSION: u16 = 3;

/// Section tags identifying what a file contains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Section {
    /// The BiG-index hierarchy (`index.bin`).
    Index = 1,
    /// Algorithm/evaluation parameters (`params.bin`).
    Params = 2,
    /// A per-layer BANKS index (`banks-<m>.bin`).
    Banks = 3,
    // 4 framed the BLINKS index files (`blinks-<m>.bin`) older builds
    // wrote; a load checks them against the manifest and reads no
    // further.
    /// The generation manifest (`MANIFEST`).
    Manifest = 6,
    /// One update batch in the write-ahead log (`wal.log`).
    Wal = 7,
}

/// FNV-1a 64-bit over `bytes` — dependency-free and deterministic
/// across platforms, which is all a torn-write detector needs.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A decoding failure: what was expected, where.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodecError {
    /// Human-readable description of the violated expectation.
    pub detail: String,
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.detail)
    }
}

impl std::error::Error for CodecError {}

fn err<T>(detail: impl Into<String>) -> Result<T, CodecError> {
    Err(CodecError {
        detail: detail.into(),
    })
}

/// Little-endian byte writer with the standard frame.
#[derive(Debug)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    /// Starts a frame for `section`.
    pub fn new(section: Section) -> Self {
        let mut buf = Vec::with_capacity(64);
        buf.extend_from_slice(&MAGIC);
        buf.extend_from_slice(&VERSION.to_le_bytes());
        buf.extend_from_slice(&(section as u16).to_le_bytes());
        Enc { buf }
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64` as its IEEE-754 bit pattern.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Appends a length-prefixed `u32` slice.
    pub fn u32_slice(&mut self, vs: &[u32]) {
        self.u64(vs.len() as u64);
        for &v in vs {
            self.u32(v);
        }
    }

    /// Appends length-prefixed raw bytes.
    pub fn bytes(&mut self, bs: &[u8]) {
        self.u64(bs.len() as u64);
        self.buf.extend_from_slice(bs);
    }

    /// Closes the frame: appends the checksum and returns the bytes.
    pub fn finish(mut self) -> Vec<u8> {
        let sum = fnv1a64(&self.buf);
        self.buf.extend_from_slice(&sum.to_le_bytes());
        self.buf
    }
}

/// Bounds-checked little-endian reader over a verified frame payload.
#[derive(Debug)]
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

const HEADER: usize = 8; // magic + version + section
const TRAILER: usize = 8; // checksum

/// Verifies a frame's length, checksum and magic and returns the format
/// version it was written with — whatever that is, so a caller can tell
/// an intact file of another version from a damaged one.
pub fn frame_version(bytes: &[u8]) -> Result<u16, CodecError> {
    if bytes.len() < HEADER + TRAILER {
        return err(format!("file too short ({} bytes)", bytes.len()));
    }
    let (body, trailer) = bytes.split_at(bytes.len() - TRAILER);
    let want = u64::from_le_bytes([
        trailer[0], trailer[1], trailer[2], trailer[3], trailer[4], trailer[5], trailer[6],
        trailer[7],
    ]);
    let got = fnv1a64(body);
    if want != got {
        return err(format!(
            "checksum mismatch: stored {want:#x}, computed {got:#x}"
        ));
    }
    if body[..4] != MAGIC {
        return err("bad magic");
    }
    Ok(u16::from_le_bytes([body[4], body[5]]))
}

impl<'a> Dec<'a> {
    /// Verifies the frame (length, magic, version, section, checksum)
    /// and returns a cursor over the payload.
    pub fn open(bytes: &'a [u8], section: Section) -> Result<Self, CodecError> {
        let version = frame_version(bytes)?;
        if version != VERSION {
            return err(format!(
                "unsupported version {version} (expected {VERSION})"
            ));
        }
        let body = &bytes[..bytes.len() - TRAILER];
        let tag = u16::from_le_bytes([body[6], body[7]]);
        if tag != section as u16 {
            return err(format!(
                "section tag {tag} where {} expected",
                section as u16
            ));
        }
        Ok(Dec {
            buf: body,
            pos: HEADER,
        })
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.buf.len() - self.pos < n {
            return err(format!(
                "truncated payload: wanted {n} bytes at offset {}, {} remain",
                self.pos,
                self.buf.len() - self.pos
            ));
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a `u32`.
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a `u64`.
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Reads an `f64` from its bit pattern.
    pub fn f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a length prefix, rejecting lengths that cannot fit in the
    /// remaining payload (guards allocation against corrupt headers).
    pub fn seq_len(&mut self) -> Result<usize, CodecError> {
        let n = self.u64()?;
        let remaining = (self.buf.len() - self.pos) as u64;
        if n > remaining {
            return err(format!("length {n} exceeds remaining payload {remaining}"));
        }
        Ok(n as usize)
    }

    /// Reads a length-prefixed `u32` slice.
    pub fn u32_slice(&mut self) -> Result<Vec<u32>, CodecError> {
        let n = self.seq_len()?;
        let mut out = Vec::with_capacity(n.min(1 << 20));
        for _ in 0..n {
            out.push(self.u32()?);
        }
        Ok(out)
    }

    /// Reads length-prefixed raw bytes.
    pub fn bytes(&mut self) -> Result<&'a [u8], CodecError> {
        let n = self.seq_len()?;
        self.take(n)
    }

    /// Asserts the payload is fully consumed (trailing garbage is
    /// corruption, not slack).
    pub fn finish(self) -> Result<(), CodecError> {
        if self.pos != self.buf.len() {
            return err(format!(
                "{} unconsumed payload bytes",
                self.buf.len() - self.pos
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_primitives() {
        let mut e = Enc::new(Section::Params);
        e.u8(7);
        e.u32(0xdead_beef);
        e.u64(u64::MAX - 3);
        e.f64(0.4);
        e.u32_slice(&[1, 2, 3]);
        e.bytes(b"xyz");
        let bytes = e.finish();

        let mut d = Dec::open(&bytes, Section::Params).unwrap();
        assert_eq!(d.u8().unwrap(), 7);
        assert_eq!(d.u32().unwrap(), 0xdead_beef);
        assert_eq!(d.u64().unwrap(), u64::MAX - 3);
        assert_eq!(d.f64().unwrap(), 0.4);
        assert_eq!(d.u32_slice().unwrap(), vec![1, 2, 3]);
        assert_eq!(d.bytes().unwrap(), b"xyz");
        d.finish().unwrap();
    }

    #[test]
    fn detects_bit_flip_anywhere() {
        let mut e = Enc::new(Section::Index);
        e.u32_slice(&[1, 2, 3, 4]);
        let bytes = e.finish();
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x40;
            assert!(
                Dec::open(&bad, Section::Index).is_err(),
                "flip at byte {i} went undetected"
            );
        }
    }

    #[test]
    fn detects_truncation() {
        let mut e = Enc::new(Section::Banks);
        e.u32_slice(&[5; 100]);
        let bytes = e.finish();
        for cut in [0, 1, 8, bytes.len() / 2, bytes.len() - 1] {
            assert!(Dec::open(&bytes[..cut], Section::Banks).is_err());
        }
    }

    #[test]
    fn rejects_wrong_section() {
        let e = Enc::new(Section::Banks);
        let bytes = e.finish();
        assert!(Dec::open(&bytes, Section::Params).is_err());
        assert!(Dec::open(&bytes, Section::Banks).is_ok());
    }

    #[test]
    fn rejects_oversized_length_prefix() {
        let mut e = Enc::new(Section::Index);
        e.u64(u64::MAX); // a length prefix pointing beyond the payload
        let bytes = e.finish();
        let mut d = Dec::open(&bytes, Section::Index).unwrap();
        assert!(d.seq_len().is_err());
    }

    #[test]
    fn rejects_trailing_garbage() {
        let mut e = Enc::new(Section::Index);
        e.u32(1);
        e.u32(2);
        let bytes = e.finish();
        let mut d = Dec::open(&bytes, Section::Index).unwrap();
        assert_eq!(d.u32().unwrap(), 1);
        assert!(d.finish().is_err());
    }
}
