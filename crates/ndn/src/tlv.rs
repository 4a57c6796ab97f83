//! NDN Type-Length-Value (TLV) wire encoding.
//!
//! Implements the variable-length number scheme of the NDN packet format
//! v0.3: values below 253 take one byte; `253` introduces a 2-byte
//! big-endian number, `254` a 4-byte, `255` an 8-byte. Both TLV-TYPE and
//! TLV-LENGTH use this scheme.

use bytes::{BufMut, Bytes, BytesMut};
use std::fmt;

/// TLV-TYPE assignments used by this implementation (NDN packet spec v0.3).
pub mod types {
    /// Interest packet.
    pub const INTEREST: u64 = 0x05;
    /// Data packet.
    pub const DATA: u64 = 0x06;
    /// Name.
    pub const NAME: u64 = 0x07;
    /// CanBePrefix element.
    pub const CAN_BE_PREFIX: u64 = 0x21;
    /// MustBeFresh element.
    pub const MUST_BE_FRESH: u64 = 0x12;
    /// Nonce element.
    pub const NONCE: u64 = 0x0A;
    /// InterestLifetime element (milliseconds).
    pub const INTEREST_LIFETIME: u64 = 0x0C;
    /// HopLimit element.
    pub const HOP_LIMIT: u64 = 0x22;
    /// ApplicationParameters element.
    pub const APPLICATION_PARAMETERS: u64 = 0x24;
    /// MetaInfo element.
    pub const META_INFO: u64 = 0x14;
    /// ContentType element.
    pub const CONTENT_TYPE: u64 = 0x18;
    /// FreshnessPeriod element (milliseconds).
    pub const FRESHNESS_PERIOD: u64 = 0x19;
    /// FinalBlockId element.
    pub const FINAL_BLOCK_ID: u64 = 0x1A;
    /// Content element.
    pub const CONTENT: u64 = 0x15;
    /// SignatureInfo element.
    pub const SIGNATURE_INFO: u64 = 0x16;
    /// SignatureValue element.
    pub const SIGNATURE_VALUE: u64 = 0x17;
    /// SignatureType element.
    pub const SIGNATURE_TYPE: u64 = 0x1B;
    /// KeyLocator element.
    pub const KEY_LOCATOR: u64 = 0x1C;
    /// Network NACK header (NDNLPv2).
    pub const NACK: u64 = 0x0320;
    /// NACK reason (NDNLPv2).
    pub const NACK_REASON: u64 = 0x0321;
}

/// Size in bytes of a var-number encoding of `n`.
pub const fn var_number_size(n: u64) -> usize {
    if n < 253 {
        1
    } else if n <= 0xFFFF {
        3
    } else if n <= 0xFFFF_FFFF {
        5
    } else {
        9
    }
}

/// Append a var-number to `out`.
pub fn put_var_number(out: &mut impl BufMut, n: u64) {
    if n < 253 {
        out.put_u8(n as u8);
    } else if n <= 0xFFFF {
        out.put_u8(253);
        out.put_u16(n as u16);
    } else if n <= 0xFFFF_FFFF {
        out.put_u8(254);
        out.put_u32(n as u32);
    } else {
        out.put_u8(255);
        out.put_u64(n);
    }
}

/// Total encoded size of a TLV element with the given type and value length.
pub const fn tlv_size(typ: u64, value_len: usize) -> usize {
    var_number_size(typ) + var_number_size(value_len as u64) + value_len
}

/// Append a full TLV element.
pub fn put_tlv(out: &mut impl BufMut, typ: u64, value: &[u8]) {
    put_var_number(out, typ);
    put_var_number(out, value.len() as u64);
    out.put_slice(value);
}

/// Append a TLV element whose value is a NonNegativeInteger (1/2/4/8 bytes,
/// shortest form among those widths, per the NDN spec).
pub fn put_nonneg_tlv(out: &mut impl BufMut, typ: u64, n: u64) {
    put_var_number(out, typ);
    if n <= 0xFF {
        put_var_number(out, 1);
        out.put_u8(n as u8);
    } else if n <= 0xFFFF {
        put_var_number(out, 2);
        out.put_u16(n as u16);
    } else if n <= 0xFFFF_FFFF {
        put_var_number(out, 4);
        out.put_u32(n as u32);
    } else {
        put_var_number(out, 8);
        out.put_u64(n);
    }
}

/// Size of a NonNegativeInteger TLV element.
pub const fn nonneg_tlv_size(typ: u64, n: u64) -> usize {
    let vlen = if n <= 0xFF {
        1
    } else if n <= 0xFFFF {
        2
    } else if n <= 0xFFFF_FFFF {
        4
    } else {
        8
    };
    tlv_size(typ, vlen)
}

/// Decoding error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TlvError {
    /// Input ended inside a var-number or value.
    Truncated,
    /// A TLV element declared a length past the end of input.
    LengthOverrun,
    /// An element of an unexpected type was found.
    UnexpectedType {
        /// The type that was expected.
        expected: u64,
        /// The type actually read.
        found: u64,
    },
    /// A NonNegativeInteger had an invalid width.
    BadNonNegWidth(usize),
    /// Structural constraint violated (e.g. missing mandatory element).
    Malformed(&'static str),
}

impl fmt::Display for TlvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TlvError::Truncated => write!(f, "truncated TLV input"),
            TlvError::LengthOverrun => write!(f, "TLV length exceeds available input"),
            TlvError::UnexpectedType { expected, found } => {
                write!(f, "expected TLV type {expected:#x}, found {found:#x}")
            }
            TlvError::BadNonNegWidth(w) => write!(f, "invalid NonNegativeInteger width {w}"),
            TlvError::Malformed(what) => write!(f, "malformed packet: {what}"),
        }
    }
}

impl std::error::Error for TlvError {}

/// A zero-copy TLV reader over a byte slice.
#[derive(Clone)]
pub struct TlvReader<'a> {
    input: &'a [u8],
    pos: usize,
}

impl<'a> TlvReader<'a> {
    /// Create a reader over `input`.
    pub fn new(input: &'a [u8]) -> Self {
        TlvReader { input, pos: 0 }
    }

    /// True when all input is consumed.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.pos >= self.input.len()
    }

    /// Remaining unread bytes.
    pub fn remaining(&self) -> usize {
        self.input.len() - self.pos
    }

    /// Read one var-number.
    #[inline]
    pub fn read_var_number(&mut self) -> Result<u64, TlvError> {
        let first = *self.input.get(self.pos).ok_or(TlvError::Truncated)?;
        self.pos += 1;
        let len: usize = match first {
            253 => 2,
            254 => 4,
            255 => 8,
            b => return Ok(u64::from(b)),
        };
        if self.pos + len > self.input.len() {
            return Err(TlvError::Truncated);
        }
        let mut n: u64 = 0;
        for &b in &self.input[self.pos..self.pos + len] {
            n = (n << 8) | u64::from(b);
        }
        self.pos += len;
        Ok(n)
    }

    /// Peek the type of the next element without consuming it.
    pub fn peek_type(&self) -> Result<u64, TlvError> {
        self.clone().read_var_number()
    }

    /// Read the next element header and return `(type, value)`.
    ///
    /// Fast path: both TLV-TYPE and TLV-LENGTH fit one byte (every element
    /// this codebase emits below 253 bytes), decoded with a single bounds
    /// check.
    #[inline]
    pub fn read_tlv(&mut self) -> Result<(u64, &'a [u8]), TlvError> {
        if let [t, l, ..] = &self.input[self.pos..] {
            let (t, l) = (*t, *l);
            if t < 253 && l < 253 {
                let start = self.pos + 2;
                let end = start + l as usize;
                if end > self.input.len() {
                    return Err(TlvError::LengthOverrun);
                }
                self.pos = end;
                return Ok((u64::from(t), &self.input[start..end]));
            }
        }
        self.read_tlv_slow()
    }

    #[cold]
    fn read_tlv_slow(&mut self) -> Result<(u64, &'a [u8]), TlvError> {
        let typ = self.read_var_number()?;
        // Compare before converting: a hostile length near `u64::MAX` must
        // neither truncate to `usize` nor overflow `pos + len`.
        let len = self.read_var_number()?;
        if len > self.remaining() as u64 {
            return Err(TlvError::LengthOverrun);
        }
        let len = len as usize;
        let value = &self.input[self.pos..self.pos + len];
        self.pos += len;
        Ok((typ, value))
    }

    /// Read the next element, requiring type `expected`.
    pub fn read_expected(&mut self, expected: u64) -> Result<&'a [u8], TlvError> {
        let (typ, value) = self.read_tlv()?;
        if typ != expected {
            return Err(TlvError::UnexpectedType {
                expected,
                found: typ,
            });
        }
        Ok(value)
    }

    /// If the next element has type `typ`, consume and return it.
    pub fn read_optional(&mut self, typ: u64) -> Result<Option<&'a [u8]>, TlvError> {
        if self.is_empty() {
            return Ok(None);
        }
        if self.peek_type()? == typ {
            Ok(Some(self.read_expected(typ)?))
        } else {
            Ok(None)
        }
    }

    /// Skip elements until one with type `typ` is found or input ends
    /// (used for forward-compatible skipping of unrecognised elements).
    pub fn seek_type(&mut self, typ: u64) -> Result<Option<&'a [u8]>, TlvError> {
        while !self.is_empty() {
            let mut probe = self.clone();
            let (t, v) = probe.read_tlv()?;
            *self = probe;
            if t == typ {
                return Ok(Some(v));
            }
        }
        Ok(None)
    }
}

/// Decode a NonNegativeInteger value body (width must be 1, 2, 4, or 8).
pub fn parse_nonneg(value: &[u8]) -> Result<u64, TlvError> {
    match value.len() {
        1 => Ok(u64::from(value[0])),
        2 => Ok(u64::from(u16::from_be_bytes([value[0], value[1]]))),
        4 => Ok(u64::from(u32::from_be_bytes([
            value[0], value[1], value[2], value[3],
        ]))),
        8 => {
            let mut b = [0u8; 8];
            b.copy_from_slice(value);
            Ok(u64::from_be_bytes(b))
        }
        w => Err(TlvError::BadNonNegWidth(w)),
    }
}

/// Encode a complete TLV element into a fresh buffer.
pub fn encode_tlv(typ: u64, value: &[u8]) -> Bytes {
    let mut out = BytesMut::with_capacity(tlv_size(typ, value.len()));
    put_tlv(&mut out, typ, value);
    out.freeze()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn var_number_boundaries() {
        let cases: [(u64, usize); 8] = [
            (0, 1),
            (252, 1),
            (253, 3),
            (0xFFFF, 3),
            (0x1_0000, 5),
            (0xFFFF_FFFF, 5),
            (0x1_0000_0000, 9),
            (u64::MAX, 9),
        ];
        for (n, size) in cases {
            assert_eq!(var_number_size(n), size, "size of {n}");
            let mut buf = BytesMut::new();
            put_var_number(&mut buf, n);
            assert_eq!(buf.len(), size);
            let mut r = TlvReader::new(&buf);
            assert_eq!(r.read_var_number().unwrap(), n);
            assert!(r.is_empty());
        }
    }

    #[test]
    fn tlv_round_trip() {
        let mut buf = BytesMut::new();
        put_tlv(&mut buf, types::NAME, b"hello");
        put_tlv(&mut buf, types::CONTENT, b"");
        let mut r = TlvReader::new(&buf);
        let (t1, v1) = r.read_tlv().unwrap();
        assert_eq!((t1, v1), (types::NAME, &b"hello"[..]));
        let (t2, v2) = r.read_tlv().unwrap();
        assert_eq!((t2, v2), (types::CONTENT, &b""[..]));
        assert!(r.is_empty());
    }

    #[test]
    fn nonneg_widths() {
        for n in [0u64, 0xFF, 0x100, 0xFFFF, 0x10000, 0xFFFF_FFFF, 0x1_0000_0000] {
            let mut buf = BytesMut::new();
            put_nonneg_tlv(&mut buf, 0x0C, n);
            assert_eq!(buf.len(), nonneg_tlv_size(0x0C, n), "size of {n}");
            let mut r = TlvReader::new(&buf);
            let v = r.read_expected(0x0C).unwrap();
            assert_eq!(parse_nonneg(v).unwrap(), n);
        }
    }

    #[test]
    fn nonneg_rejects_bad_widths() {
        assert_eq!(parse_nonneg(&[1, 2, 3]), Err(TlvError::BadNonNegWidth(3)));
        assert_eq!(parse_nonneg(&[]), Err(TlvError::BadNonNegWidth(0)));
    }

    #[test]
    fn truncation_detected() {
        let mut buf = BytesMut::new();
        put_tlv(&mut buf, 0x07, b"abcdef");
        // Cut into the value.
        let cut = &buf[..buf.len() - 2];
        let mut r = TlvReader::new(cut);
        assert_eq!(r.read_tlv(), Err(TlvError::LengthOverrun));
        // Cut into the var-number.
        let mut buf2 = BytesMut::new();
        put_var_number(&mut buf2, 70000); // 5-byte encoding
        let mut r2 = TlvReader::new(&buf2[..3]);
        assert_eq!(r2.read_var_number(), Err(TlvError::Truncated));
    }

    #[test]
    fn huge_declared_length_is_an_overrun() {
        // An 8-byte var-number length of u64::MAX behind a Data (0x06) or
        // Interest (0x05) type byte.
        for typ in [0x06u8, 0x05] {
            let wire = [typ, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF];
            let mut r = TlvReader::new(&wire);
            assert_eq!(r.read_tlv(), Err(TlvError::LengthOverrun), "type {typ:#x}");
            let bytes = Bytes::copy_from_slice(&wire);
            assert!(crate::packet::Data::decode(&bytes).is_err(), "type {typ:#x}");
            assert!(crate::packet::Interest::decode(&bytes).is_err(), "type {typ:#x}");
        }
    }

    #[test]
    fn unexpected_type_reported() {
        let buf = encode_tlv(0x07, b"x");
        let mut r = TlvReader::new(&buf);
        assert_eq!(
            r.read_expected(0x08),
            Err(TlvError::UnexpectedType {
                expected: 0x08,
                found: 0x07
            })
        );
    }

    #[test]
    fn optional_and_seek() {
        let mut buf = BytesMut::new();
        put_tlv(&mut buf, 0x07, b"name");
        put_tlv(&mut buf, 0x99, b"unknown");
        put_tlv(&mut buf, 0x15, b"content");
        let mut r = TlvReader::new(&buf);
        assert_eq!(r.read_optional(0x07).unwrap(), Some(&b"name"[..]));
        assert_eq!(r.read_optional(0x15).unwrap(), None, "0x99 is next");
        assert_eq!(r.seek_type(0x15).unwrap(), Some(&b"content"[..]));
        assert!(r.is_empty());
        assert_eq!(r.read_optional(0x15).unwrap(), None, "empty reader");
    }

    #[test]
    fn nested_decoding() {
        let inner = encode_tlv(0x08, b"ndn");
        let outer = encode_tlv(0x07, &inner);
        let mut r = TlvReader::new(&outer);
        let name_body = r.read_expected(0x07).unwrap();
        let mut inner_r = TlvReader::new(name_body);
        assert_eq!(inner_r.read_expected(0x08).unwrap(), b"ndn");
    }
}
