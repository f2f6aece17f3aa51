//! A minimal DER-style TLV codec used to serialize certificates.
//!
//! This is not a full ASN.1 implementation — it provides the same
//! *shape* as DER (tag, definite length, nested values, deterministic
//! byte-exact encoding) so that certificate thumbprints, re-encoding
//! stability, and parsing of hostile input are all exercised the way a
//! real scanner exercises them.

/// DER-style universal tags used by the certificate encoding.
pub mod tag {
    /// BOOLEAN
    pub const BOOLEAN: u8 = 0x01;
    /// INTEGER (big-endian, unsigned here)
    pub const INTEGER: u8 = 0x02;
    /// BIT STRING (we omit the unused-bits octet)
    pub const BIT_STRING: u8 = 0x03;
    /// OCTET STRING
    pub const OCTET_STRING: u8 = 0x04;
    /// UTF8String
    pub const UTF8_STRING: u8 = 0x0C;
    /// SEQUENCE (constructed)
    pub const SEQUENCE: u8 = 0x30;
    /// GeneralizedTime (stored as an 8-byte big-endian unix timestamp)
    pub const TIME: u8 = 0x18;
    /// Context-specific constructed tag 0 (extensions)
    pub const CONTEXT_0: u8 = 0xA0;
    /// Context-specific constructed tag 1 (alternative names)
    pub const CONTEXT_1: u8 = 0xA1;
}

/// Errors raised when parsing TLV data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DerError {
    /// Input ended in the middle of a value.
    Truncated,
    /// A tag differed from the expected one.
    UnexpectedTag {
        /// The tag the caller required.
        expected: u8,
        /// The tag actually present.
        found: u8,
    },
    /// A length field was malformed (e.g. over 4 length octets).
    BadLength,
    /// Trailing bytes after a complete value.
    TrailingData,
    /// A string was not valid UTF-8.
    BadString,
}

impl std::fmt::Display for DerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DerError::Truncated => write!(f, "truncated DER value"),
            DerError::UnexpectedTag { expected, found } => {
                write!(
                    f,
                    "unexpected DER tag {found:#04x} (expected {expected:#04x})"
                )
            }
            DerError::BadLength => write!(f, "malformed DER length"),
            DerError::TrailingData => write!(f, "trailing data after DER value"),
            DerError::BadString => write!(f, "invalid UTF-8 in DER string"),
        }
    }
}

impl std::error::Error for DerError {}

/// Serializes TLV values into a buffer.
#[derive(Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Consumes the writer, returning the encoded bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    /// Writes a raw TLV with the given tag and contents.
    pub fn tlv(&mut self, tag: u8, contents: &[u8]) {
        self.buf.push(tag);
        Self::write_len(&mut self.buf, contents.len());
        self.buf.extend_from_slice(contents);
    }

    /// Writes a nested (constructed) value built by `f`.
    pub fn nested(&mut self, tag: u8, f: impl FnOnce(&mut Writer)) {
        let mut inner = Writer::new();
        f(&mut inner);
        self.tlv(tag, &inner.buf);
    }

    /// Writes an unsigned integer from big-endian bytes.
    pub fn integer_bytes(&mut self, be: &[u8]) {
        // Strip redundant leading zeros but keep at least one byte.
        let first_nonzero = be.iter().position(|&b| b != 0).unwrap_or(be.len());
        let trimmed = if first_nonzero == be.len() {
            &[0u8][..]
        } else {
            &be[first_nonzero..]
        };
        self.tlv(tag::INTEGER, trimmed);
    }

    /// Writes a `u64` integer.
    pub fn integer_u64(&mut self, v: u64) {
        self.integer_bytes(&v.to_be_bytes());
    }

    /// Writes a boolean.
    pub fn boolean(&mut self, v: bool) {
        self.tlv(tag::BOOLEAN, &[if v { 0xFF } else { 0x00 }]);
    }

    /// Writes a UTF-8 string.
    pub fn utf8(&mut self, s: &str) {
        self.tlv(tag::UTF8_STRING, s.as_bytes());
    }

    /// Writes a timestamp (unix seconds, signed 64-bit).
    pub fn time(&mut self, unix: i64) {
        self.tlv(tag::TIME, &unix.to_be_bytes());
    }

    fn write_len(buf: &mut Vec<u8>, len: usize) {
        if len < 0x80 {
            buf.push(len as u8);
        } else {
            let be = (len as u32).to_be_bytes();
            let skip = be.iter().position(|&b| b != 0).unwrap_or(3);
            let octets = &be[skip..];
            buf.push(0x80 | octets.len() as u8);
            buf.extend_from_slice(octets);
        }
    }
}

/// Parses TLV values from a byte slice.
pub struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Creates a reader over `data`.
    pub fn new(data: &'a [u8]) -> Self {
        Reader { data, pos: 0 }
    }

    /// True when all bytes are consumed.
    pub fn is_empty(&self) -> bool {
        self.pos >= self.data.len()
    }

    /// Reads the next TLV, returning `(tag, contents)`.
    pub fn any(&mut self) -> Result<(u8, &'a [u8]), DerError> {
        let tag = *self.data.get(self.pos).ok_or(DerError::Truncated)?;
        self.pos += 1;
        let first = *self.data.get(self.pos).ok_or(DerError::Truncated)?;
        self.pos += 1;
        let len = if first < 0x80 {
            first as usize
        } else {
            let n = (first & 0x7f) as usize;
            if n == 0 || n > 4 {
                return Err(DerError::BadLength);
            }
            let mut len = 0usize;
            for _ in 0..n {
                let b = *self.data.get(self.pos).ok_or(DerError::Truncated)?;
                self.pos += 1;
                len = (len << 8) | b as usize;
            }
            len
        };
        let end = self.pos.checked_add(len).ok_or(DerError::BadLength)?;
        if end > self.data.len() {
            return Err(DerError::Truncated);
        }
        let contents = &self.data[self.pos..end];
        self.pos = end;
        Ok((tag, contents))
    }

    /// Reads a TLV and checks its tag.
    pub fn expect(&mut self, expected: u8) -> Result<&'a [u8], DerError> {
        let (tag, contents) = self.any()?;
        if tag != expected {
            return Err(DerError::UnexpectedTag {
                expected,
                found: tag,
            });
        }
        Ok(contents)
    }

    /// Reads a nested value and returns a reader over its contents.
    pub fn nested(&mut self, expected: u8) -> Result<Reader<'a>, DerError> {
        Ok(Reader::new(self.expect(expected)?))
    }

    /// Reads an unsigned integer as big-endian bytes.
    pub fn integer_bytes(&mut self) -> Result<&'a [u8], DerError> {
        self.expect(tag::INTEGER)
    }

    /// Reads a `u64` integer; values wider than 8 bytes are an error.
    pub fn integer_u64(&mut self) -> Result<u64, DerError> {
        let raw = self.integer_bytes()?;
        if raw.len() > 8 {
            return Err(DerError::BadLength);
        }
        let mut v = 0u64;
        for &b in raw {
            v = (v << 8) | b as u64;
        }
        Ok(v)
    }

    /// Reads a boolean.
    pub fn boolean(&mut self) -> Result<bool, DerError> {
        let raw = self.expect(tag::BOOLEAN)?;
        Ok(raw.first().copied().unwrap_or(0) != 0)
    }

    /// Reads a UTF-8 string.
    pub fn utf8(&mut self) -> Result<&'a str, DerError> {
        let raw = self.expect(tag::UTF8_STRING)?;
        std::str::from_utf8(raw).map_err(|_| DerError::BadString)
    }

    /// Reads a timestamp (unix seconds).
    pub fn time(&mut self) -> Result<i64, DerError> {
        let raw = self.expect(tag::TIME)?;
        if raw.len() != 8 {
            return Err(DerError::BadLength);
        }
        let mut be = [0u8; 8];
        be.copy_from_slice(raw);
        Ok(i64::from_be_bytes(be))
    }

    /// Asserts that no bytes remain.
    pub fn expect_end(&self) -> Result<(), DerError> {
        if self.is_empty() {
            Ok(())
        } else {
            Err(DerError::TrailingData)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_primitives() {
        let mut w = Writer::new();
        w.integer_u64(0xdeadbeef);
        w.boolean(true);
        w.utf8("hello");
        w.time(1_583_000_000);
        let bytes = w.finish();

        let mut r = Reader::new(&bytes);
        assert_eq!(r.integer_u64().unwrap(), 0xdeadbeef);
        assert!(r.boolean().unwrap());
        assert_eq!(r.utf8().unwrap(), "hello");
        assert_eq!(r.time().unwrap(), 1_583_000_000);
        r.expect_end().unwrap();
    }

    #[test]
    fn nested_sequences() {
        let mut w = Writer::new();
        w.nested(tag::SEQUENCE, |w| {
            w.integer_u64(1);
            w.nested(tag::SEQUENCE, |w| {
                w.utf8("inner");
            });
        });
        let bytes = w.finish();
        let mut r = Reader::new(&bytes);
        let mut seq = r.nested(tag::SEQUENCE).unwrap();
        assert_eq!(seq.integer_u64().unwrap(), 1);
        let mut inner = seq.nested(tag::SEQUENCE).unwrap();
        assert_eq!(inner.utf8().unwrap(), "inner");
        inner.expect_end().unwrap();
        seq.expect_end().unwrap();
        r.expect_end().unwrap();
    }

    #[test]
    fn long_form_length() {
        let payload = vec![0x55u8; 300];
        let mut w = Writer::new();
        w.tlv(tag::OCTET_STRING, &payload);
        let bytes = w.finish();
        // 0x04, 0x82, 0x01, 0x2C, payload
        assert_eq!(bytes[0], tag::OCTET_STRING);
        assert_eq!(bytes[1], 0x82);
        assert_eq!(((bytes[2] as usize) << 8) | bytes[3] as usize, 300);
        let mut r = Reader::new(&bytes);
        assert_eq!(r.expect(tag::OCTET_STRING).unwrap(), payload.as_slice());
    }

    #[test]
    fn integer_strips_leading_zeros() {
        let mut w = Writer::new();
        w.integer_u64(5);
        let bytes = w.finish();
        assert_eq!(bytes, vec![tag::INTEGER, 1, 5]);
        let mut w = Writer::new();
        w.integer_u64(0);
        assert_eq!(w.finish(), vec![tag::INTEGER, 1, 0]);
    }

    #[test]
    fn truncated_input_errors() {
        assert_eq!(Reader::new(&[0x02]).any(), Err(DerError::Truncated));
        assert_eq!(
            Reader::new(&[0x02, 0x05, 1, 2]).any(),
            Err(DerError::Truncated)
        );
        assert_eq!(Reader::new(&[]).any(), Err(DerError::Truncated));
    }

    #[test]
    fn bad_length_errors() {
        // 0x80 (indefinite) and >4 length octets are rejected.
        assert_eq!(
            Reader::new(&[0x02, 0x80, 0]).any(),
            Err(DerError::BadLength)
        );
        assert_eq!(
            Reader::new(&[0x02, 0x85, 0, 0, 0, 0, 1, 9]).any(),
            Err(DerError::BadLength)
        );
    }

    #[test]
    fn unexpected_tag_errors() {
        let mut w = Writer::new();
        w.boolean(false);
        let bytes = w.finish();
        let mut r = Reader::new(&bytes);
        assert!(matches!(
            r.integer_bytes(),
            Err(DerError::UnexpectedTag { .. })
        ));
    }

    #[test]
    fn trailing_data_detected() {
        let mut w = Writer::new();
        w.boolean(false);
        let mut bytes = w.finish();
        bytes.push(0x00);
        let mut r = Reader::new(&bytes);
        r.boolean().unwrap();
        assert_eq!(r.expect_end(), Err(DerError::TrailingData));
    }
}
