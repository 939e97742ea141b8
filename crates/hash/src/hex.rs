//! Lowercase hexadecimal encoding and decoding.

use std::error::Error;
use std::fmt;

const ALPHABET: &[u8; 16] = b"0123456789abcdef";

/// Encodes bytes as lowercase hex.
///
/// ```
/// assert_eq!(gear_hash::hex_encode(&[0xde, 0xad]), "dead");
/// ```
pub fn encode(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len() * 2);
    for &b in bytes {
        out.push(ALPHABET[(b >> 4) as usize] as char);
        out.push(ALPHABET[(b & 0xf) as usize] as char);
    }
    out
}

/// Error returned by [`decode`] for malformed hex input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FromHexError {
    /// Input length was odd.
    OddLength,
    /// A character outside `[0-9a-fA-F]` was found at the given byte offset.
    InvalidChar {
        /// Byte offset of the offending character.
        index: usize,
    },
}

impl fmt::Display for FromHexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FromHexError::OddLength => write!(f, "hex string has odd length"),
            FromHexError::InvalidChar { index } => {
                write!(f, "invalid hex character at index {index}")
            }
        }
    }
}

impl Error for FromHexError {}

/// Decodes a hex string (either case) into bytes.
///
/// # Errors
///
/// Returns [`FromHexError`] if the input has odd length or contains a
/// non-hex character.
///
/// ```
/// # fn main() -> Result<(), gear_hash::FromHexError> {
/// assert_eq!(gear_hash::hex_decode("DEad")?, vec![0xde, 0xad]);
/// # Ok(())
/// # }
/// ```
pub fn decode(s: &str) -> Result<Vec<u8>, FromHexError> {
    if !s.len().is_multiple_of(2) {
        return Err(FromHexError::OddLength);
    }
    let mut out = vec![0; s.len() / 2];
    decode_into(s.as_bytes(), &mut out)?;
    Ok(out)
}

/// Decodes `hex`, two digits for every byte of `out`, in place — what a
/// fixed-width id parses with, so reading one allocates nothing.
pub(crate) fn decode_into(hex: &[u8], out: &mut [u8]) -> Result<(), FromHexError> {
    debug_assert_eq!(hex.len(), 2 * out.len());
    for (i, (pair, byte)) in hex.chunks_exact(2).zip(out).enumerate() {
        let hi = nibble(pair[0]).ok_or(FromHexError::InvalidChar { index: i * 2 })?;
        let lo = nibble(pair[1]).ok_or(FromHexError::InvalidChar { index: i * 2 + 1 })?;
        *byte = (hi << 4) | lo;
    }
    Ok(())
}

fn nibble(c: u8) -> Option<u8> {
    match c {
        b'0'..=b'9' => Some(c - b'0'),
        b'a'..=b'f' => Some(c - b'a' + 10),
        b'A'..=b'F' => Some(c - b'A' + 10),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_basic() {
        let data = [0u8, 1, 0x7f, 0x80, 0xff];
        assert_eq!(decode(&encode(&data)).unwrap(), data);
    }

    #[test]
    fn empty() {
        assert_eq!(encode(&[]), "");
        assert_eq!(decode("").unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn rejects_odd_length() {
        assert_eq!(decode("abc"), Err(FromHexError::OddLength));
    }

    #[test]
    fn rejects_invalid_char() {
        assert_eq!(decode("zz"), Err(FromHexError::InvalidChar { index: 0 }));
        assert_eq!(decode("a g "), Err(FromHexError::InvalidChar { index: 1 }));
    }

    #[test]
    fn uppercase_accepted() {
        assert_eq!(decode("ABCDEF").unwrap(), vec![0xab, 0xcd, 0xef]);
    }
}
