//! Stand-in for `bytes` 1.x over `Vec<u8>`: what `sgp-engine::wire`
//! uses — `BytesMut::with_capacity`, the big-endian `BufMut` writers,
//! `freeze`, and `Bytes` read as a byte slice.

use std::ops::Deref;

/// Immutable byte buffer.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Bytes(Vec<u8>);

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.0
    }
}

/// Growable byte buffer.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct BytesMut(Vec<u8>);

impl BytesMut {
    /// An empty buffer with room for `capacity` bytes.
    pub fn with_capacity(capacity: usize) -> Self {
        BytesMut(Vec::with_capacity(capacity))
    }

    /// Makes the buffer immutable.
    pub fn freeze(self) -> Bytes {
        Bytes(self.0)
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.0
    }
}

/// Append-style writers; multi-byte integers are big-endian.
pub trait BufMut {
    /// Appends `src`.
    fn put_slice(&mut self, src: &[u8]);

    /// Appends one byte.
    fn put_u8(&mut self, n: u8) {
        self.put_slice(&[n]);
    }

    /// Appends `n` in big-endian order.
    fn put_u32(&mut self, n: u32) {
        self.put_slice(&n.to_be_bytes());
    }

    /// Appends `cnt` copies of `val`.
    fn put_bytes(&mut self, val: u8, cnt: usize) {
        for _ in 0..cnt {
            self.put_u8(val);
        }
    }
}

impl BufMut for BytesMut {
    fn put_slice(&mut self, src: &[u8]) {
        self.0.extend_from_slice(src);
    }
}
