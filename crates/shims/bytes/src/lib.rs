//! Offline shim for the `bytes` crate: the `Buf`/`BufMut` subset used by
//! the row codec. `Buf` is implemented for `&[u8]` (reading consumes the
//! slice in place) and `BufMut` for `Vec<u8>`.

/// Sequential little-endian reader.
pub trait Buf {
    fn remaining(&self) -> usize;
    fn advance(&mut self, n: usize);
    fn copy_to_slice(&mut self, dst: &mut [u8]);

    #[inline]
    fn get_u8(&mut self) -> u8 {
        let mut b = [0u8; 1];
        self.copy_to_slice(&mut b);
        b[0]
    }

    #[inline]
    fn get_u16_le(&mut self) -> u16 {
        let mut b = [0u8; 2];
        self.copy_to_slice(&mut b);
        u16::from_le_bytes(b)
    }

    #[inline]
    fn get_u32_le(&mut self) -> u32 {
        let mut b = [0u8; 4];
        self.copy_to_slice(&mut b);
        u32::from_le_bytes(b)
    }

    #[inline]
    fn get_u64_le(&mut self) -> u64 {
        let mut b = [0u8; 8];
        self.copy_to_slice(&mut b);
        u64::from_le_bytes(b)
    }

    #[inline]
    fn get_i64_le(&mut self) -> i64 {
        self.get_u64_le() as i64
    }

    #[inline]
    fn get_f64_le(&mut self) -> f64 {
        f64::from_bits(self.get_u64_le())
    }
}

impl Buf for &[u8] {
    #[inline]
    fn remaining(&self) -> usize {
        self.len()
    }

    #[inline]
    fn advance(&mut self, n: usize) {
        *self = &self[n..];
    }

    #[inline]
    fn copy_to_slice(&mut self, dst: &mut [u8]) {
        let (head, tail) = self.split_at(dst.len());
        dst.copy_from_slice(head);
        *self = tail;
    }
}

/// Append-only little-endian writer.
pub trait BufMut {
    fn put_slice(&mut self, src: &[u8]);

    #[inline]
    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }

    #[inline]
    fn put_u16_le(&mut self, v: u16) {
        self.put_slice(&v.to_le_bytes());
    }

    #[inline]
    fn put_u32_le(&mut self, v: u32) {
        self.put_slice(&v.to_le_bytes());
    }

    #[inline]
    fn put_u64_le(&mut self, v: u64) {
        self.put_slice(&v.to_le_bytes());
    }

    #[inline]
    fn put_i64_le(&mut self, v: i64) {
        self.put_slice(&v.to_le_bytes());
    }

    #[inline]
    fn put_f64_le(&mut self, v: f64) {
        self.put_slice(&v.to_bits().to_le_bytes());
    }
}

impl BufMut for Vec<u8> {
    #[inline]
    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_read_roundtrip() {
        let mut buf = Vec::new();
        buf.put_u8(7);
        buf.put_u16_le(513);
        buf.put_u32_le(70_000);
        buf.put_i64_le(-42);
        buf.put_f64_le(1.5);
        buf.put_slice(b"xyz");

        let mut r: &[u8] = &buf;
        assert_eq!(r.get_u8(), 7);
        assert_eq!(r.get_u16_le(), 513);
        assert_eq!(r.get_u32_le(), 70_000);
        assert_eq!(r.get_i64_le(), -42);
        assert_eq!(r.get_f64_le(), 1.5);
        assert_eq!(r.remaining(), 3);
        r.advance(1);
        assert_eq!(r, b"yz");
    }
}
