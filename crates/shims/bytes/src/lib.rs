//! Offline drop-in replacement for the subset of the `bytes` crate this
//! workspace uses: the [`BufMut`] write trait, implemented for
//! `Vec<u8>`. Network-byte-order (big-endian) semantics match upstream.

/// Write-side trait: appends fixed-width integers in network byte order.
pub trait BufMut {
    fn put_u8(&mut self, v: u8);
    fn put_u16(&mut self, v: u16);
    fn put_u32(&mut self, v: u32);
    fn put_u64(&mut self, v: u64);
    fn put_slice(&mut self, src: &[u8]);
    /// Appends `cnt` copies of `val`.
    fn put_bytes(&mut self, val: u8, cnt: usize);
}

impl BufMut for Vec<u8> {
    fn put_u8(&mut self, v: u8) {
        self.push(v);
    }
    fn put_u16(&mut self, v: u16) {
        self.extend_from_slice(&v.to_be_bytes());
    }
    fn put_u32(&mut self, v: u32) {
        self.extend_from_slice(&v.to_be_bytes());
    }
    fn put_u64(&mut self, v: u64) {
        self.extend_from_slice(&v.to_be_bytes());
    }
    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }
    fn put_bytes(&mut self, val: u8, cnt: usize) {
        self.resize(self.len() + cnt, val);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn big_endian_puts() {
        let mut b = Vec::new();
        b.put_u8(0x01);
        b.put_u16(0x0203);
        b.put_u32(0x0405_0607);
        b.put_u64(0x0809_0a0b_0c0d_0e0f);
        assert_eq!(
            &b[..],
            &[1, 2, 3, 4, 5, 6, 7, 8, 9, 0x0a, 0x0b, 0x0c, 0x0d, 0x0e, 0x0f]
        );
    }

    #[test]
    fn put_bytes_pads() {
        let mut b = Vec::new();
        b.put_bytes(0, 6);
        assert_eq!(b.len(), 6);
        assert!(b.iter().all(|&x| x == 0));
    }
}
