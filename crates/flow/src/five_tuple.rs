//! Flow identity: the classic 5-tuple and the direction-symmetric bi-hash.

use std::hash::{BuildHasher, Hasher};

/// IP protocol numbers this workspace cares about.
pub const PROTO_ICMP: u8 = 1;
/// TCP protocol number.
pub const PROTO_TCP: u8 = 6;
/// UDP protocol number.
pub const PROTO_UDP: u8 = 17;

/// The (src ip, dst ip, src port, dst port, protocol) flow key.
///
/// Serialized as 13 bytes in digests (paper App. B.2: 13 B flow ID).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FiveTuple {
    pub src_ip: u32,
    pub dst_ip: u32,
    pub src_port: u16,
    pub dst_port: u16,
    pub proto: u8,
}

impl FiveTuple {
    pub fn new(src_ip: u32, dst_ip: u32, src_port: u16, dst_port: u16, proto: u8) -> Self {
        Self { src_ip, dst_ip, src_port, dst_port, proto }
    }

    /// The same flow seen in the opposite direction.
    pub fn reversed(&self) -> Self {
        Self {
            src_ip: self.dst_ip,
            dst_ip: self.src_ip,
            src_port: self.dst_port,
            dst_port: self.src_port,
            proto: self.proto,
        }
    }

    /// Canonical orientation: the endpoint with the smaller (ip, port) pair
    /// becomes the source. Both directions of a flow canonicalise equally.
    pub fn canonical(&self) -> Self {
        if (self.src_ip, self.src_port) <= (self.dst_ip, self.dst_port) {
            *self
        } else {
            self.reversed()
        }
    }

    /// Direction-symmetric **bi-hash** (HorusEye §data-plane): both
    /// directions of a flow hash to the same value, enabling bidirectional
    /// flow indexing with a single register array. The two endpoints are
    /// hashed independently and combined with a commutative operation.
    pub fn bi_hash(&self, seed: u64) -> u64 {
        let a = mix(((self.src_ip as u64) << 16) | self.src_port as u64, seed);
        let b = mix(((self.dst_ip as u64) << 16) | self.dst_port as u64, seed);
        // Commutative combine (+, ^) keeps direction symmetry while the
        // per-endpoint mixing avoids the trivial collisions of a plain XOR
        // of raw addresses.
        mix(a.wrapping_add(b) ^ (self.proto as u64), seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    /// Direction-*sensitive* hash for exact-match tables: the data
    /// plane's blacklist hashes its keys with it, through
    /// [`FiveTupleHashBuilder`].
    pub fn exact_hash(&self, seed: u64) -> u64 {
        let mut h = seed;
        h = mix(h ^ self.src_ip as u64, seed);
        h = mix(h ^ self.dst_ip as u64, seed.rotate_left(17));
        h = mix(h ^ ((self.src_port as u64) << 32 | self.dst_port as u64), seed.rotate_left(31));
        mix(h ^ self.proto as u64, seed.rotate_left(47))
    }

    /// 13-byte digest encoding: src ip, dst ip, ports, proto.
    pub fn to_digest_bytes(&self) -> [u8; 13] {
        let mut out = [0u8; 13];
        out[0..4].copy_from_slice(&self.src_ip.to_be_bytes());
        out[4..8].copy_from_slice(&self.dst_ip.to_be_bytes());
        out[8..10].copy_from_slice(&self.src_port.to_be_bytes());
        out[10..12].copy_from_slice(&self.dst_port.to_be_bytes());
        out[12] = self.proto;
        out
    }

    /// Inverse of [`Self::to_digest_bytes`].
    pub fn from_digest_bytes(b: &[u8; 13]) -> Self {
        Self {
            src_ip: u32::from_be_bytes([b[0], b[1], b[2], b[3]]),
            dst_ip: u32::from_be_bytes([b[4], b[5], b[6], b[7]]),
            src_port: u16::from_be_bytes([b[8], b[9]]),
            dst_port: u16::from_be_bytes([b[10], b[11]]),
            proto: b[12],
        }
    }
}

/// Seeded [`BuildHasher`] for hash sets and maps keyed by [`FiveTuple`]:
/// a few multiply-xor rounds of [`FiveTuple::exact_hash`] per probe
/// instead of SipHash over 13 bytes. The seed is secret per table, so an
/// attacker choosing flow keys still cannot choose their collisions.
#[derive(Clone, Copy, Debug)]
pub struct FiveTupleHashBuilder {
    seed: u64,
}

impl FiveTupleHashBuilder {
    pub fn new(seed: u64) -> Self {
        Self { seed }
    }
}

impl BuildHasher for FiveTupleHashBuilder {
    type Hasher = FiveTupleHasher;

    fn build_hasher(&self) -> FiveTupleHasher {
        FiveTupleHasher { seed: self.seed, ips: 0, ports: 0, proto: 0 }
    }
}

/// Hasher of [`FiveTupleHashBuilder`]. The derived `Hash` of a
/// [`FiveTuple`] writes its fields in declaration order (two `u32`, two
/// `u16`, one `u8`); the hasher collects them and finishes with
/// [`FiveTuple::exact_hash`]. Any other input folds through `write`,
/// which keeps the hasher correct, if slower, for other key types.
#[derive(Clone, Copy, Debug)]
pub struct FiveTupleHasher {
    seed: u64,
    ips: u64,
    ports: u32,
    proto: u8,
}

impl Hasher for FiveTupleHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.ips = self.ips.rotate_left(8) ^ b as u64;
        }
    }

    fn write_u32(&mut self, v: u32) {
        self.ips = self.ips << 32 | v as u64;
    }

    fn write_u16(&mut self, v: u16) {
        self.ports = self.ports << 16 | v as u32;
    }

    fn write_u8(&mut self, v: u8) {
        self.proto = v;
    }

    fn finish(&self) -> u64 {
        let (ips, ports) = (self.ips, self.ports);
        FiveTuple::new(
            (ips >> 32) as u32,
            ips as u32,
            (ports >> 16) as u16,
            ports as u16,
            self.proto,
        )
        .exact_hash(self.seed)
    }
}

/// SplitMix64-style avalanche mixer — cheap, stateless, good diffusion;
/// the same construction Tofino pipelines approximate with CRC-based hashes.
fn mix(mut x: u64, seed: u64) -> u64 {
    x = x.wrapping_add(seed).wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t() -> FiveTuple {
        FiveTuple::new(0x0A00_0001, 0xC0A8_0102, 443, 51234, PROTO_TCP)
    }

    #[test]
    fn reversed_swaps_endpoints() {
        let f = t();
        let r = f.reversed();
        assert_eq!(r.src_ip, f.dst_ip);
        assert_eq!(r.dst_port, f.src_port);
        assert_eq!(r.reversed(), f);
    }

    #[test]
    fn canonical_is_direction_invariant() {
        let f = t();
        assert_eq!(f.canonical(), f.reversed().canonical());
    }

    #[test]
    fn bi_hash_is_direction_symmetric() {
        let f = t();
        assert_eq!(f.bi_hash(42), f.reversed().bi_hash(42));
    }

    #[test]
    fn bi_hash_distinguishes_flows() {
        let f = t();
        let g = FiveTuple::new(0x0A00_0001, 0xC0A8_0102, 443, 51235, PROTO_TCP);
        assert_ne!(f.bi_hash(42), g.bi_hash(42));
        let h = FiveTuple::new(0x0A00_0001, 0xC0A8_0102, 443, 51234, PROTO_UDP);
        assert_ne!(f.bi_hash(42), h.bi_hash(42));
    }

    #[test]
    fn bi_hash_depends_on_seed() {
        let f = t();
        assert_ne!(f.bi_hash(1), f.bi_hash(2));
    }

    #[test]
    fn exact_hash_is_direction_sensitive() {
        let f = t();
        assert_ne!(f.exact_hash(42), f.reversed().exact_hash(42));
    }

    #[test]
    fn tuple_hasher_finishes_with_the_seeded_exact_hash() {
        let f = t();
        let b = FiveTupleHashBuilder::new(42);
        assert_eq!(b.hash_one(f), f.exact_hash(42));
        assert_ne!(FiveTupleHashBuilder::new(43).hash_one(f), f.exact_hash(42));
        let mut set = std::collections::HashSet::with_hasher(b);
        set.insert(f);
        assert!(set.contains(&f) && !set.contains(&f.reversed()));
    }

    #[test]
    fn digest_roundtrip() {
        let f = t();
        assert_eq!(FiveTuple::from_digest_bytes(&f.to_digest_bytes()), f);
    }

    #[test]
    fn bi_hash_spreads_over_slots() {
        // Sanity: 10k distinct flows into 4096 slots. A uniform hash
        // occupies ~4096·(1 − e^(−10000/4096)) ≈ 3740 slots; accept a
        // generous band around that.
        let mut used = std::collections::HashSet::new();
        for i in 0..10_000u32 {
            let f = FiveTuple::new(0x0A000000 + i, 0xC0A80101, 1000 + (i % 5000) as u16, 80, 6);
            used.insert(f.bi_hash(7) % 4096);
        }
        assert!(used.len() > 3600, "only {} slots used", used.len());
    }
}
