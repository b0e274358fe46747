//! Modelled on-platform layout constants shared by all DDT implementations.

/// Size of a pointer on the modelled 64-bit embedded platform.
pub const PTR_BYTES: u64 = 8;

/// Size of the key field read by a search probe.
pub const KEY_BYTES: u64 = 8;

/// Size of a container descriptor (head, tail, count — or buffer pointer,
/// capacity, count for arrays). One descriptor is allocated per container.
pub const DESCRIPTOR_BYTES: u64 = 24;

/// Records per chunk in the chunked (unrolled) list implementations.
///
/// Eight records per chunk matches the configuration used by the original
/// DDT library and is swept by the chunk capacity study of the
/// reproduction scorecard (`REPRODUCTION.md`).
pub const CHUNK_CAPACITY: usize = 8;

// Layout invariants the implementations rely on, checked at compile time.
const _: () = assert!(DESCRIPTOR_BYTES >= 3 * PTR_BYTES);
const _: () = assert!(CHUNK_CAPACITY >= 2);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_match_the_modelled_platform() {
        assert_eq!(PTR_BYTES, 8, "64-bit embedded platform");
        assert_eq!(KEY_BYTES, 8, "keys are one machine word");
    }
}
