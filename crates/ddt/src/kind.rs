//! Enumeration of the ten DDT implementations.

use crate::array::ArrayDdt;
use crate::array_ptr::ArrayPtrDdt;
use crate::chunked::ChunkedDdt;
use crate::ddt::Ddt;
use crate::hash::HashDdt;
use crate::linked::LinkedDdt;
use crate::record::Record;
use crate::tree::TreeDdt;
use ddtr_mem::MemorySystem;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::str::FromStr;

/// The dynamic-data-type implementations of the exploration library.
///
/// The first ten variants ([`DdtKind::ALL`]) are the paper's C++ DDT
/// library; [`DdtKind::Hash`] and [`DdtKind::Avl`] are *extension*
/// candidates ([`DdtKind::EXTENDED`]) demonstrating that the methodology
/// absorbs new implementations without touching the instrumentation.
///
/// Display names follow the notation of the original DDT-library papers:
/// `AR`, `AR(P)`, `SLL`, `DLL`, `SLL(O)`, `DLL(O)`, `SLL(AR)`, `DLL(AR)`,
/// `SLL(ARO)`, `DLL(ARO)` — plus `HSH` and `AVL` for the extensions.
///
/// # Example
///
/// ```
/// use ddtr_ddt::DdtKind;
///
/// assert_eq!(DdtKind::ALL.len(), 10);
/// assert_eq!(DdtKind::SllRov.to_string(), "SLL(O)");
/// assert_eq!("DLL(AR)".parse::<DdtKind>()?, DdtKind::DllChunk);
/// # Ok::<(), ddtr_ddt::ParseDdtKindError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum DdtKind {
    /// Contiguous growable array of records (`AR`).
    Array,
    /// Growable array of pointers to individually allocated records (`AR(P)`).
    ArrayPtr,
    /// Singly linked list (`SLL`).
    Sll,
    /// Doubly linked list (`DLL`).
    Dll,
    /// Singly linked list with a roving pointer (`SLL(O)`).
    SllRov,
    /// Doubly linked list with a roving pointer (`DLL(O)`).
    DllRov,
    /// Singly linked list of array chunks (`SLL(AR)`).
    SllChunk,
    /// Doubly linked list of array chunks (`DLL(AR)`).
    DllChunk,
    /// Chunked singly linked list with a roving pointer (`SLL(ARO)`).
    SllChunkRov,
    /// Chunked doubly linked list with a roving pointer (`DLL(ARO)`).
    DllChunkRov,
    /// Insertion-order-preserving chained hash table (`HSH`) — extension.
    Hash,
    /// Height-balanced search tree with order threading (`AVL`) — extension.
    Avl,
}

impl DdtKind {
    /// All ten implementations, in canonical exploration order.
    pub const ALL: [DdtKind; 10] = [
        DdtKind::Array,
        DdtKind::ArrayPtr,
        DdtKind::Sll,
        DdtKind::Dll,
        DdtKind::SllRov,
        DdtKind::DllRov,
        DdtKind::SllChunk,
        DdtKind::DllChunk,
        DdtKind::SllChunkRov,
        DdtKind::DllChunkRov,
    ];

    /// The extended candidate set: the paper's ten plus the two extension
    /// DDTs. [`DdtKind::ALL`] is a prefix of this array.
    pub const EXTENDED: [DdtKind; 12] = [
        DdtKind::Array,
        DdtKind::ArrayPtr,
        DdtKind::Sll,
        DdtKind::Dll,
        DdtKind::SllRov,
        DdtKind::DllRov,
        DdtKind::SllChunk,
        DdtKind::DllChunk,
        DdtKind::SllChunkRov,
        DdtKind::DllChunkRov,
        DdtKind::Hash,
        DdtKind::Avl,
    ];

    /// Builds a fresh, empty container of this kind for records of type
    /// `R`, allocating its descriptor in `mem`.
    ///
    /// # Panics
    ///
    /// Panics if the simulated heap cannot even hold a container descriptor.
    #[must_use]
    pub fn instantiate<R: Record + 'static>(self, mem: &mut MemorySystem) -> Box<dyn Ddt<R>> {
        match self {
            DdtKind::Array => Box::new(ArrayDdt::new(mem)),
            DdtKind::ArrayPtr => Box::new(ArrayPtrDdt::new(mem)),
            DdtKind::Sll => Box::new(LinkedDdt::new(mem, false, false)),
            DdtKind::Dll => Box::new(LinkedDdt::new(mem, true, false)),
            DdtKind::SllRov => Box::new(LinkedDdt::new(mem, false, true)),
            DdtKind::DllRov => Box::new(LinkedDdt::new(mem, true, true)),
            DdtKind::SllChunk => Box::new(ChunkedDdt::new(mem, false, false)),
            DdtKind::DllChunk => Box::new(ChunkedDdt::new(mem, true, false)),
            DdtKind::SllChunkRov => Box::new(ChunkedDdt::new(mem, false, true)),
            DdtKind::DllChunkRov => Box::new(ChunkedDdt::new(mem, true, true)),
            DdtKind::Hash => Box::new(HashDdt::new(mem)),
            DdtKind::Avl => Box::new(TreeDdt::new(mem)),
        }
    }

    /// Whether this kind is one of the two extension DDTs (not part of the
    /// paper's ten-implementation library).
    #[must_use]
    pub fn is_extension(self) -> bool {
        matches!(self, DdtKind::Hash | DdtKind::Avl)
    }

    /// Whether this implementation keeps a roving pointer.
    #[must_use]
    pub fn has_roving_pointer(self) -> bool {
        matches!(
            self,
            DdtKind::SllRov | DdtKind::DllRov | DdtKind::SllChunkRov | DdtKind::DllChunkRov
        )
    }

    /// Whether this implementation links records (vs. contiguous arrays).
    #[must_use]
    pub fn is_linked(self) -> bool {
        !matches!(self, DdtKind::Array | DdtKind::ArrayPtr)
    }

    /// Stable index of this kind inside [`DdtKind::EXTENDED`]
    /// ([`DdtKind::ALL`] is a prefix, so paper kinds keep indices `0..10`).
    #[must_use]
    pub fn index(self) -> usize {
        DdtKind::EXTENDED
            .iter()
            .position(|&k| k == self)
            .expect("EXTENDED contains every variant")
    }

    /// The kind's short name, as the paper's tables print it (`"SLL(AR)"`).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            DdtKind::Array => "AR",
            DdtKind::ArrayPtr => "AR(P)",
            DdtKind::Sll => "SLL",
            DdtKind::Dll => "DLL",
            DdtKind::SllRov => "SLL(O)",
            DdtKind::DllRov => "DLL(O)",
            DdtKind::SllChunk => "SLL(AR)",
            DdtKind::DllChunk => "DLL(AR)",
            DdtKind::SllChunkRov => "SLL(ARO)",
            DdtKind::DllChunkRov => "DLL(ARO)",
            DdtKind::Hash => "HSH",
            DdtKind::Avl => "AVL",
        }
    }
}

impl fmt::Display for DdtKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Error returned when parsing an unknown DDT name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseDdtKindError {
    input: String,
}

impl fmt::Display for ParseDdtKindError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown DDT kind `{}`", self.input)
    }
}

impl std::error::Error for ParseDdtKindError {}

impl FromStr for DdtKind {
    type Err = ParseDdtKindError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let norm = s.trim().to_ascii_uppercase();
        DdtKind::EXTENDED
            .iter()
            .copied()
            .find(|k| k.to_string() == norm)
            .ok_or(ParseDdtKindError { input: s.into() })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_has_ten_distinct_kinds() {
        let mut names: Vec<String> = DdtKind::ALL.iter().map(|k| k.to_string()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), 10);
    }

    #[test]
    fn extended_has_twelve_kinds_with_all_as_prefix() {
        assert_eq!(DdtKind::EXTENDED.len(), 12);
        assert_eq!(&DdtKind::EXTENDED[..10], &DdtKind::ALL[..]);
        let mut names: Vec<String> = DdtKind::EXTENDED.iter().map(|k| k.to_string()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), 12);
    }

    #[test]
    fn extension_flag_marks_only_the_two_new_kinds() {
        let extensions: Vec<DdtKind> = DdtKind::EXTENDED
            .into_iter()
            .filter(|k| k.is_extension())
            .collect();
        assert_eq!(extensions, vec![DdtKind::Hash, DdtKind::Avl]);
        assert!(DdtKind::ALL.iter().all(|k| !k.is_extension()));
    }

    #[test]
    fn display_parse_round_trip() {
        for k in DdtKind::EXTENDED {
            let parsed: DdtKind = k.to_string().parse().expect("round trip");
            assert_eq!(parsed, k);
        }
    }

    #[test]
    fn parse_is_case_insensitive_and_trims() {
        assert_eq!(
            " sll(aro) ".parse::<DdtKind>().unwrap(),
            DdtKind::SllChunkRov
        );
    }

    #[test]
    fn parse_rejects_unknown() {
        let err = "BTREE".parse::<DdtKind>().unwrap_err();
        assert!(err.to_string().contains("BTREE"));
    }

    #[test]
    fn classification_flags() {
        assert!(!DdtKind::Array.is_linked());
        assert!(!DdtKind::ArrayPtr.is_linked());
        assert!(DdtKind::Sll.is_linked());
        assert!(DdtKind::SllChunkRov.has_roving_pointer());
        assert!(!DdtKind::Dll.has_roving_pointer());
    }

    #[test]
    fn index_matches_extended_order() {
        for (i, k) in DdtKind::EXTENDED.iter().enumerate() {
            assert_eq!(k.index(), i);
        }
        assert_eq!(DdtKind::Hash.index(), 10);
        assert_eq!(DdtKind::Avl.index(), 11);
    }
}
