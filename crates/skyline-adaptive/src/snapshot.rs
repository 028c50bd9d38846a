//! Sorted-list snapshot codec: the `SECTION_ASFS_ENTRIES` payload.
//!
//! The expensive part of Adaptive SFS preprocessing is computing the template skyline and
//! score-sorting it. A snapshot stores the finished product — the `(score, point)` entries
//! already in ascending `(score.total_cmp, point)` order — so
//! [`AdaptiveSfs::from_sorted_entries`](crate::AdaptiveSfs::from_sorted_entries) can
//! rehydrate the structure without re-scoring or re-sorting: decode, verify the order
//! invariant, rebuild the cheap `O(skyline · dims)` value index, done.
//!
//! Scores are stored as raw IEEE-754 bits ([`ByteWriter::put_f64_slice`]), so the decoded
//! order compares identically under `total_cmp` — including NaN payloads — and the
//! rehydrated binary-search maintenance path behaves bit-for-bit like the original.

use crate::sorted_list::ScoredEntry;
use skyline_core::snapshot::{ByteReader, ByteWriter, SnapshotError};

/// Serializes the sorted list (count, the score column, then the point column).
pub fn encode_entries(entries: &[ScoredEntry]) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_u64(entries.len() as u64);
    for e in entries {
        w.put_f64(e.score);
    }
    for e in entries {
        w.put_u32(e.point);
    }
    w.into_inner()
}

/// Decodes a payload written by [`encode_entries`].
///
/// `max_entries` bounds the claimed count (a skyline cannot exceed the row count), and the
/// decoded list must already be strictly ascending under the [`ScoredEntry`] total order —
/// an out-of-order or duplicated entry means the payload was not produced by
/// [`encode_entries`] over a real sorted list, so it is rejected rather than re-sorted.
pub fn decode_entries(bytes: &[u8], max_entries: usize) -> Result<Vec<ScoredEntry>, SnapshotError> {
    let mut r = ByteReader::new(bytes);
    let count = r.get_u64()? as usize;
    if count > max_entries {
        return Err(SnapshotError::Corrupt(format!(
            "sorted list claims {count} entries but at most {max_entries} rows exist"
        )));
    }
    let scores = r.get_f64_vec(count)?;
    let points = r.get_u32_vec(count)?;
    r.expect_end()?;
    let entries: Vec<ScoredEntry> = points
        .into_iter()
        .zip(scores)
        .map(|(point, score)| ScoredEntry::new(point, score))
        .collect();
    if entries.windows(2).any(|w| w[0] >= w[1]) {
        return Err(SnapshotError::Corrupt(
            "sorted list entries are not strictly ascending by (score, point)".into(),
        ));
    }
    Ok(entries)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entries_round_trip_bit_for_bit() {
        let entries = vec![
            ScoredEntry::new(4, f64::NEG_INFINITY),
            ScoredEntry::new(2, -0.0),
            ScoredEntry::new(0, 0.0),
            ScoredEntry::new(7, 0.0),
            ScoredEntry::new(1, 3.5),
            ScoredEntry::new(9, f64::NAN),
        ];
        assert!(entries.windows(2).all(|w| w[0] < w[1]));
        let bytes = encode_entries(&entries);
        let decoded = decode_entries(&bytes, 16).unwrap();
        assert_eq!(decoded.len(), entries.len());
        for (d, e) in decoded.iter().zip(&entries) {
            assert_eq!(d.point, e.point);
            assert_eq!(d.score.to_bits(), e.score.to_bits());
        }
    }

    #[test]
    fn empty_list_round_trips() {
        let bytes = encode_entries(&[]);
        assert_eq!(decode_entries(&bytes, 0).unwrap(), vec![]);
    }

    #[test]
    fn decode_rejects_overclaimed_counts() {
        let bytes = encode_entries(&[ScoredEntry::new(0, 1.0), ScoredEntry::new(1, 2.0)]);
        assert!(matches!(
            decode_entries(&bytes, 1),
            Err(SnapshotError::Corrupt(_))
        ));
    }

    #[test]
    fn decode_rejects_unsorted_and_duplicate_entries() {
        let unsorted = {
            let mut w = skyline_core::snapshot::ByteWriter::new();
            w.put_u64(2);
            w.put_f64(2.0);
            w.put_f64(1.0);
            w.put_u32(0);
            w.put_u32(1);
            w.into_inner()
        };
        assert!(matches!(
            decode_entries(&unsorted, 8),
            Err(SnapshotError::Corrupt(_))
        ));
        let duplicate = {
            let mut w = skyline_core::snapshot::ByteWriter::new();
            w.put_u64(2);
            w.put_f64(1.0);
            w.put_f64(1.0);
            w.put_u32(3);
            w.put_u32(3);
            w.into_inner()
        };
        assert!(matches!(
            decode_entries(&duplicate, 8),
            Err(SnapshotError::Corrupt(_))
        ));
    }

    #[test]
    fn decode_rejects_truncations() {
        let bytes = encode_entries(&[ScoredEntry::new(0, 1.0), ScoredEntry::new(1, 2.0)]);
        for len in 0..bytes.len() {
            assert!(
                decode_entries(&bytes[..len], 8).is_err(),
                "truncation to {len} bytes went undetected"
            );
        }
    }
}
