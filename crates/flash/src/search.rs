//! The search behind every seek into a sorted run: a record's offset in a
//! file ([`crate::SstFile`]'s key ids) and the file in a log
//! ([`crate::SortedLog`]'s fences).
//!
//! Both arrays are sorted by key, and the keys a partition holds are
//! spread over the id space, so where a key falls between the array's
//! first and last ids says about where it sits. A cold binary search pays
//! one cache miss per halving; a guess interpolated from the two ends
//! lands a few items from the answer, which a short gallop and a binary
//! search over the gallop's last step then pin down. A guess that is far
//! off — ids crowded at one end — costs at most about twice a binary
//! search, and the answer is the same either way.

/// The index of the first of `len` ascending items that `below` is false
/// for (`len` if none) — what `partition_point` answers — searched from a
/// guess interpolated by key id: `ends` are the ids of the first and last
/// items and `id` the id searched for. `below` must be true on a prefix of
/// the items and false on the rest.
pub(crate) fn interpolated_partition_point(
    len: usize,
    (first, last): (u64, u64),
    id: u64,
    below: impl Fn(usize) -> bool,
) -> usize {
    if len == 0 {
        return 0;
    }
    let span = last.saturating_sub(first);
    let guess = if span == 0 {
        0
    } else {
        let share = id.saturating_sub(first).min(span) as f64 / span as f64;
        // Saturating: never past the last item.
        (share * (len - 1) as f64) as usize
    };
    // Gallop from the guess towards the answer, doubling the step, until
    // one step crosses it; the answer is then inside that last step.
    let mut step = 1;
    let (mut lo, mut hi) = if below(guess) {
        while guess + step < len && below(guess + step) {
            step *= 2;
        }
        (guess + step / 2 + 1, (guess + step).min(len))
    } else {
        while step <= guess && !below(guess - step) {
            step *= 2;
        }
        ((guess + 1).saturating_sub(step), guess - step / 2)
    };
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if below(mid) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check(ids: &[u64], id: u64) {
        let ends = match (ids.first(), ids.last()) {
            (Some(&first), Some(&last)) => (first, last),
            _ => (0, 0),
        };
        let got = interpolated_partition_point(ids.len(), ends, id, |at| ids[at] < id);
        assert_eq!(
            got,
            ids.partition_point(|&other| other < id),
            "{ids:?} {id}"
        );
    }

    #[test]
    fn it_answers_as_partition_point_on_every_id_of_small_arrays() {
        for ids in [
            vec![],
            vec![7],
            vec![7, 7, 7],
            vec![1, 2, 3, 4, 5],
            vec![0, 1, 1, 1, 9, 9, 10, 1_000],
            vec![0, u64::MAX],
            vec![5, 6, 7, u64::MAX - 1, u64::MAX],
        ] {
            let probes = ids
                .iter()
                .flat_map(|&id| [id.saturating_sub(1), id, id.saturating_add(1)]);
            for id in probes.chain([0, 3, 8, u64::MAX]) {
                check(&ids, id);
            }
        }
    }

    #[test]
    fn it_answers_as_partition_point_on_spread_and_crowded_ids() {
        // A splitmix64 stream: ids spread over the space as a hash
        // partition's are, then the same squeezed to one end.
        let mut state = 0x5EED_u64;
        let mut next = || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        for len in [1, 2, 3, 10, 64, 257, 1_000] {
            let mut spread: Vec<u64> = (0..len).map(|_| next() % 1_000_000).collect();
            spread.sort_unstable();
            let crowded: Vec<u64> = spread
                .iter()
                .enumerate()
                .map(|(at, &id)| if at + 1 < len { id / 1_000 } else { id * 1_000 })
                .collect();
            for ids in [&spread, &crowded] {
                for _ in 0..200 {
                    check(ids, next() % 1_100_000);
                }
                for &id in ids.iter() {
                    check(ids, id);
                    check(ids, id + 1);
                }
            }
        }
    }
}
