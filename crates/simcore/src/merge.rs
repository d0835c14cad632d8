//! Loser-tree k-way merge of pre-sorted streams.
//!
//! The traced sweep entry points (`SweepRunner::run_indexed_traced`) used
//! to concatenate every run's event stream and `sort_unstable` the lot —
//! O(N log N) comparisons over N total events even though each per-run
//! stream is already sorted. A [loser tree] exploits that: one comparison
//! path of length ⌈log₂ k⌉ per emitted element, where k is the number of
//! streams, for O(N log k) total. For a 4-run traced sweep of ~120k events
//! that is log₂ 4 = 2 comparisons per event instead of log₂ 120 000 ≈ 17.
//!
//! The tree stores *losers* at internal nodes and the current overall
//! winner at the root, so replacing the winner's head only replays the
//! winner's leaf-to-root path instead of re-running whole sibling
//! subtrees. Ties break toward the lower stream index, which makes the
//! merge stable; callers that need a deterministic total order (the
//! telemetry merge keys on `(sim-time, run, seq)`, which is unique) get
//! it regardless.
//!
//! [loser tree]: https://en.wikipedia.org/wiki/K-way_merge_algorithm#Tournament_Tree

/// Merge `streams` — each individually sorted (non-decreasing) under
/// `key` — into one sorted vector.
///
/// The caller asserts sortedness; feeding an unsorted stream produces an
/// arbitrary interleaving (the telemetry layer checks sortedness on
/// absorb and falls back to a full sort instead of calling this). Ties
/// across streams resolve toward the lower stream index; within a stream
/// the original order is kept.
pub fn merge_sorted_by_key<T, K, F>(streams: Vec<Vec<T>>, key: F) -> Vec<T>
where
    K: Ord,
    F: Fn(&T) -> K,
{
    let k = streams.len();
    if k == 0 {
        return Vec::new();
    }
    if k == 1 {
        return streams.into_iter().next().expect("k == 1");
    }

    let total: usize = streams.iter().map(Vec::len).sum();
    let mut out: Vec<T> = Vec::with_capacity(total);
    let mut iters: Vec<std::vec::IntoIter<T>> =
        streams.into_iter().map(Vec::into_iter).collect();
    let mut heads: Vec<Option<T>> = iters.iter_mut().map(Iterator::next).collect();

    // Does leaf `a`'s head beat (sort strictly before) leaf `b`'s?
    // Exhausted streams rank as +∞ so they can never win; the SENTINEL
    // pseudo-leaf used during construction loses to everything.
    const SENTINEL: usize = usize::MAX;
    let beats = |heads: &[Option<T>], a: usize, b: usize| -> bool {
        if a == SENTINEL {
            return false;
        }
        if b == SENTINEL {
            return true;
        }
        match (&heads[a], &heads[b]) {
            (Some(x), Some(y)) => (key(x), a) < (key(y), b),
            (Some(_), None) => true,
            (None, _) => false,
        }
    };

    // Implicit layout: leaf `s` sits at position `k + s`; positions
    // `1..k` are internal matches (position `p`'s children are `2p` and
    // `2p+1`, its parent `p/2`). `tree[1..k]` hold each match's loser,
    // `tree[0]` the overall winner. Build bottom-up as one explicit
    // tournament: compute each match's winner and store its loser.
    let mut tree: Vec<usize> = vec![SENTINEL; k];
    let mut winner_at: Vec<usize> = vec![SENTINEL; 2 * k];
    for (s, slot) in winner_at[k..].iter_mut().enumerate() {
        *slot = s;
    }
    for pos in (1..k).rev() {
        let a = winner_at[2 * pos];
        let b = winner_at[2 * pos + 1];
        let (w, l) = if beats(&heads, a, b) { (a, b) } else { (b, a) };
        winner_at[pos] = w;
        tree[pos] = l;
    }
    tree[0] = winner_at[1];

    loop {
        let w = tree[0];
        let Some(item) = heads[w].take() else {
            break; // winner exhausted ⇒ every stream is exhausted
        };
        out.push(item);
        heads[w] = iters[w].next();
        // Replay only the winner's path to the root.
        let mut cur = w;
        let mut node = (w + k) / 2;
        while node >= 1 {
            if beats(&heads, tree[node], cur) {
                std::mem::swap(&mut tree[node], &mut cur);
            }
            node /= 2;
        }
        tree[0] = cur;
    }
    out
}

/// Is `items` sorted (non-decreasing) under `key`? Used by callers to
/// decide between the merge fast path and a full-sort fallback.
pub fn is_sorted_by_key<T, K, F>(items: &[T], key: F) -> bool
where
    K: Ord,
    F: Fn(&T) -> K,
{
    items.windows(2).all(|w| key(&w[0]) <= key(&w[1]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_and_single_stream() {
        let empty: Vec<Vec<u32>> = vec![];
        assert!(merge_sorted_by_key(empty, |&x| x).is_empty());
        assert_eq!(merge_sorted_by_key(vec![vec![3u32, 5, 9]], |&x| x), vec![3, 5, 9]);
        assert_eq!(merge_sorted_by_key(vec![vec![], Vec::<u32>::new()], |&x| x), Vec::<u32>::new());
    }

    #[test]
    fn merges_disjoint_and_interleaved() {
        let got = merge_sorted_by_key(vec![vec![1u32, 4, 7], vec![2, 5, 8], vec![3, 6, 9]], |&x| x);
        assert_eq!(got, (1..=9).collect::<Vec<_>>());
        let got = merge_sorted_by_key(vec![vec![10u32, 11, 12], vec![1, 2, 3]], |&x| x);
        assert_eq!(got, vec![1, 2, 3, 10, 11, 12]);
    }

    #[test]
    fn ties_break_toward_lower_stream_index() {
        // Tag values with a stream marker the key ignores.
        let a = vec![(5u32, 'a'), (7, 'a')];
        let b = vec![(5u32, 'b'), (5, 'b')];
        let got = merge_sorted_by_key(vec![a, b], |&(x, _)| x);
        assert_eq!(got, vec![(5, 'a'), (5, 'b'), (5, 'b'), (7, 'a')]);
    }

    #[test]
    fn handles_mixed_empty_streams_and_uneven_lengths() {
        let got = merge_sorted_by_key(
            vec![vec![], vec![2u32], vec![], vec![1, 1, 1, 9], vec![0]],
            |&x| x,
        );
        assert_eq!(got, vec![0, 1, 1, 1, 2, 9]);
    }

    #[test]
    fn matches_sort_on_random_streams() {
        // Deterministic pseudo-random differential vs the library sort.
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for trial in 0..50 {
            let k = 1 + (next() % 9) as usize;
            let mut streams: Vec<Vec<u64>> = Vec::new();
            let mut all: Vec<u64> = Vec::new();
            for _ in 0..k {
                let len = (next() % 40) as usize;
                let mut s: Vec<u64> = (0..len).map(|_| next() % 32).collect();
                s.sort_unstable();
                all.extend(&s);
                streams.push(s);
            }
            all.sort_unstable();
            let got = merge_sorted_by_key(streams, |&x| x);
            assert_eq!(got, all, "trial {trial}");
        }
    }

    #[test]
    fn sortedness_probe() {
        assert!(is_sorted_by_key(&[1u32, 1, 2, 3], |&x| x));
        assert!(!is_sorted_by_key(&[1u32, 3, 2], |&x| x));
        assert!(is_sorted_by_key(&Vec::<u32>::new(), |&x| x));
    }
}
