//! Lookup workload generators.

/// All ordered pairs `(s, d)` with `s != d` — the workload implied by the
/// paper's social cost (every peer measures stretch to every other peer).
#[must_use]
pub fn all_pairs(n: usize) -> Vec<(usize, usize)> {
    (0..n)
        .flat_map(|s| (0..n).filter(move |&d| d != s).map(move |d| (s, d)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_pairs_count_and_distinctness() {
        let pairs = all_pairs(4);
        assert_eq!(pairs.len(), 12);
        assert!(pairs.iter().all(|&(s, d)| s != d));
    }

    #[test]
    fn empty_workloads() {
        assert!(all_pairs(1).is_empty());
    }
}
