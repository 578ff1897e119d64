//! A union-find (disjoint set) structure with path compression and union
//! by rank.
//!
//! This is the workhorse underneath abstract-location unification: the
//! paper's Figure 4a type-equality rules reduce every `ρ1 = ρ2` constraint
//! to a `union`, and all later queries go through `find`.

/// Disjoint sets over the keys `0..len`.
#[derive(Debug, Clone, Default)]
pub struct UnionFind {
    parent: Vec<u32>,
    rank: Vec<u8>,
}

impl UnionFind {
    /// Creates an empty structure.
    pub fn new() -> Self {
        UnionFind::default()
    }

    /// Creates an empty structure with room for `keys` keys.
    pub fn with_capacity(keys: usize) -> Self {
        UnionFind {
            parent: Vec::with_capacity(keys),
            rank: Vec::with_capacity(keys),
        }
    }

    /// Adds a fresh singleton set and returns its key.
    pub fn push(&mut self) -> u32 {
        let key = self.parent.len() as u32;
        self.parent.push(key);
        self.rank.push(0);
        key
    }

    /// Number of keys (not number of sets).
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// Returns `true` if no keys have been created.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Finds the canonical representative of `key`, compressing paths.
    ///
    /// # Panics
    ///
    /// Panics if `key` was not returned by [`UnionFind::push`].
    pub fn find(&mut self, key: u32) -> u32 {
        let mut root = key;
        while self.parent[root as usize] != root {
            root = self.parent[root as usize];
        }
        // Path compression.
        let mut cur = key;
        while self.parent[cur as usize] != root {
            let next = self.parent[cur as usize];
            self.parent[cur as usize] = root;
            cur = next;
        }
        root
    }

    /// Finds the representative without mutation (no path compression).
    pub fn find_const(&self, key: u32) -> u32 {
        let mut root = key;
        while self.parent[root as usize] != root {
            root = self.parent[root as usize];
        }
        root
    }

    /// Merges the sets containing `a` and `b`.
    ///
    /// Returns `Some((winner, loser))` — the surviving representative and
    /// the representative that was absorbed — or `None` if they were
    /// already in the same set. Callers that maintain per-representative
    /// side data merge `loser`'s data into `winner`'s.
    pub fn union(&mut self, a: u32, b: u32) -> Option<(u32, u32)> {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra == rb {
            return None;
        }
        let (winner, loser) = match self.rank[ra as usize].cmp(&self.rank[rb as usize]) {
            std::cmp::Ordering::Less => (rb, ra),
            std::cmp::Ordering::Greater => (ra, rb),
            std::cmp::Ordering::Equal => {
                self.rank[ra as usize] += 1;
                (ra, rb)
            }
        };
        self.parent[loser as usize] = winner;
        Some((winner, loser))
    }

    /// Returns `true` if `a` and `b` are in the same set.
    pub fn same(&mut self, a: u32, b: u32) -> bool {
        self.find(a) == self.find(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn singletons_are_distinct() {
        let mut uf = UnionFind::new();
        let a = uf.push();
        let b = uf.push();
        assert_ne!(uf.find(a), uf.find(b));
        assert!(!uf.same(a, b));
    }

    #[test]
    fn union_merges() {
        let mut uf = UnionFind::new();
        let a = uf.push();
        let b = uf.push();
        let c = uf.push();
        assert!(uf.union(a, b).is_some());
        assert!(uf.same(a, b));
        assert!(!uf.same(a, c));
        assert!(uf.union(b, c).is_some());
        assert!(uf.same(a, c));
        // Re-union is a no-op.
        assert!(uf.union(a, c).is_none());
    }

    #[test]
    fn winner_loser_reported() {
        let mut uf = UnionFind::new();
        let a = uf.push();
        let b = uf.push();
        let (winner, loser) = uf.union(a, b).unwrap();
        assert!(winner == a || winner == b);
        assert_ne!(winner, loser);
        assert_eq!(uf.find(loser), winner);
    }

    #[test]
    fn transitive_chains() {
        let mut uf = UnionFind::new();
        let keys: Vec<u32> = (0..100).map(|_| uf.push()).collect();
        for w in keys.windows(2) {
            uf.union(w[0], w[1]);
        }
        let root = uf.find(keys[0]);
        for &k in &keys {
            assert_eq!(uf.find(k), root);
        }
    }

    #[test]
    fn find_const_matches_find() {
        let mut uf = UnionFind::new();
        let keys: Vec<u32> = (0..20).map(|_| uf.push()).collect();
        for i in (0..18).step_by(2) {
            uf.union(keys[i], keys[i + 2]);
        }
        for &k in &keys {
            assert_eq!(uf.find_const(k), uf.find(k));
        }
    }
}
