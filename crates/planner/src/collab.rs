//! Collaborative-set decomposition (Section 7).
//!
//! "To handle the complexity, we can divide the adaptive components of a
//! system into multiple collaborative sets where component collaborations
//! occur only within each set. The component adaptation of each set can be
//! handled independently, thereby reducing the complexity."
//!
//! Two components collaborate when they co-occur in a dependency invariant
//! or are touched by the same adaptive action. [`collaborative_sets`]
//! computes the connected components of that relation with a union-find;
//! [`scope_for`] picks the sets an adaptation actually touches so the
//! planner can enumerate over a small scope.

use std::collections::BTreeSet;

use sada_expr::{CompId, CompiledInvariants, Config, InvariantSet, Universe};

use crate::action::Action;

/// Union-find over dense component indices.
#[derive(Debug)]
struct UnionFind {
    parent: Vec<usize>,
    rank: Vec<u8>,
}

impl UnionFind {
    fn new(n: usize) -> Self {
        UnionFind { parent: (0..n).collect(), rank: vec![0; n] }
    }

    /// Iterative two-pass path compression: find the root, then re-walk the
    /// path pointing every node at it. No recursion, so pathological parent
    /// chains on large component universes cannot blow the stack.
    fn find(&mut self, x: usize) -> usize {
        let mut root = x;
        while self.parent[root] != root {
            root = self.parent[root];
        }
        let mut cur = x;
        while self.parent[cur] != root {
            let next = self.parent[cur];
            self.parent[cur] = root;
            cur = next;
        }
        root
    }

    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return;
        }
        match self.rank[ra].cmp(&self.rank[rb]) {
            std::cmp::Ordering::Less => self.parent[ra] = rb,
            std::cmp::Ordering::Greater => self.parent[rb] = ra,
            std::cmp::Ordering::Equal => {
                self.parent[rb] = ra;
                self.rank[ra] += 1;
            }
        }
    }

    /// Merges every component of `comps` into one set.
    fn union_all(&mut self, comps: impl IntoIterator<Item = CompId>) {
        let mut it = comps.into_iter();
        if let Some(first) = it.next() {
            for c in it {
                self.union(first.index(), c.index());
            }
        }
    }
}

/// Partitions the universe into collaborative sets.
///
/// Components mentioned together in one invariant, or touched together by
/// one action, land in the same set. Components mentioned by nothing form
/// singleton sets. Sets are returned sorted by their smallest member, and
/// members are sorted, so output is deterministic.
pub fn collaborative_sets(
    u: &Universe,
    inv: &InvariantSet,
    actions: &[Action],
) -> Vec<Vec<CompId>> {
    let ix = CollabIndex::new(u, inv, actions);
    (0..ix.set_count()).map(|s| ix.members(s).to_vec()).collect()
}

/// The union of collaborative sets touched by moving from `source` to
/// `target`: the components whose membership differs, expanded to full
/// sets. Planning may then restrict enumeration to this scope (components
/// outside it keep their `source` membership).
pub fn scope_for(
    u: &Universe,
    inv: &InvariantSet,
    actions: &[Action],
    source: &Config,
    target: &Config,
) -> Vec<CompId> {
    CollabIndex::new(u, inv, actions).scope_for(source, target)
}

/// The collaborative-set partition, precomputed for repeated scope queries.
///
/// A control plane admitting many adaptation sessions needs the scope of
/// each request; rebuilding the union-find per request is O(universe) every
/// time. The index pays that once and answers each query in time
/// proportional to the scope it returns. It also answers the scheduling
/// question directly: two sessions may run concurrently iff their scopes
/// share no set ([`CollabIndex::set_of`] gives the set id to compare on).
///
/// Sets are numbered by their smallest member, so ascending set ids are
/// ascending smallest members. The layout is flat (a set id per component
/// plus the members grouped by set), so a world of 100k sets costs three
/// vectors rather than 100k small ones.
#[derive(Debug, Clone)]
pub struct CollabIndex {
    /// Dense component index → set id.
    set_of: Vec<u32>,
    /// Every component, grouped by set id, ascending within each set.
    members: Vec<CompId>,
    /// `members[starts[s]..starts[s + 1]]` are the members of set `s`.
    starts: Vec<u32>,
}

impl CollabIndex {
    /// Builds the index for the given invariants and action repertoire.
    pub fn new(u: &Universe, inv: &InvariantSet, actions: &[Action]) -> Self {
        let mut uf = UnionFind::new(u.len());
        for expr in inv.exprs() {
            let mut vars = BTreeSet::new();
            expr.collect_vars(&mut vars);
            uf.union_all(vars);
        }
        CollabIndex::finish(uf, actions)
    }

    /// [`CollabIndex::new`] from already compiled invariants: the same
    /// partition, read off each predicate's support list.
    pub fn from_compiled(compiled: &CompiledInvariants, actions: &[Action]) -> Self {
        let mut uf = UnionFind::new(compiled.width());
        for pred in compiled.preds() {
            uf.union_all(pred.support().iter().copied());
        }
        CollabIndex::finish(uf, actions)
    }

    fn finish(mut uf: UnionFind, actions: &[Action]) -> Self {
        for action in actions {
            uf.union_all(action.removes().iter().chain(action.adds()).copied());
        }
        let n = uf.parent.len();
        // Number sets in order of first appearance over ascending
        // components, i.e. by smallest member.
        let mut id_of_root = vec![u32::MAX; n];
        let mut set_of = Vec::with_capacity(n);
        let mut starts = vec![0u32];
        for c in 0..n {
            let root = uf.find(c);
            if id_of_root[root] == u32::MAX {
                id_of_root[root] = starts.len() as u32 - 1;
                starts.push(0);
            }
            let s = id_of_root[root];
            set_of.push(s);
            starts[s as usize + 1] += 1;
        }
        for s in 1..starts.len() {
            starts[s] += starts[s - 1];
        }
        let mut fill: Vec<u32> = starts[..starts.len() - 1].to_vec();
        let mut members = vec![CompId::from_index(0); n];
        for (c, &s) in set_of.iter().enumerate() {
            members[fill[s as usize] as usize] = CompId::from_index(c);
            fill[s as usize] += 1;
        }
        CollabIndex { set_of, members, starts }
    }

    /// Number of sets in the partition.
    pub fn set_count(&self) -> usize {
        self.starts.len() - 1
    }

    /// Id of the set containing `comp`.
    pub fn set_of(&self, comp: CompId) -> usize {
        self.set_of[comp.index()] as usize
    }

    /// Members of set `ix`, sorted.
    pub fn members(&self, ix: usize) -> &[CompId] {
        &self.members[self.starts[ix] as usize..self.starts[ix + 1] as usize]
    }

    /// Expands arbitrary components to the union of their full sets
    /// (sorted, deduplicated) — the scope of an adaptation known only by
    /// the components it names.
    pub fn expand(&self, comps: impl IntoIterator<Item = CompId>) -> Vec<CompId> {
        let set_ids: BTreeSet<usize> = comps.into_iter().map(|c| self.set_of(c)).collect();
        set_ids.into_iter().flat_map(|ix| self.members(ix).iter().copied()).collect()
    }

    /// The scope of a `source → target` adaptation: the changed components
    /// expanded to full sets (equivalent to the free function [`scope_for`]).
    pub fn scope_for(&self, source: &Config, target: &Config) -> Vec<CompId> {
        self.expand(source.diff_ids(target))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn universe(names: &[&str]) -> Universe {
        let mut u = Universe::new();
        for n in names {
            u.intern(n);
        }
        u
    }

    #[test]
    fn invariants_group_components() {
        let mut u = universe(&[]);
        let inv = InvariantSet::parse(&["one_of(A, B)", "one_of(C, D)"], &mut u).unwrap();
        let sets = collaborative_sets(&u, &inv, &[]);
        assert_eq!(sets.len(), 2);
        assert_eq!(sets[0].len(), 2);
        assert_eq!(sets[1].len(), 2);
    }

    #[test]
    fn actions_merge_sets() {
        let mut u = universe(&[]);
        let inv = InvariantSet::parse(&["one_of(A, B)", "one_of(C, D)"], &mut u).unwrap();
        // A compound action touching B and C fuses the two sets.
        let action = Action::replace(0, "(B)->(C)", &u.config_of(&["B"]), &u.config_of(&["C"]), 1);
        let sets = collaborative_sets(&u, &inv, &[action]);
        assert_eq!(sets.len(), 1);
        assert_eq!(sets[0].len(), 4);
    }

    #[test]
    fn unmentioned_components_are_singletons() {
        let mut u = universe(&["LONER"]);
        let inv = InvariantSet::parse(&["one_of(A, B)"], &mut u).unwrap();
        let sets = collaborative_sets(&u, &inv, &[]);
        assert_eq!(sets.len(), 2);
        let loner = u.id("LONER").unwrap();
        assert!(sets.iter().any(|s| s == &vec![loner]));
    }

    #[test]
    fn scope_covers_changed_sets_only() {
        let mut u = universe(&[]);
        let inv =
            InvariantSet::parse(&["one_of(A, B)", "one_of(C, D)", "one_of(E, F)"], &mut u).unwrap();
        // Adaptation changes A->B only.
        let src = u.config_of(&["A", "C", "E"]);
        let dst = u.config_of(&["B", "C", "E"]);
        let scope = scope_for(&u, &inv, &[], &src, &dst);
        let names: Vec<&str> = scope.iter().map(|&id| u.name(id)).collect();
        assert_eq!(names, vec!["A", "B"]);
    }

    #[test]
    fn scope_unions_multiple_changed_sets() {
        let mut u = universe(&[]);
        let inv = InvariantSet::parse(&["one_of(A, B)", "one_of(C, D)"], &mut u).unwrap();
        let src = u.config_of(&["A", "C"]);
        let dst = u.config_of(&["B", "D"]);
        let scope = scope_for(&u, &inv, &[], &src, &dst);
        assert_eq!(scope.len(), 4);
    }

    #[test]
    fn empty_change_yields_empty_scope() {
        let mut u = universe(&[]);
        let inv = InvariantSet::parse(&["one_of(A, B)"], &mut u).unwrap();
        let cfg = u.config_of(&["A"]);
        assert!(scope_for(&u, &inv, &[], &cfg, &cfg).is_empty());
    }

    #[test]
    fn index_matches_free_functions_and_expands_comps() {
        let mut u = universe(&["LONER"]);
        let inv =
            InvariantSet::parse(&["one_of(A, B)", "one_of(C, D)", "one_of(E, F)"], &mut u).unwrap();
        let ix = CollabIndex::new(&u, &inv, &[]);
        let sets = collaborative_sets(&u, &inv, &[]);
        assert_eq!(ix.set_count(), sets.len());
        assert!(sets.iter().enumerate().all(|(s, members)| ix.members(s) == members.as_slice()));
        let compiled = CollabIndex::from_compiled(&inv.compile(u.len()), &[]);
        assert_eq!(compiled.set_of, ix.set_of);
        assert_eq!(compiled.members, ix.members);
        let src = u.config_of(&["A", "C", "E"]);
        let dst = u.config_of(&["B", "C", "F"]);
        assert_eq!(ix.scope_for(&src, &dst), scope_for(&u, &inv, &[], &src, &dst));
        // Same-set components collapse to one set; distinct sets union.
        let a = u.id("A").unwrap();
        let b = u.id("B").unwrap();
        let c = u.id("C").unwrap();
        assert_eq!(ix.set_of(a), ix.set_of(b));
        assert_ne!(ix.set_of(a), ix.set_of(c));
        assert_eq!(ix.expand([a, b]), vec![a, b]);
        assert_eq!(ix.expand([a, c]).len(), 4);
        assert_eq!(ix.members(ix.set_of(a)), &[a, b]);
        // A singleton expands to itself.
        let loner = u.id("LONER").unwrap();
        assert_eq!(ix.expand([loner]), vec![loner]);
    }

    #[test]
    fn find_compresses_long_chains_without_recursion() {
        // A hand-built worst-case chain: parent[i] = i+1. A recursive find
        // would need 200k stack frames here; the iterative two-pass walk
        // must both reach the root and flatten the whole chain onto it.
        let n = 200_000;
        let mut uf = UnionFind::new(n);
        for i in 0..n - 1 {
            uf.parent[i] = i + 1;
        }
        assert_eq!(uf.find(0), n - 1);
        assert!(uf.parent.iter().all(|&p| p == n - 1), "path fully compressed");
    }

    #[test]
    fn union_find_path_compression_smoke() {
        let mut uf = UnionFind::new(6);
        uf.union(0, 1);
        uf.union(1, 2);
        uf.union(3, 4);
        assert_eq!(uf.find(0), uf.find(2));
        assert_eq!(uf.find(3), uf.find(4));
        assert_ne!(uf.find(0), uf.find(3));
        assert_eq!(uf.find(5), 5);
    }
}
