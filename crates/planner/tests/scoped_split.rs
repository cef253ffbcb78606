//! `Search::plan_scoped` splits a query by collaborative set and plans each
//! touched set alone. Over random universes of independent chain sets it
//! must agree with the joint uniform-cost search over the same scoped
//! actions: the same verdict, the same cost, and — when every touched step
//! costs the same — the same path.

use proptest::prelude::*;

use sada_expr::{CompId, Config, InvariantSet, Universe};
use sada_plan::{Action, Search};

/// One chain set: `len` members under `one_of`, adjacent steps both ways,
/// an optional direct jump from the first member to the last, and an
/// optional invariant forbidding the second member.
#[derive(Debug, Clone)]
struct ChainSpec {
    len: usize,
    /// Costs of the forward and backward step out of each member.
    steps: Vec<(u64, u64)>,
    jump: Option<u64>,
    block_second: bool,
}

#[derive(Debug, Clone)]
struct World {
    universe: Universe,
    inv: InvariantSet,
    actions: Vec<Action>,
    /// Component ids of each set's members, in chain order.
    members: Vec<Vec<CompId>>,
}

/// Builds the world. Actions are numbered set by set, so a lower set owns
/// lower action indices, as in every fleet world.
fn build(chains: &[ChainSpec], unit_cost: bool) -> World {
    let mut u = Universe::new();
    let mut srcs = Vec::new();
    let mut members = Vec::new();
    for (s, ch) in chains.iter().enumerate() {
        let names: Vec<String> = (0..ch.len).map(|i| format!("S{s}_{i}")).collect();
        members.push(names.iter().map(|n| u.intern(n)).collect::<Vec<_>>());
        srcs.push(format!("one_of({})", names.join(", ")));
        if ch.block_second {
            srcs.push(format!("!S{s}_1"));
        }
    }
    let refs: Vec<&str> = srcs.iter().map(String::as_str).collect();
    let inv = InvariantSet::parse(&refs, &mut u).unwrap();
    let cost = |c: u64| if unit_cost { 1 } else { c };
    let mut actions = Vec::new();
    for (s, ch) in chains.iter().enumerate() {
        let m = |i: usize| u.config_of(&[&format!("S{s}_{i}")]);
        for i in 0..ch.len - 1 {
            let (fwd, back) = ch.steps[i];
            let id = actions.len() as u32;
            actions.push(Action::replace(id, &format!("S{s}:{i}+"), &m(i), &m(i + 1), cost(fwd)));
            let id = actions.len() as u32;
            actions.push(Action::replace(id, &format!("S{s}:{i}-"), &m(i + 1), &m(i), cost(back)));
        }
        if let Some(j) = ch.jump {
            let id = actions.len() as u32;
            actions.push(Action::replace(
                id,
                &format!("S{s}:jump"),
                &m(0),
                &m(ch.len - 1),
                cost(j),
            ));
        }
    }
    World { universe: u, inv, actions, members }
}

fn arb_chain() -> impl Strategy<Value = ChainSpec> {
    (2usize..=4, prop::collection::vec((1u64..=3, 1u64..=3), 3), 0u64..=3, any::<bool>()).prop_map(
        |(len, mut steps, jump, block)| {
            steps.truncate(len - 1);
            ChainSpec {
                len,
                steps,
                jump: (jump > 0).then_some(jump),
                block_second: block && len >= 3,
            }
        },
    )
}

/// A configuration holding member `pick[s] % len` of every set `s`.
fn config(w: &World, pick: &[usize]) -> Config {
    let mut cfg = w.universe.empty_config();
    for (set, &p) in w.members.iter().zip(pick) {
        cfg.insert(set[p % set.len()]);
    }
    cfg
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    #[test]
    fn split_search_matches_joint_search(
        chains in prop::collection::vec(arb_chain(), 2..=5),
        unit_cost in any::<bool>(),
        src_pick in prop::collection::vec(0usize..4, 5),
        dst_pick in prop::collection::vec(0usize..4, 5),
        untouched in prop::collection::vec(any::<bool>(), 5),
        scope_roll in prop::collection::vec(0u8..20, 5),
    ) {
        let w = build(&chains, unit_cost);
        let src = config(&w, &src_pick);
        // Some sets keep their source member.
        let picks: Vec<usize> = (0..chains.len())
            .map(|s| if untouched[s] { src_pick[s] } else { dst_pick[s] })
            .collect();
        let dst = config(&w, &picks);
        // Some sets (15%) fall out of scope; a target moving one is
        // unreachable.
        let mut scope: Vec<CompId> = (0..chains.len())
            .filter(|&s| scope_roll[s] < 17)
            .flat_map(|s| w.members[s].iter().copied())
            .collect();
        scope.sort_unstable();
        let width = w.universe.len();
        let search = Search::new(&w.inv, &w.actions, width);
        let scoped = search.scoped_action_ixs(&scope);
        let scoped_actions: Vec<Action> =
            scoped.iter().map(|&aix| w.actions[aix as usize].clone()).collect();

        let (split, _) = search.plan_scoped(&src, &dst, &scoped);
        let (joint, _) = Search::new(&w.inv, &scoped_actions, width).plan(&src, &dst);
        prop_assert_eq!(split.is_some(), joint.is_some());
        let (Some(split), Some(joint)) = (split, joint) else { return Ok(()) };
        prop_assert_eq!(split.cost, joint.cost);
        prop_assert!(split.is_well_formed());
        let visited = split.configs();
        prop_assert_eq!(visited.first().unwrap_or(&src), &src);
        prop_assert_eq!(visited.last().unwrap_or(&src), &dst);
        for step in &split.steps {
            prop_assert!(w.inv.satisfied_by(&step.to), "unsafe intermediate {:?}", step.to);
            prop_assert!(scoped_actions.iter().any(|a| a.id() == step.action));
        }
        // All touched steps cost the same: the joint search's tie-break
        // finishes the sets in ascending order, so the paths coincide.
        let touched: Vec<usize> = (0..chains.len()).filter(|&s| picks[s] % chains[s].len != src_pick[s] % chains[s].len).collect();
        let touched_costs: Vec<u64> = scoped_actions
            .iter()
            .filter(|a| {
                let c = a.touched_ids()[0];
                touched.iter().any(|&s| w.members[s].contains(&c))
            })
            .map(Action::cost)
            .collect();
        if touched_costs.windows(2).all(|p| p[0] == p[1]) {
            prop_assert_eq!(split, joint);
        }
    }
}

/// `groups` independent `one_of(Old, New)` pairs with unit-cost flips both
/// ways; the source holds every `Old`.
fn grouped(groups: usize) -> (Universe, InvariantSet, Vec<Action>, Config) {
    let mut u = Universe::new();
    let mut srcs = Vec::new();
    for g in 0..groups {
        u.intern(&format!("Old{g}"));
        u.intern(&format!("New{g}"));
        srcs.push(format!("one_of(Old{g}, New{g})"));
    }
    let refs: Vec<&str> = srcs.iter().map(String::as_str).collect();
    let inv = InvariantSet::parse(&refs, &mut u).unwrap();
    let mut actions = Vec::new();
    for g in 0..groups {
        let old = u.config_of(&[&format!("Old{g}")]);
        let new = u.config_of(&[&format!("New{g}")]);
        actions.push(Action::replace(2 * g as u32, &format!("fwd{g}"), &old, &new, 1));
        actions.push(Action::replace(2 * g as u32 + 1, &format!("back{g}"), &new, &old, 1));
    }
    let olds: Vec<String> = (0..groups).map(|g| format!("Old{g}")).collect();
    let src = u.config_of(&olds.iter().map(String::as_str).collect::<Vec<_>>());
    (u, inv, actions, src)
}

/// `cfg` with groups `gs` moved to `New`.
fn flipped(u: &Universe, cfg: &Config, gs: impl IntoIterator<Item = usize>) -> Config {
    let mut out = cfg.clone();
    for g in gs {
        out.remove(u.id(&format!("Old{g}")).unwrap());
        out.insert(u.id(&format!("New{g}")).unwrap());
    }
    out
}

#[test]
fn ten_group_window_expands_once_per_flipped_group() {
    let (u, inv, actions, src) = grouped(24);
    let search = Search::new(&inv, &actions, u.len());
    let window = 7..17;
    let mut scope: Vec<CompId> = window
        .clone()
        .flat_map(|g| [u.id(&format!("Old{g}")).unwrap(), u.id(&format!("New{g}")).unwrap()])
        .collect();
    scope.sort_unstable();
    let scoped = search.scoped_action_ixs(&scope);
    // Flip every other group of the window: five flipped, five untouched.
    let dst = flipped(&u, &src, window.clone().step_by(2));
    let (path, stats) = search.plan_scoped(&src, &dst, &scoped);
    let path = path.expect("independent flips are always reachable");
    assert_eq!(path.len(), 5);
    assert!(stats.expanded <= 5, "expanded {} for 5 flipped groups", stats.expanded);
    // The joint search over the same window finds the same path, after
    // exploring 2^5-ish configurations.
    let (joint, joint_stats) = search.plan(&src, &dst);
    assert_eq!(Some(path), joint);
    assert!(joint_stats.expanded > stats.expanded);

    // The whole window flipped: ten groups, ten expansions.
    let dst = flipped(&u, &src, window);
    let (path, stats) = search.plan_scoped(&src, &dst, &scoped);
    assert_eq!(path.map(|p| p.len()), Some(10));
    assert!(stats.expanded <= 10, "expanded {} for 10 flipped groups", stats.expanded);
}

#[test]
fn out_of_scope_target_is_refused_without_search() {
    let (u, inv, actions, src) = grouped(4);
    let search = Search::new(&inv, &actions, u.len());
    let mut scope = vec![u.id("Old0").unwrap(), u.id("New0").unwrap()];
    scope.sort_unstable();
    let scoped = search.scoped_action_ixs(&scope);
    // Group 2 lies outside the scope: no scoped action can move it.
    let dst = flipped(&u, &src, [0, 2]);
    let (path, stats) = search.plan_scoped(&src, &dst, &scoped);
    assert!(path.is_none());
    assert_eq!(stats.expanded, 0);
    assert_eq!(stats.generated, 0);
}

#[test]
fn target_is_vetted_only_where_it_differs() {
    let (u, inv, actions, src) = grouped(32);
    let search = Search::new(&inv, &actions, u.len());
    let all: Vec<u32> = (0..actions.len() as u32).collect();
    let dst = flipped(&u, &src, [3]);
    let (path, stats) = search.plan_scoped(&src, &dst, &all);
    assert_eq!(path.map(|p| p.len()), Some(1));
    // 32 predicates for the source, 1 for the target, 1 for the candidate.
    assert_eq!(stats.pred_evals, 32 + 1 + 1);
    assert_eq!(stats.safety_checks, 2 + stats.generated);
    // An unsafe target is still refused.
    let mut bad = dst.clone();
    bad.insert(u.id("Old3").unwrap());
    assert!(search.plan_scoped(&src, &bad, &all).0.is_none());
}
