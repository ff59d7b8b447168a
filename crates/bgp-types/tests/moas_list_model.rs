//! Differential test of `MoasList` against the ordered set it is specified
//! as: every operation and every observable — membership, length, order,
//! equality, ordering, hash, `Debug`, `Display` and the route field — must
//! match a `BTreeSet<Asn>` model, across the two-member inline/spill
//! boundary in both directions.

use std::collections::BTreeSet;
use std::hash::{DefaultHasher, Hash, Hasher};

use bgp_types::{AsPath, Asn, Ipv4Prefix, MoasList, Route};
use proptest::prelude::*;

/// The list as it was declared when it wrapped an ordered set: its derived
/// `Debug`, `Hash` and `Ord` are the reference outputs.
mod set_version {
    use super::*;

    #[derive(Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
    pub struct MoasList {
        pub members: BTreeSet<Asn>,
    }
}

/// Eight ASNs on both sides of the 16-bit boundary, so random operations
/// keep lists between 0 and 8 members and often revisit one.
const DOMAIN: [u32; 8] = [0, 1, 2, 7, 226, 64_512, 65_536, 70_000];

fn hash_of<T: Hash>(value: &T) -> u64 {
    let mut hasher = DefaultHasher::new();
    value.hash(&mut hasher);
    hasher.finish()
}

fn assert_matches(list: &MoasList, model: &BTreeSet<Asn>) {
    let old = set_version::MoasList {
        members: model.clone(),
    };
    assert_eq!(list.len(), model.len());
    assert_eq!(list.is_empty(), model.is_empty());
    assert!(list.iter().eq(model.iter().copied()));
    assert!(list.into_iter().eq(model.iter().copied()));
    for asn in DOMAIN.map(Asn) {
        assert_eq!(list.contains(asn), model.contains(&asn), "contains {asn}");
    }
    assert_eq!(hash_of(list), hash_of(&old), "hash of {list}");
    assert_eq!(format!("{list:?}"), format!("{old:?}"));
    assert_eq!(format!("{list:#?}"), format!("{old:#?}"));
    let shown: Vec<String> = model.iter().map(ToString::to_string).collect();
    assert_eq!(list.to_string(), format!("{{{}}}", shown.join(", ")));

    let route = Route::new(Ipv4Prefix::new(0, 0), AsPath::new()).with_moas_list(list.clone());
    assert_eq!(route.moas_list(), (!model.is_empty()).then_some(list));

    // Rebuilt from the model in any order, with duplicates, it is equal.
    let rebuilt: MoasList = model.iter().rev().chain(model.iter()).copied().collect();
    assert_eq!(&rebuilt, list);
    assert_eq!(&list.clone(), list);
}

#[derive(Debug, Clone, Copy)]
enum Op {
    Insert(Asn),
    Remove(Asn),
    /// `Extend` with up to three members, duplicates and all.
    Extend([Asn; 3], usize),
    /// Replace with a list collected from an exact-size iterator.
    Collect([Asn; 3], usize),
}

fn arb_op() -> impl Strategy<Value = (usize, Op)> {
    let asn = || (0usize..DOMAIN.len()).prop_map(|i| Asn(DOMAIN[i]));
    let op = prop_oneof![
        asn().prop_map(Op::Insert),
        asn().prop_map(Op::Insert),
        asn().prop_map(Op::Remove),
        asn().prop_map(Op::Remove),
        (asn(), asn(), asn(), 0usize..=3).prop_map(|(a, b, c, n)| Op::Extend([a, b, c], n)),
        (asn(), asn(), asn(), 0usize..=3).prop_map(|(a, b, c, n)| Op::Collect([a, b, c], n)),
    ];
    (0usize..2, op)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn moas_list_behaves_as_an_ordered_set(ops in prop::collection::vec(arb_op(), 0..40)) {
        let mut lists = [MoasList::new(), MoasList::new()];
        let mut models = [BTreeSet::new(), BTreeSet::new()];
        for (which, op) in ops {
            let (list, model) = (&mut lists[which], &mut models[which]);
            match op {
                Op::Insert(asn) => prop_assert_eq!(list.insert(asn), model.insert(asn)),
                Op::Remove(asn) => prop_assert_eq!(list.remove(asn), model.remove(&asn)),
                Op::Extend(asns, n) => {
                    list.extend(asns[..n].iter().copied());
                    model.extend(asns[..n].iter().copied());
                }
                Op::Collect(asns, n) => {
                    *list = asns[..n].iter().copied().collect();
                    *model = asns[..n].iter().copied().collect();
                }
            }
            assert_matches(list, model);
            let [a, b] = &lists;
            let old = models.clone().map(|members| set_version::MoasList { members });
            prop_assert_eq!(a == b, old[0] == old[1]);
            prop_assert_eq!(a.cmp(b), old[0].cmp(&old[1]));
            prop_assert_eq!(a.partial_cmp(b), old[0].partial_cmp(&old[1]));
        }
    }
}

#[test]
fn every_size_from_zero_to_six_matches_the_model() {
    // Grow to six members one at a time, then shrink back, so both
    // boundary crossings (2 → 3 and 3 → 2) happen in each direction.
    let order = [7, 2, 65_534, 0, 226, 64_512].map(Asn);
    let mut list = MoasList::new();
    let mut model = BTreeSet::new();
    assert_matches(&list, &model);
    for asn in order {
        list.insert(asn);
        model.insert(asn);
        assert_matches(&list, &model);
    }
    for asn in order.iter().rev().chain(&order) {
        list.remove(*asn);
        model.remove(asn);
        assert_matches(&list, &model);
    }
    assert!(list.is_empty());
    assert_eq!(MoasList::default(), list);
}
