//! The conservative ordering procedure (`Cnsv-order`, Fig. 7 of the paper).
//!
//! The consensus (instance = epoch) decides `Dk`, a sequence of
//! `(O_delivered, O_notdelivered)` pairs — one per contributing process. Given
//! that decision and a server's own `O_delivered` sequence, this module
//! computes the sequences `Bad` (optimistic deliveries to undo), `New`
//! (requests to A-deliver) and `Good` (optimistic deliveries confirmed by the
//! conservative order), exactly following lines 5–19 of Fig. 7.
//!
//! The function is pure, which is what makes the specification properties of
//! §5.4 (Agreement, Unicity, Non-triviality, Validity, Undo legality, Undo
//! consistency, Undo thriftiness) directly property-testable; see the tests at
//! the bottom of this file and `tests/cnsv_order_spec.rs` in the integration
//! suite.

use oar_consensus::Decision;
use oar_sequence::Seq;

use crate::message::{CnsvValue, RequestId};

/// The outcome of `Cnsv-order` for one server.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct CnsvOutcome {
    /// Requests Opt-delivered in the wrong order; they must be Opt-undelivered
    /// (in reverse delivery order) and will reappear in `new`.
    pub bad: Seq<RequestId>,
    /// Requests to A-deliver, in the conservative order.
    pub new: Seq<RequestId>,
    /// Requests Opt-delivered in the right order (kept).
    pub good: Seq<RequestId>,
}

impl CnsvOutcome {
    /// The sequence of requests delivered during the epoch after the outcome
    /// is applied: `(O_delivered ⊖ Bad) ⊕ New`, which the Agreement property
    /// guarantees to be identical at every correct server.
    pub fn final_sequence(&self, o_delivered: &Seq<RequestId>) -> Seq<RequestId> {
        o_delivered.subtract(&self.bad).concat(&self.new)
    }
}

/// Computes `{Bad; New}` (and `Good`) from the server's `O_delivered` and the
/// consensus decision `Dk`, per Fig. 7 lines 5–19.
///
/// Runs in O(|decision| + |O_delivered|): the indexed [`Seq`] makes every
/// membership probe O(1), and lines 12–14 (the `⊎` merge of the pending
/// sequences followed by the `⊖ dlv_max` filter and the `⊕` append) are fused
/// into a single accumulation pass over the decision instead of building
/// three intermediate sequences.
pub fn cnsv_order_outcome(
    o_delivered: &Seq<RequestId>,
    decision: &Decision<CnsvValue>,
) -> CnsvOutcome {
    // Line 5: dlv_max ← longest dlv_i in the decision. By Lemma 2 the dlv_i are
    // prefixes of one another, so "longest" is unambiguous.
    let dlv_max: Seq<RequestId> = decision
        .iter()
        .map(|(_, v)| &v.o_delivered)
        .max_by_key(|s| s.len())
        .cloned()
        .unwrap_or_default();

    let mut bad = Seq::new();
    let mut new = Seq::new();
    let good;

    if o_delivered.is_prefix_of(&dlv_max) {
        // Lines 6–8: our optimistic deliveries are all confirmed.
        new = dlv_max.subtract(o_delivered);
        good = o_delivered.clone();
    } else {
        // Lines 9–11: we delivered beyond (or diverging from) the decision.
        good = o_delivered.common_prefix(&dlv_max);
        bad = o_delivered.subtract(&good);
    }

    // Lines 12–14 fused: append every contributor's pending requests in
    // decision order (identical at every process by consensus agreement),
    // skipping anything already delivered by `dlv_max` or already appended.
    // `new` acts as its own dedup accumulator — elements added from lines 6–8
    // are members of `dlv_max`, so the two skip conditions cannot overlap.
    for (_, v) in decision {
        for m in v.o_notdelivered.iter() {
            if !dlv_max.contains(m) && !new.contains(m) {
                new.push(*m);
            }
        }
    }

    // Lines 15–19 (undo thriftiness): if Bad and New share a prefix, those
    // requests would be undone and immediately redelivered in the same order;
    // keep them delivered instead.
    let prefix = bad.common_prefix(&new);
    if !prefix.is_empty() {
        let good = good.concat(&prefix);
        let bad = bad.subtract(&prefix);
        let new = new.subtract(&prefix);
        return CnsvOutcome { bad, new, good };
    }

    CnsvOutcome { bad, new, good }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oar_simnet::ProcessId;

    fn rid(n: u64) -> RequestId {
        RequestId::new(ProcessId::new(9), n)
    }

    fn seq(ids: &[u64]) -> Seq<RequestId> {
        ids.iter().map(|&n| rid(n)).collect()
    }

    fn val(dlv: &[u64], notdlv: &[u64]) -> CnsvValue {
        CnsvValue {
            o_delivered: seq(dlv),
            o_notdelivered: seq(notdlv),
        }
    }

    fn decision(values: Vec<CnsvValue>) -> Decision<CnsvValue> {
        values
            .into_iter()
            .enumerate()
            .map(|(i, v)| (ProcessId::new(i), v))
            .collect()
    }

    #[test]
    fn all_in_agreement_nothing_to_do() {
        // Every process delivered {1,2}; nothing pending.
        let d = decision(vec![
            val(&[1, 2], &[]),
            val(&[1, 2], &[]),
            val(&[1, 2], &[]),
        ]);
        let out = cnsv_order_outcome(&seq(&[1, 2]), &d);
        assert_eq!(out.bad, seq(&[]));
        assert_eq!(out.new, seq(&[]));
        assert_eq!(out.good, seq(&[1, 2]));
        assert_eq!(out.final_sequence(&seq(&[1, 2])), seq(&[1, 2]));
    }

    #[test]
    fn figure3_scenario_no_undelivery() {
        // Paper Fig. 3: p2 Opt-delivered {1,2,3,4}; p3 only {1,2} with {3,4}
        // pending. A majority saw {1,2,3,4}, so p3 just A-delivers {3,4}.
        let d = decision(vec![val(&[1, 2, 3, 4], &[]), val(&[1, 2], &[4, 3])]);
        // p2's point of view
        let out_p2 = cnsv_order_outcome(&seq(&[1, 2, 3, 4]), &d);
        assert_eq!(out_p2.bad, seq(&[]));
        assert_eq!(out_p2.new, seq(&[]));
        // p3's point of view
        let out_p3 = cnsv_order_outcome(&seq(&[1, 2]), &d);
        assert_eq!(out_p3.bad, seq(&[]));
        assert_eq!(out_p3.new, seq(&[3, 4]));
        assert_eq!(
            out_p2.final_sequence(&seq(&[1, 2, 3, 4])),
            out_p3.final_sequence(&seq(&[1, 2]))
        );
    }

    #[test]
    fn figure4_scenario_with_undelivery() {
        // Paper Fig. 4: p2 Opt-delivered {1,2,3,4}, but the decision only
        // contains the values of p3 and p4, which both have dlv = {1,2} and
        // pending {4,3}. The conservative order is {1,2,4,3}: p2 must undo
        // {3,4} and redeliver {4,3}.
        let d = decision(vec![val(&[1, 2], &[4, 3]), val(&[1, 2], &[3, 4])]);
        let out_p2 = cnsv_order_outcome(&seq(&[1, 2, 3, 4]), &d);
        assert_eq!(out_p2.good, seq(&[1, 2]));
        assert_eq!(out_p2.bad, seq(&[3, 4]));
        assert_eq!(out_p2.new, seq(&[4, 3]));
        // p3 and p4 simply A-deliver in the decided order.
        let out_p3 = cnsv_order_outcome(&seq(&[1, 2]), &d);
        assert_eq!(out_p3.bad, seq(&[]));
        assert_eq!(out_p3.new, seq(&[4, 3]));
        assert_eq!(
            out_p2.final_sequence(&seq(&[1, 2, 3, 4])),
            out_p3.final_sequence(&seq(&[1, 2]))
        );
    }

    #[test]
    fn undo_thriftiness_rescues_same_order_redelivery() {
        // p's extra deliveries {3,4} are not in any dlv_i, but the merged
        // pending sequence happens to schedule them in the same order: lines
        // 15–19 must cancel the undo.
        let d = decision(vec![val(&[1, 2], &[3, 4]), val(&[1, 2], &[3, 4])]);
        let out = cnsv_order_outcome(&seq(&[1, 2, 3, 4]), &d);
        assert_eq!(out.bad, seq(&[]));
        assert_eq!(out.new, seq(&[]));
        assert_eq!(out.good, seq(&[1, 2, 3, 4]));
    }

    #[test]
    fn partial_thriftiness_keeps_common_prefix_only() {
        // p delivered {1,2,3,4,5}; decision dlv_max = {1,2}; pending merge
        // gives {3,6,4,5}: the common prefix of Bad={3,4,5} and New={3,6,4,5}
        // is {3}, so 3 stays delivered, 4 and 5 are undone.
        let d = decision(vec![val(&[1, 2], &[3, 6, 4, 5]), val(&[1, 2], &[3, 6])]);
        let out = cnsv_order_outcome(&seq(&[1, 2, 3, 4, 5]), &d);
        assert_eq!(out.good, seq(&[1, 2, 3]));
        assert_eq!(out.bad, seq(&[4, 5]));
        assert_eq!(out.new, seq(&[6, 4, 5]));
    }

    #[test]
    fn empty_decision_undoes_everything_unconfirmed() {
        let d: Decision<CnsvValue> = vec![];
        let out = cnsv_order_outcome(&seq(&[1, 2]), &d);
        assert_eq!(out.bad, seq(&[1, 2]));
        assert_eq!(out.new, seq(&[]));
        assert_eq!(out.good, seq(&[]));
    }

    #[test]
    fn pending_only_process_delivers_merged_pending() {
        let d = decision(vec![val(&[], &[2, 1]), val(&[], &[1, 3])]);
        let out = cnsv_order_outcome(&seq(&[]), &d);
        assert_eq!(out.bad, seq(&[]));
        // ⊎({2,1},{1,3}) = {2,1,3}
        assert_eq!(out.new, seq(&[2, 1, 3]));
    }

    #[test]
    fn final_sequence_is_good_concat_new() {
        let d = decision(vec![val(&[1], &[5]), val(&[1, 2, 3], &[])]);
        let own = seq(&[1, 2, 3, 4]);
        let out = cnsv_order_outcome(&own, &d);
        assert_eq!(out.final_sequence(&own), out.good.concat(&out.new));
    }
}

#[cfg(test)]
mod spec_proptests {
    //! Property tests of the §5.4 specification of `Cnsv-order`, over randomly
    //! generated epoch states. Generation mirrors the protocol's guarantees:
    //! all `O_delivered` sequences are prefixes of a common sequencer order
    //! (Lemma 2), and the decision aggregates the values of a random majority.

    use super::*;
    use oar_sequence::Seq;
    use oar_simnet::ProcessId;
    use proptest::prelude::*;

    #[derive(Debug, Clone)]
    struct EpochCase {
        /// One (o_delivered, o_notdelivered) pair per process.
        values: Vec<CnsvValue>,
        /// Indices of the processes whose values form the decision.
        contributors: Vec<usize>,
    }

    fn rid(n: u64) -> RequestId {
        RequestId::new(ProcessId::new(50), n)
    }

    fn arb_case() -> impl Strategy<Value = EpochCase> {
        // n processes, a sequencer order over `total` distinct requests, a
        // per-process prefix length, and per-process extra pending requests.
        (3usize..=7, 0usize..=8).prop_flat_map(|(n, total)| {
            let prefix_lens = proptest::collection::vec(0usize..=total, n);
            let pending_extra =
                proptest::collection::vec(proptest::collection::vec(0u64..20, 0..5), n);
            let contributors = proptest::collection::vec(0usize..n, (n / 2 + 1)..=n);
            (
                Just(n),
                Just(total),
                prefix_lens,
                pending_extra,
                contributors,
            )
                .prop_map(
                    |(n, total, prefix_lens, pending_extra, mut contributors)| {
                        contributors.sort_unstable();
                        contributors.dedup();
                        let order: Vec<RequestId> = (0..total as u64).map(rid).collect();
                        let values = (0..n)
                            .map(|i| {
                                let len = prefix_lens[i].min(total);
                                let o_delivered: Seq<RequestId> =
                                    order[..len].iter().copied().collect();
                                // pending = some later requests of the order plus extras,
                                // excluding what this process already delivered
                                let mut pending: Vec<RequestId> = order[len..]
                                    .iter()
                                    .copied()
                                    .filter(|_| i % 2 == 0)
                                    .collect();
                                for &e in &pending_extra[i] {
                                    let id = rid(100 + e);
                                    if !pending.contains(&id) {
                                        pending.push(id);
                                    }
                                }
                                CnsvValue {
                                    o_delivered,
                                    o_notdelivered: pending.into_iter().collect(),
                                }
                            })
                            .collect();
                        EpochCase {
                            values,
                            contributors,
                        }
                    },
                )
        })
    }

    fn decision_of(case: &EpochCase) -> Decision<CnsvValue> {
        case.contributors
            .iter()
            .map(|&i| (ProcessId::new(i), case.values[i].clone()))
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Agreement: (O_delivered_p ⊖ Bad_p) ⊕ New_p identical at every process.
        #[test]
        fn agreement(case in arb_case()) {
            let d = decision_of(&case);
            let finals: Vec<Seq<RequestId>> = case
                .values
                .iter()
                .map(|v| cnsv_order_outcome(&v.o_delivered, &d).final_sequence(&v.o_delivered))
                .collect();
            for f in &finals {
                prop_assert_eq!(f.clone(), finals[0].clone());
            }
        }

        /// Unicity: New_p ∩ (O_delivered_p ⊖ Bad_p) = ∅.
        #[test]
        fn unicity(case in arb_case()) {
            let d = decision_of(&case);
            for v in &case.values {
                let out = cnsv_order_outcome(&v.o_delivered, &d);
                let kept = v.o_delivered.subtract(&out.bad);
                prop_assert!(out.new.is_disjoint(&kept));
            }
        }

        /// Non-triviality: a request present at a majority of processes
        /// (delivered or pending) is delivered during the epoch — provided the
        /// decision contains the values of a majority, as guaranteed by the
        /// default consensus configuration.
        #[test]
        fn non_triviality(case in arb_case()) {
            let n = case.values.len();
            let d = decision_of(&case);
            prop_assume!(case.contributors.len() > n / 2);
            // requests held by a majority
            let mut counts: oar_sequence::IdMap<RequestId, usize> = Default::default();
            for v in &case.values {
                for m in v.o_delivered.iter().chain(v.o_notdelivered.iter()) {
                    *counts.entry(*m).or_default() += 1;
                }
            }
            for v in &case.values {
                let out = cnsv_order_outcome(&v.o_delivered, &d);
                let final_seq = out.final_sequence(&v.o_delivered);
                for (m, c) in &counts {
                    if *c > n / 2 {
                        prop_assert!(
                            final_seq.contains(m),
                            "majority-held request {m:?} missing from final sequence"
                        );
                    }
                }
            }
        }

        /// Validity: every request in New_p was delivered or pending at some
        /// process contributing to the decision.
        #[test]
        fn validity(case in arb_case()) {
            let d = decision_of(&case);
            for v in &case.values {
                let out = cnsv_order_outcome(&v.o_delivered, &d);
                for m in out.new.iter() {
                    let known = d.iter().any(|(_, dv)| {
                        dv.o_delivered.contains(m) || dv.o_notdelivered.contains(m)
                    });
                    prop_assert!(known, "request {m:?} in New came from nowhere");
                }
            }
        }

        /// Undo legality: Bad_p is a suffix of O_delivered_p, i.e.
        /// (O_delivered_p ⊖ Bad_p) ⊕ Bad_p = O_delivered_p.
        #[test]
        fn undo_legality(case in arb_case()) {
            let d = decision_of(&case);
            for v in &case.values {
                let out = cnsv_order_outcome(&v.o_delivered, &d);
                prop_assert_eq!(
                    v.o_delivered.subtract(&out.bad).concat(&out.bad),
                    v.o_delivered.clone()
                );
                prop_assert!(out.bad.is_suffix_of(&v.o_delivered));
            }
        }

        /// Undo consistency: a request undone by p was not Opt-delivered by a
        /// majority of processes — provided the decision contains a majority
        /// of values.
        #[test]
        fn undo_consistency(case in arb_case()) {
            let n = case.values.len();
            let d = decision_of(&case);
            prop_assume!(case.contributors.len() > n / 2);
            for v in &case.values {
                let out = cnsv_order_outcome(&v.o_delivered, &d);
                for m in out.bad.iter() {
                    let delivered_by = case
                        .values
                        .iter()
                        .filter(|q| q.o_delivered.contains(m))
                        .count();
                    prop_assert!(
                        delivered_by < n / 2 + 1,
                        "undone request {m:?} was Opt-delivered by a majority"
                    );
                }
            }
        }

        /// Undo thriftiness: Bad_p and New_p never share a prefix.
        #[test]
        fn undo_thriftiness(case in arb_case()) {
            let d = decision_of(&case);
            for v in &case.values {
                let out = cnsv_order_outcome(&v.o_delivered, &d);
                prop_assert!(out.bad.common_prefix(&out.new).is_empty());
            }
        }

        /// Good is always the confirmed prefix: Good_p ⊕ Bad_p = O_delivered_p
        /// and Good_p is a prefix of the common final sequence.
        #[test]
        fn good_is_confirmed_prefix(case in arb_case()) {
            let d = decision_of(&case);
            for v in &case.values {
                let out = cnsv_order_outcome(&v.o_delivered, &d);
                prop_assert_eq!(out.good.concat(&out.bad), v.o_delivered.clone());
                prop_assert!(out.good.is_prefix_of(&out.final_sequence(&v.o_delivered)));
            }
        }
    }
}
