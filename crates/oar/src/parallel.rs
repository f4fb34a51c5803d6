//! Parallel command execution on replicas.
//!
//! Total order says *in which order* conflicting commands must take effect,
//! not that every command must execute alone. Following Marandi & Pedone's
//! *Optimistic Parallel State-Machine Replication*, a replica may execute
//! non-conflicting commands of one delivery batch concurrently and still be
//! deterministic, because non-conflicting commands commute.
//!
//! The machinery here has two halves:
//!
//! * [`plan_waves`] — a per-batch dependency-graph scheduler. Commands
//!   declare their footprint via [`ConflictKeys`]; the planner assigns each
//!   command the earliest **wave** that respects every conflict edge towards
//!   earlier commands (its level in the batch's dependency DAG). Commands in
//!   one wave are pairwise non-conflicting by construction; a command with an
//!   unknown footprint ([`KeySet::All`]) gets a wave of its own, acting as a
//!   barrier.
//! * [`wave_apply`] — the executor. Each multi-command wave is **staged** in
//!   parallel across a [`std::thread::scope`] worker pool (std only): workers
//!   compute every command's response, undo token and write-effect against
//!   the immutable wave-start state ([`ParallelStateMachine::stage`]), then
//!   the effects are committed serially in delivery order
//!   ([`ParallelStateMachine::commit`]). Singleton waves (and `workers <= 1`)
//!   fall back to plain [`StateMachine::apply`].
//!
//! Because commands in a wave touch disjoint keys, staging against the
//! wave-start state reads exactly what a serial execution would have read,
//! so responses, undo tokens and the final state are **bit-identical** to
//! serial apply — replies, the protocol propositions, and the deterministic
//! simnet twin cannot tell the difference (the differential proptests in
//! `oar-apps` enforce this). Only the wall-clock spent in the apply stage
//! changes, which is the point.

use std::thread;

use oar_sequence::IdMap;

use crate::state_machine::{AppliedBatch, ConflictKeys, KeySet, StateMachine};

/// A state machine whose commands can be applied in two phases — a read-only
/// **stage** followed by a serial **commit** — so that a wave of pairwise
/// non-conflicting commands can be staged concurrently.
///
/// # Contract
///
/// For every state `s` and command `c`, `stage` followed by `commit` must be
/// indistinguishable from [`StateMachine::apply`]:
///
/// ```text
/// let (r, u, e) = s.stage(&c);  s.commit(e);
/// // ≡ (same response r, same undo u, same resulting state)
/// let (r, u) = s.apply(&c);
/// ```
///
/// `stage` must not observe anything but the current state and `c` (it runs
/// concurrently with other stages of the same wave, all reading the same
/// wave-start snapshot), and `commit` must not read state that another
/// command of the same wave could have written — both hold automatically
/// when the effect only writes keys from `c`'s [`ConflictKeys`] set.
///
/// Commands reporting [`KeySet::All`] never reach `stage`: the planner
/// isolates them in singleton waves, which the executor runs through
/// `apply`.
pub trait ParallelStateMachine: StateMachine {
    /// The staged write-set of one command, replayed by
    /// [`commit`](ParallelStateMachine::commit). `Send` so it can travel
    /// back from a worker thread.
    type Effect: Send;

    /// Computes `command`'s response, undo token and write-effect against
    /// the current state **without mutating it**.
    fn stage(&self, command: &Self::Command) -> (Self::Response, Self::Undo, Self::Effect);

    /// Applies a staged effect. Called serially, in delivery order.
    fn commit(&mut self, effect: Self::Effect);
}

/// Partitions a delivery batch into waves of pairwise non-conflicting
/// commands, preserving delivery order between conflicting pairs.
///
/// Returns the waves in execution order; each wave holds command indices in
/// delivery order. Every command lands in the earliest wave consistent with
/// its conflicts (its level in the dependency DAG), so the number of waves
/// equals the length of the batch's longest conflict chain:
///
/// ```
/// use oar::parallel::plan_waves;
/// use oar::state_machine::{ConflictKeys, KeySet};
///
/// struct Touch(&'static [&'static str]);
/// impl ConflictKeys for Touch {
///     fn conflict_keys(&self) -> KeySet<'_> {
///         KeySet::Keys(self.0.to_vec())
///     }
/// }
///
/// let batch = [Touch(&["a"]), Touch(&["b"]), Touch(&["a", "c"])];
/// let refs: Vec<&Touch> = batch.iter().collect();
/// // 0 and 1 are disjoint; 2 shares "a" with 0 and must wait.
/// assert_eq!(plan_waves(&refs), vec![vec![0, 1], vec![2]]);
/// ```
pub fn plan_waves<C: ConflictKeys>(commands: &[&C]) -> Vec<Vec<usize>> {
    let mut waves: Vec<Vec<usize>> = Vec::new();
    // First wave each key is free in again (last toucher's wave + 1).
    let mut key_free: IdMap<&str, usize> = IdMap::default();
    // First wave allowed after the latest unknown-footprint barrier.
    let mut barrier = 0usize;
    // One past the highest wave assigned so far.
    let mut frontier = 0usize;
    for (i, command) in commands.iter().enumerate() {
        let wave = match command.conflict_keys() {
            // Unknown footprint: conflicts with everything before (run after
            // all of it) and everything after (nothing may join or pass it).
            KeySet::All => {
                let w = frontier;
                barrier = w + 1;
                w
            }
            KeySet::Keys(keys) => {
                let mut w = barrier;
                for key in &keys {
                    if let Some(&free) = key_free.get(key) {
                        w = w.max(free);
                    }
                }
                for key in keys {
                    key_free.insert(key, w + 1);
                }
                w
            }
        };
        frontier = frontier.max(wave + 1);
        if waves.len() <= wave {
            waves.resize_with(wave + 1, Vec::new);
        }
        waves[wave].push(i);
    }
    waves
}

/// Applies one delivery batch with conflict-graph wave scheduling, staging
/// each multi-command wave across at most `workers` scoped threads.
///
/// Responses, undo tokens and the resulting state are bit-identical to the
/// serial [`StateMachine::apply_batch`] default; `wave_sizes` records the
/// partition actually used. With `workers <= 1` every wave is applied
/// serially (the planner still runs, so the wave statistics stay
/// meaningful).
pub fn wave_apply<S>(sm: &mut S, commands: &[&S::Command], workers: usize) -> AppliedBatch<S>
where
    S: ParallelStateMachine + Sync,
    S::Command: ConflictKeys + Sync,
    S::Response: Send,
    S::Undo: Send,
{
    let waves = plan_waves(commands);
    let mut results: Vec<Option<(S::Response, S::Undo)>> = Vec::with_capacity(commands.len());
    results.resize_with(commands.len(), || None);
    let mut wave_sizes = Vec::with_capacity(waves.len());
    for wave in &waves {
        wave_sizes.push(wave.len() as u64);
        if workers <= 1 || wave.len() <= 1 {
            for &i in wave {
                results[i] = Some(sm.apply(commands[i]));
            }
            continue;
        }
        // Stage the wave in parallel against the immutable wave-start state…
        type Staged<S> = (
            usize,
            <S as StateMachine>::Response,
            <S as StateMachine>::Undo,
            <S as ParallelStateMachine>::Effect,
        );
        let shared: &S = sm;
        let mut staged: Vec<Staged<S>> = Vec::with_capacity(wave.len());
        thread::scope(|scope| {
            let handles: Vec<_> = chunk(wave, workers)
                .into_iter()
                .map(|indices| {
                    scope.spawn(move || {
                        indices
                            .iter()
                            .map(|&i| {
                                let (response, undo, effect) = shared.stage(commands[i]);
                                (i, response, undo, effect)
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            for handle in handles {
                staged.extend(handle.join().expect("apply worker panicked"));
            }
        });
        // …then commit the effects serially, in delivery order. The chunks
        // are contiguous in-order slices, so `staged` is already sorted.
        debug_assert!(staged.windows(2).all(|w| w[0].0 < w[1].0));
        for (i, response, undo, effect) in staged {
            sm.commit(effect);
            results[i] = Some((response, undo));
        }
    }
    AppliedBatch {
        results: results
            .into_iter()
            .map(|r| r.expect("every command is in exactly one wave"))
            .collect(),
        wave_sizes,
    }
}

/// Splits a wave into at most `workers` contiguous, near-equal chunks.
fn chunk(wave: &[usize], workers: usize) -> Vec<&[usize]> {
    let parts = workers.min(wave.len()).max(1);
    let base = wave.len() / parts;
    let extra = wave.len() % parts;
    let mut chunks = Vec::with_capacity(parts);
    let mut start = 0;
    for p in 0..parts {
        let len = base + usize::from(p < extra);
        chunks.push(&wave[start..start + len]);
        start += len;
    }
    chunks
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A test machine over a few named slots: each command adds to one or
    /// more slots (conflict keys = the slot names) or declares an unknown
    /// footprint. Staging is slot-local, so the stage/commit contract holds.
    #[derive(Debug, Default, PartialEq, Clone)]
    struct SlotMachine {
        slots: IdMap<String, i64>,
        applied: u64,
    }

    #[derive(Clone, Debug, PartialEq)]
    enum SlotCommand {
        /// Add `1` to each named slot, returning the new sums.
        Bump(Vec<String>),
        /// Unknown footprint: sum every slot.
        SumAll,
    }

    impl ConflictKeys for SlotCommand {
        fn conflict_keys(&self) -> KeySet<'_> {
            match self {
                SlotCommand::Bump(slots) => {
                    KeySet::Keys(slots.iter().map(String::as_str).collect())
                }
                SlotCommand::SumAll => KeySet::All,
            }
        }
    }

    impl StateMachine for SlotMachine {
        type Command = SlotCommand;
        type Response = Vec<i64>;
        type Undo = Vec<String>;

        fn apply(&mut self, command: &SlotCommand) -> (Vec<i64>, Vec<String>) {
            let (response, undo, effect) = self.stage(command);
            self.commit(effect);
            (response, undo)
        }

        fn undo(&mut self, token: Vec<String>) {
            for slot in token {
                let value = self.slots.get_mut(&slot).expect("bumped slot exists");
                *value -= 1;
                // Slots only exist while positive, so undoing the bump that
                // created one removes it and restores the exact prior state.
                if *value == 0 {
                    self.slots.remove(&slot);
                }
            }
            self.applied -= 1;
        }

        fn digest(&self) -> u64 {
            let mut pairs: Vec<_> = self.slots.iter().collect();
            pairs.sort();
            let mut h = self.applied;
            for (k, v) in pairs {
                for b in k.bytes() {
                    h = h.wrapping_mul(31).wrapping_add(b as u64);
                }
                h = h.wrapping_mul(31).wrapping_add(*v as u64);
            }
            h
        }
    }

    impl ParallelStateMachine for SlotMachine {
        type Effect = Vec<String>;

        fn stage(&self, command: &SlotCommand) -> (Vec<i64>, Vec<String>, Vec<String>) {
            match command {
                SlotCommand::Bump(slots) => {
                    let mut sums = Vec::with_capacity(slots.len());
                    let mut overlay: IdMap<&str, i64> = IdMap::default();
                    for slot in slots {
                        let next = overlay
                            .get(slot.as_str())
                            .copied()
                            .unwrap_or_else(|| self.slots.get(slot).copied().unwrap_or(0))
                            + 1;
                        overlay.insert(slot, next);
                        sums.push(next);
                    }
                    (sums, slots.clone(), slots.clone())
                }
                SlotCommand::SumAll => {
                    let mut pairs: Vec<_> = self.slots.iter().collect();
                    pairs.sort();
                    (pairs.into_iter().map(|(_, v)| *v).collect(), vec![], vec![])
                }
            }
        }

        fn commit(&mut self, effect: Vec<String>) {
            for slot in effect {
                *self.slots.entry(slot).or_insert(0) += 1;
            }
            self.applied += 1;
        }
    }

    fn bump(slots: &[&str]) -> SlotCommand {
        SlotCommand::Bump(slots.iter().map(|s| s.to_string()).collect())
    }

    #[test]
    fn disjoint_commands_share_one_wave() {
        let batch = [bump(&["a"]), bump(&["b"]), bump(&["c"])];
        let refs: Vec<&SlotCommand> = batch.iter().collect();
        assert_eq!(plan_waves(&refs), vec![vec![0, 1, 2]]);
    }

    #[test]
    fn conflicting_commands_respect_delivery_order() {
        let batch = [bump(&["a"]), bump(&["a"]), bump(&["b"]), bump(&["a", "b"])];
        let refs: Vec<&SlotCommand> = batch.iter().collect();
        // 1 waits for 0 (key a); 2 shares wave 0; 3 waits for both chains.
        assert_eq!(plan_waves(&refs), vec![vec![0, 2], vec![1], vec![3]]);
    }

    #[test]
    fn unknown_footprint_is_a_barrier_in_its_own_wave() {
        let batch = [
            bump(&["a"]),
            SlotCommand::SumAll,
            bump(&["a"]),
            bump(&["b"]),
        ];
        let refs: Vec<&SlotCommand> = batch.iter().collect();
        // SumAll runs alone: after everything before, before everything
        // after — even the disjoint "b" bump may not pass it.
        assert_eq!(plan_waves(&refs), vec![vec![0], vec![1], vec![2, 3]]);
    }

    #[test]
    fn every_wave_is_pairwise_non_conflicting() {
        let batch = [
            bump(&["a", "b"]),
            bump(&["c"]),
            bump(&["b", "c"]),
            bump(&["d"]),
            SlotCommand::SumAll,
            bump(&["a"]),
            bump(&["a", "d"]),
        ];
        let refs: Vec<&SlotCommand> = batch.iter().collect();
        for wave in plan_waves(&refs) {
            for (x, &i) in wave.iter().enumerate() {
                for &j in &wave[x + 1..] {
                    assert!(
                        !refs[i].conflict_keys().intersects(&refs[j].conflict_keys()),
                        "commands {i} and {j} conflict but share a wave"
                    );
                }
            }
        }
    }

    #[test]
    fn chunks_cover_the_wave_in_order() {
        let wave: Vec<usize> = (0..10).collect();
        for workers in 1..=12 {
            let chunks = chunk(&wave, workers);
            assert!(chunks.len() <= workers);
            let flat: Vec<usize> = chunks.iter().flat_map(|c| c.iter().copied()).collect();
            assert_eq!(flat, wave, "workers={workers}");
        }
    }

    /// The differential check at the scheduler's own level: parallel apply
    /// must be bit-identical to serial apply for mixed batches, at every
    /// worker count (including the serial fallbacks).
    #[test]
    fn wave_apply_matches_serial_apply_bitwise() {
        let batch = [
            bump(&["a"]),
            bump(&["b", "c"]),
            bump(&["a", "c"]),
            SlotCommand::SumAll,
            bump(&["d"]),
            bump(&["d"]),
            bump(&["e", "a"]),
        ];
        let refs: Vec<&SlotCommand> = batch.iter().collect();
        let mut serial = SlotMachine::default();
        let expected: Vec<(Vec<i64>, Vec<String>)> = refs.iter().map(|c| serial.apply(c)).collect();
        for workers in [0, 1, 2, 3, 8] {
            let mut parallel = SlotMachine::default();
            let out = wave_apply(&mut parallel, &refs, workers);
            assert_eq!(out.results, expected, "workers={workers}");
            assert_eq!(parallel, serial, "workers={workers}");
            assert_eq!(
                out.wave_sizes.iter().sum::<u64>(),
                refs.len() as u64,
                "every command in exactly one wave"
            );
        }
    }

    /// Undo tokens from a parallel batch roll back exactly like serial ones.
    #[test]
    fn parallel_undo_stack_rolls_back_to_the_initial_state() {
        let mut sm = SlotMachine::default();
        sm.apply(&bump(&["a"]));
        let before = sm.clone();
        let batch = [bump(&["a"]), bump(&["b"]), bump(&["c", "a"]), bump(&["b"])];
        let refs: Vec<&SlotCommand> = batch.iter().collect();
        let out = wave_apply(&mut sm, &refs, 4);
        for (_, undo) in out.results.into_iter().rev() {
            sm.undo(undo);
        }
        assert_eq!(sm, before);
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let mut sm = SlotMachine::default();
        let out = wave_apply(&mut sm, &[], 4);
        assert!(out.results.is_empty());
        assert!(out.wave_sizes.is_empty());
        assert_eq!(sm, SlotMachine::default());
    }
}
