//! Per-thread publication of the current call location for the sampling
//! profiler.
//!
//! Each thread that executes attributable code owns a
//! [`ThreadLoc`](jmp_obs::ThreadLoc) slot registered with the VM's
//! [`Profiler`], and the slot is the only copy of the thread's published
//! stack. Every frame transition edits it in place — one push or one pop
//! under a `try_lock`, O(1) whatever the depth, with no allocation and no
//! label refcounting — so the profiler's sampler thread can read a
//! coherent stack at any instant without stopping the world. A transition
//! that finds the slot busy (the sampler is mid-read) is not dropped: the
//! publisher folds it into an owed delta (frames to pop, then labels to
//! push) and replays the whole delta with its next successful transition,
//! so the slot catches up with the real stack in one write and the
//! publisher never blocks.
//!
//! Frames come from two places: [`crate::stack::call_as`] publishes the
//! class name of natively-executing library code, and the `jbc`
//! interpreter publishes `Class.method` per interpreted call. Publication
//! is gated on [`Profiler::sampling_enabled`] (one atomic load) and is a
//! no-op on threads with no reachable profiler.

use std::cell::RefCell;
use std::sync::Arc;

use jmp_obs::{Profiler, ThreadLoc};

enum LocState {
    /// No profiler resolved on this thread yet; each push retries, so a
    /// thread that later enters a VM starts publishing.
    Unresolved,
    /// Registered with the profiler.
    Active {
        profiler: Profiler,
        slot: Arc<ThreadLoc>,
        /// Transitions that missed the busy slot, folded into one delta:
        /// pop `owed_pops` frames, then push `owed_pushes`. Empty whenever
        /// the slot equals the real stack; only a miss allocates.
        owed_pops: usize,
        owed_pushes: Vec<Box<str>>,
    },
}

thread_local! {
    static LOC: RefCell<LocState> = const { RefCell::new(LocState::Unresolved) };
}

/// Pushes `label` (a class or `Class.method` name) onto the thread's
/// published stack, returning a guard that pops it on drop.
///
/// `hint` supplies a profiler when no VM is current on the thread (benches,
/// embedding); otherwise the ambient [`Vm::current`](crate::Vm::current)
/// profiler is used. When no profiler is reachable or sampling is disabled
/// the guard is a no-op.
pub(crate) fn frame(label: &str, hint: Option<&Profiler>) -> FrameGuard {
    let pushed = LOC.with(|loc| {
        let mut state = loc.borrow_mut();
        if let LocState::Unresolved = &*state {
            let resolved = hint
                .cloned()
                .or_else(|| crate::Vm::current().map(|vm| vm.obs().profiler().clone()));
            let Some(profiler) = resolved else {
                return false;
            };
            let app = crate::thread::current_app_context().map(|ctx| ctx.app_id());
            let slot = profiler.register_thread(app);
            *state = LocState::Active {
                profiler,
                slot,
                owed_pops: 0,
                owed_pushes: Vec::new(),
            };
        }
        let LocState::Active {
            profiler,
            slot,
            owed_pops,
            owed_pushes,
        } = &mut *state
        else {
            return false;
        };
        if !profiler.sampling_enabled() {
            return false;
        }
        if *owed_pops == 0 && owed_pushes.is_empty() {
            if !slot.push(label) {
                owed_pushes.push(label.into());
            }
        } else {
            owed_pushes.push(label.into());
            settle_owed(slot, owed_pops, owed_pushes);
        }
        true
    });
    FrameGuard { pushed }
}

/// Replays the owed delta into the slot; it stays owed if the slot is
/// still busy.
fn settle_owed(slot: &ThreadLoc, owed_pops: &mut usize, owed_pushes: &mut Vec<Box<str>>) {
    if slot.apply(*owed_pops, owed_pushes) {
        *owed_pops = 0;
        owed_pushes.clear();
    }
}

/// Drops the thread's location state (spawn-wrapper teardown). The
/// profiler's weak registry entry dies with the slot and is pruned on the
/// next sampling pass.
pub(crate) fn clear() {
    LOC.with(|loc| *loc.borrow_mut() = LocState::Unresolved);
}

/// Pops the frame pushed by [`frame`] when dropped (no-op if nothing was
/// pushed).
pub(crate) struct FrameGuard {
    pushed: bool,
}

impl Drop for FrameGuard {
    fn drop(&mut self) {
        if !self.pushed {
            return;
        }
        LOC.with(|loc| {
            let mut state = loc.borrow_mut();
            let LocState::Active {
                slot,
                owed_pops,
                owed_pushes,
                ..
            } = &mut *state
            else {
                return;
            };
            if *owed_pops == 0 && owed_pushes.is_empty() {
                if !slot.pop() {
                    *owed_pops = 1;
                }
                return;
            }
            // A frame pushed while the slot was busy never reached it:
            // popping cancels it locally.
            if owed_pushes.pop().is_none() {
                *owed_pops += 1;
            }
            settle_owed(slot, owed_pops, owed_pushes);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The slot's published stack, as `a;b;c`.
    fn published() -> String {
        LOC.with(|loc| match &*loc.borrow() {
            LocState::Active { slot, .. } => slot.with_stack(str::to_string),
            LocState::Unresolved => panic!("no slot registered"),
        })
    }

    /// Runs `f` while holding the thread's slot the way a sampler tick
    /// does, so every transition inside `f` misses it.
    fn with_slot_held<R>(f: impl FnOnce() -> R) -> R {
        let slot = LOC.with(|loc| match &*loc.borrow() {
            LocState::Active { slot, .. } => Arc::clone(slot),
            LocState::Unresolved => panic!("no slot registered"),
        });
        slot.with_stack(|_| f())
    }

    #[test]
    fn frames_publish_and_pop_with_an_explicit_profiler() {
        clear();
        let profiler = Profiler::new();
        {
            let _a = frame("Outer", Some(&profiler));
            let _b = frame("Outer.inner", Some(&profiler));
            assert!(profiler.sample_once(1_000) >= 1);
            let report = profiler.report();
            assert!(report.vm.stacks.keys().any(|k| k == "Outer;Outer.inner"));
        }
        assert_eq!(published(), "");
        clear();
    }

    #[test]
    fn deep_recursion_samples_the_exact_stack() {
        fn recurse(names: &[String], profiler: &Profiler, depth: usize) {
            if depth == names.len() {
                assert_eq!(profiler.sample_once(1_000), 1);
                return;
            }
            let _frame = frame(&names[depth], Some(profiler));
            recurse(names, profiler, depth + 1);
        }
        clear();
        let profiler = Profiler::new();
        let names: Vec<String> = (0..64).map(|i| format!("R.f{i}")).collect();
        recurse(&names, &profiler, 0);
        let report = profiler.report();
        assert_eq!(
            report.vm.stacks.keys().collect::<Vec<_>>(),
            vec![&names.join(";")],
            "the sampler saw exactly the 64-deep stack"
        );
        assert_eq!(published(), "", "every pop reached the slot");
        clear();
    }

    #[test]
    fn missed_transitions_are_replayed_by_the_next_one() {
        clear();
        let profiler = Profiler::new();
        let _main = frame("A.main", Some(&profiler));
        let work = frame("A.work", Some(&profiler));
        assert_eq!(published(), "A.main;A.work");

        // A pop and a push both miss the held slot: it still shows the
        // stack as of the last successful write.
        let leaf = with_slot_held(|| {
            drop(work);
            frame("A.leaf", Some(&profiler))
        });
        assert_eq!(published(), "A.main;A.work", "stale but coherent");
        // The next transition publishes the real stack in one write.
        let other = frame("A.other", Some(&profiler));
        assert_eq!(published(), "A.main;A.leaf;A.other");
        drop(other);
        assert_eq!(published(), "A.main;A.leaf");

        // A push that missed and is popped before the slot frees cancels
        // out locally; the owed pop still reaches the slot.
        with_slot_held(|| {
            drop(leaf);
            drop(frame("A.other", Some(&profiler)));
        });
        assert_eq!(published(), "A.main;A.leaf");
        let again = frame("A.work", Some(&profiler));
        assert_eq!(published(), "A.main;A.work");
        drop(again);
        assert_eq!(published(), "A.main");
        assert_eq!(profiler.sample_once(1_000), 1);
        assert!(profiler.report().vm.stacks.contains_key("A.main"));
        clear();
    }

    #[test]
    fn no_profiler_means_noop_guards() {
        clear();
        let guard = frame("Nothing", None);
        assert!(!guard.pushed);
    }
}
