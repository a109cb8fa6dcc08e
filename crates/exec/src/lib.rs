//! # sigfim-exec
//!
//! The deterministic parallel execution layer of the `sigfim` workspace.
//!
//! Algorithm 1 of the paper (FindPoissonThreshold) is embarrassingly parallel —
//! Δ independent random datasets, each generated and mined at the floor support —
//! but naive parallelization breaks reproducibility: if workers pull values from
//! a shared RNG, results depend on scheduling. This crate solves both halves of
//! the problem:
//!
//! * [`ExecutionPolicy`] abstracts *where* indexed tasks run (inline on the
//!   calling thread, or on a rayon thread pool with dynamic load balancing) while
//!   guaranteeing that outputs come back **in input order**, so the two policies
//!   are observationally identical for pure per-index tasks.
//! * [`substream`] gives every task its *own* RNG, addressed by `(seed, index)`
//!   through the ChaCha stream-cipher structure. Replicate `i` sees the same
//!   random bytes no matter which worker runs it, when, or alongside what — so a
//!   Monte-Carlo run is bit-identical at 1, 2 or 64 threads.
//!
//! ```
//! use sigfim_exec::{substream, ExecutionPolicy};
//! use rand::Rng;
//!
//! let inputs: Vec<u64> = (0..32).collect();
//! let task = |i: usize, _x: &u64| substream(42, i as u64).random::<f64>();
//! let sequential = ExecutionPolicy::Sequential.map_indexed(&inputs, task);
//! let parallel = ExecutionPolicy::rayon(8).map_indexed(&inputs, task);
//! assert_eq!(sequential, parallel); // bit-identical
//! ```

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};

use rand::SeedableRng;
use rand_chacha::ChaCha12Rng;
use rayon::ThreadPoolBuilder;
use serde::{Deserialize, Error as SerdeError, Serialize, Value};

/// Where (and with how much parallelism) indexed task batches execute.
///
/// The policy is threaded from the top of the pipeline
/// (`AnalysisEngine::with_execution_policy`) down to the replicate loop of Algorithm 1. Both
/// variants produce identical outputs for pure per-index tasks; `Rayon` merely
/// produces them faster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExecutionPolicy {
    /// Run every task inline on the calling thread, in index order.
    Sequential,
    /// Run tasks on a work-claiming thread pool. `threads = 0` means one worker
    /// per available core.
    Rayon {
        /// Number of worker threads (`0` = available parallelism).
        threads: usize,
    },
}

impl Default for ExecutionPolicy {
    /// The default policy uses all available cores.
    fn default() -> Self {
        ExecutionPolicy::Rayon { threads: 0 }
    }
}

impl ExecutionPolicy {
    /// A rayon policy with an explicit worker count (`0` = available parallelism).
    pub fn rayon(threads: usize) -> Self {
        ExecutionPolicy::Rayon { threads }
    }

    /// Map a legacy `threads` knob onto a policy: `1` means strictly sequential,
    /// anything else a rayon pool of that size (`0` = available parallelism).
    pub fn from_threads(threads: usize) -> Self {
        match threads {
            1 => ExecutionPolicy::Sequential,
            n => ExecutionPolicy::Rayon { threads: n },
        }
    }

    /// The number of OS worker threads this policy accounts for: 1 for
    /// `Sequential`, the pool size for `Rayon` (resolving the `0` =
    /// available-parallelism convention against the machine). This is the
    /// shared thread-accounting rule; the service front-end sizes its
    /// connection worker pool with it so "0 workers" means the same thing for
    /// HTTP handlers as it does for Monte-Carlo replicates.
    pub fn worker_threads(&self) -> usize {
        match *self {
            ExecutionPolicy::Sequential => 1,
            ExecutionPolicy::Rayon { threads: 0 } => std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
            ExecutionPolicy::Rayon { threads } => threads,
        }
    }

    /// Apply `task` to every element of `items` and return the outputs **in
    /// input order**, regardless of policy. `task` receives the element index,
    /// which parallel callers should use to derive any per-task randomness (see
    /// [`substream`]).
    pub fn map_indexed<T, O, F>(&self, items: &[T], task: F) -> Vec<O>
    where
        T: Sync,
        O: Send,
        F: Fn(usize, &T) -> O + Sync,
    {
        match *self {
            ExecutionPolicy::Sequential => items
                .iter()
                .enumerate()
                .map(|(i, item)| task(i, item))
                .collect(),
            ExecutionPolicy::Rayon { threads } => ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("thread pool construction cannot fail")
                .par_map_indexed(items, task),
        }
    }

    /// Like [`ExecutionPolicy::map_indexed`] for fallible tasks: returns all
    /// outputs in input order, or the error of the **lowest-indexed** failing
    /// task — so error selection is deterministic too, independent of which
    /// worker failed first in wall-clock time.
    ///
    /// Both policies stop early on failure. Under `Rayon`, workers skip every
    /// task whose index lies *above* the lowest failing index recorded so far —
    /// tasks below it always run, so the error that is returned is always the
    /// globally lowest-indexed one, exactly as under `Sequential`; early
    /// stopping only reduces how much post-failure work is wasted.
    pub fn try_map_indexed<T, O, E, F>(&self, items: &[T], task: F) -> Result<Vec<O>, E>
    where
        T: Sync,
        O: Send,
        E: Send,
        F: Fn(usize, &T) -> Result<O, E> + Sync,
    {
        match *self {
            ExecutionPolicy::Sequential => items
                .iter()
                .enumerate()
                .map(|(i, item)| task(i, item))
                .collect(),
            ExecutionPolicy::Rayon { .. } => {
                let first_failure = AtomicUsize::new(usize::MAX);
                let results: Vec<Option<Result<O, E>>> = self.map_indexed(items, |i, item| {
                    if i > first_failure.load(Ordering::Relaxed) {
                        return None;
                    }
                    let result = task(i, item);
                    if result.is_err() {
                        first_failure.fetch_min(i, Ordering::Relaxed);
                    }
                    Some(result)
                });
                let mut out = Vec::with_capacity(results.len());
                let mut first_error = None;
                let mut skipped = false;
                for result in results {
                    match result {
                        Some(Ok(value)) if first_error.is_none() => out.push(value),
                        Some(Ok(_)) => {}
                        // Index order: the first error seen here is the
                        // lowest-indexed one (skipped slots only occur above it).
                        Some(Err(error)) if first_error.is_none() => first_error = Some(error),
                        Some(Err(_)) => {}
                        None => skipped = true,
                    }
                }
                match first_error {
                    Some(error) => Err(error),
                    None => {
                        // A slot is only skipped after some task recorded an
                        // error, so a skip without an error cannot happen.
                        assert!(!skipped, "tasks were skipped but no error was recorded");
                        Ok(out)
                    }
                }
            }
        }
    }
}

/// A progress hook for indexed task batches: [`BatchObserver::task_completed`]
/// fires once per finished task, from whichever worker thread finished it.
///
/// Observations are *monotone but unordered*: `completed` (the number of tasks
/// finished so far, including this one) only ever grows, while `index` arrives
/// in scheduling order — so observers must not derive results from the call
/// order. The task outputs themselves remain in input order and bit-identical
/// under every policy; the observer only watches the batch drain.
pub trait BatchObserver: Sync {
    /// `index` finished as the `completed`-th task (1-based) of `total`.
    fn task_completed(&self, index: usize, completed: usize, total: usize);
}

/// The do-nothing observer. Callers with an "observed" entry point but no
/// interested listener pass it to [`ExecutionPolicy::try_map_indexed_observed`],
/// paying only the wrapper's atomic increment per task; plain
/// [`ExecutionPolicy::try_map_indexed`] bypasses observation entirely.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopObserver;

impl BatchObserver for NoopObserver {
    fn task_completed(&self, _index: usize, _completed: usize, _total: usize) {}
}

/// An adapter that re-frames a sub-batch's progress inside a larger logical
/// batch: task `i` of the sub-batch is reported to `inner` as task
/// `index_offset + i`, completed `completed_offset + completed` of `total`.
///
/// This is what lets a caller that resumes a partially cached batch (the
/// Monte-Carlo observation store replaying reused replicates and then running
/// only the tail) keep its observer's invariants — `completed` monotone,
/// `total` the full logical batch — while the execution layer only ever sees
/// the uncached tail.
#[derive(Clone, Copy)]
pub struct OffsetObserver<'a> {
    /// The observer watching the full logical batch.
    pub inner: &'a dyn BatchObserver,
    /// Added to every reported task index.
    pub index_offset: usize,
    /// Added to every reported completion count.
    pub completed_offset: usize,
    /// The full logical batch size reported in place of the sub-batch's.
    pub total: usize,
}

impl BatchObserver for OffsetObserver<'_> {
    fn task_completed(&self, index: usize, completed: usize, total: usize) {
        debug_assert!(self.completed_offset + total <= self.total);
        self.inner.task_completed(
            self.index_offset + index,
            self.completed_offset + completed,
            self.total,
        );
    }
}

impl ExecutionPolicy {
    /// Like [`ExecutionPolicy::try_map_indexed`], reporting each completed task
    /// to `observer`. The observer never influences results — outputs stay in
    /// input order and error selection stays lowest-index-deterministic — it
    /// only exposes batch progress (the Monte-Carlo replicate loop of a
    /// long-running analysis engine surfaces it as per-replicate progress).
    ///
    /// Tasks skipped by the early-stop path after a failure are not reported,
    /// so `completed` may never reach `total` on a failing batch.
    pub fn try_map_indexed_observed<T, O, E, F>(
        &self,
        items: &[T],
        task: F,
        observer: &dyn BatchObserver,
    ) -> Result<Vec<O>, E>
    where
        T: Sync,
        O: Send,
        E: Send,
        F: Fn(usize, &T) -> Result<O, E> + Sync,
    {
        let total = items.len();
        let completed = AtomicUsize::new(0);
        self.try_map_indexed(items, |i, item| {
            let result = task(i, item);
            let done = completed.fetch_add(1, Ordering::Relaxed) + 1;
            observer.task_completed(i, done, total);
            result
        })
    }
}

/// Shared state of one [`ExecutionPolicy::run_tasks`] invocation: the pending
/// frames plus the number currently executing (needed for termination — an
/// empty queue is not "done" while a running task may still push children).
struct TaskState<T> {
    queue: VecDeque<T>,
    in_flight: usize,
}

/// Handle onto the dynamic task set of a [`ExecutionPolicy::run_tasks`] batch,
/// passed to every task. A task may [`TaskQueue::push`] new frames at any
/// point; idle workers pick them up. [`TaskQueue::pending`] lets a task decide
/// between recursing inline (cheap, no frame allocation) and splitting work
/// off for hungry siblings.
pub struct TaskQueue<'a, T> {
    state: &'a Mutex<TaskState<T>>,
    available: &'a Condvar,
}

impl<T> TaskQueue<'_, T> {
    /// Enqueue a new task frame for any worker (possibly the caller itself,
    /// later) to execute.
    pub fn push(&self, task: T) {
        let mut state = match self.state.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        };
        state.queue.push_back(task);
        drop(state);
        self.available.notify_one();
    }

    /// Number of frames currently queued (excluding those executing). A small
    /// value means workers are about to go hungry — a good moment to split.
    pub fn pending(&self) -> usize {
        match self.state.lock() {
            Ok(guard) => guard.queue.len(),
            Err(poisoned) => poisoned.into_inner().queue.len(),
        }
    }
}

/// Decrements `in_flight` and wakes waiting workers when a task finishes —
/// including by panic, so a crashed task never leaves siblings blocked on the
/// condition variable waiting for an `in_flight` that will not drain.
struct InFlightGuard<'a, T> {
    state: &'a Mutex<TaskState<T>>,
    available: &'a Condvar,
}

impl<T> Drop for InFlightGuard<'_, T> {
    fn drop(&mut self) {
        let mut state = match self.state.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        };
        state.in_flight -= 1;
        // Workers only sleep while the queue is empty with frames in flight;
        // pushes wake them, so a completion matters to a sleeper only when it
        // is the batch's last (termination). Skipping the wake otherwise keeps
        // a hot drain from ping-ponging every finished frame through futexes.
        let wake = state.in_flight == 0 && state.queue.is_empty();
        drop(state);
        if wake {
            self.available.notify_all();
        }
    }
}

/// One worker draining the shared task queue until it is empty *and* nothing
/// is in flight (running tasks may still push). Returns the concatenation of
/// this worker's task outputs in execution order.
fn run_tasks_worker<T, O, F>(state: &Mutex<TaskState<T>>, available: &Condvar, task: &F) -> Vec<O>
where
    F: Fn(T, &TaskQueue<'_, T>) -> Vec<O>,
{
    let mut outputs = Vec::new();
    loop {
        let next = {
            // A poisoned queue mutex means a sibling worker panicked mid-task;
            // the task set is incomplete, so propagating the panic (failing the
            // whole run_tasks call) is the correct outcome.
            let mut guard = state.lock().unwrap();
            loop {
                if let Some(frame) = guard.queue.pop_front() {
                    guard.in_flight += 1;
                    break Some(frame);
                }
                if guard.in_flight == 0 {
                    break None;
                }
                guard = available.wait(guard).unwrap();
            }
        };
        let Some(frame) = next else {
            // Queue empty and nothing running: no task can appear anymore.
            available.notify_all();
            break;
        };
        let guard = InFlightGuard { state, available };
        let queue = TaskQueue { state, available };
        outputs.extend(task(frame, &queue));
        drop(guard);
    }
    outputs
}

impl ExecutionPolicy {
    /// Execute a **dynamic** set of tasks: start from `seeds`, let every task
    /// push follow-up frames through the supplied [`TaskQueue`], and collect
    /// the concatenation of all task outputs. This is the primitive for
    /// irregular tree-shaped work — a depth-first miner fanning item subtrees
    /// out across workers — where [`ExecutionPolicy::map_indexed`]'s static
    /// batch shape does not fit.
    ///
    /// Scheduling is a shared FIFO deque: workers claim the oldest pending
    /// frame, run it (during which it may push children), and block on a
    /// condition variable only when the queue is empty while frames are still
    /// in flight. The batch terminates when the queue is empty *and* nothing
    /// is running. A panicking task propagates to the caller after the
    /// remaining workers drain.
    ///
    /// Ordering contract: under `Sequential` the outputs are deterministic
    /// (seeds in order, pushed frames appended FIFO). Under `Rayon` the
    /// concatenation order depends on scheduling — callers needing a canonical
    /// result must impose one (the parallel Eclat sorts canonically, which is
    /// also what makes its output bit-identical at any worker count).
    pub fn run_tasks<T, O, F>(&self, seeds: Vec<T>, task: F) -> Vec<O>
    where
        T: Send,
        O: Send,
        F: Fn(T, &TaskQueue<'_, T>) -> Vec<O> + Sync,
    {
        if seeds.is_empty() {
            return Vec::new();
        }
        let workers = self.worker_threads();
        let state = Mutex::new(TaskState {
            queue: VecDeque::from(seeds),
            in_flight: 0,
        });
        let available = Condvar::new();
        if workers <= 1 {
            return run_tasks_worker(&state, &available, &task);
        }
        let mut shards: Vec<Vec<O>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| scope.spawn(|| run_tasks_worker(&state, &available, &task)))
                .collect();
            handles
                .into_iter()
                .map(|handle| match handle.join() {
                    Ok(outputs) => outputs,
                    Err(payload) => std::panic::resume_unwind(payload),
                })
                .collect()
        });
        shards.drain(..).flatten().collect()
    }
}

/// Execution policies serialize as a tagged map so analysis configurations can
/// be archived: `{"mode": "sequential"}` or `{"mode": "rayon", "threads": 8}`.
impl Serialize for ExecutionPolicy {
    fn to_value(&self) -> Value {
        match *self {
            ExecutionPolicy::Sequential => {
                Value::Map(vec![("mode".into(), Value::Str("sequential".into()))])
            }
            ExecutionPolicy::Rayon { threads } => Value::Map(vec![
                ("mode".into(), Value::Str("rayon".into())),
                ("threads".into(), Value::U64(threads as u64)),
            ]),
        }
    }
}

impl Deserialize for ExecutionPolicy {
    fn from_value(value: &Value) -> Result<Self, SerdeError> {
        let mode = value
            .get_field("mode")
            .ok_or_else(|| SerdeError::missing_field("ExecutionPolicy", "mode"))?
            .as_str()?
            .to_owned();
        match mode.as_str() {
            "sequential" => Ok(ExecutionPolicy::Sequential),
            "rayon" => {
                let threads = match value.get_field("threads") {
                    Some(v) => v.as_u64()? as usize,
                    None => 0,
                };
                Ok(ExecutionPolicy::Rayon { threads })
            }
            other => Err(SerdeError::unknown_variant("ExecutionPolicy", other)),
        }
    }
}

/// SplitMix64 finalizer: bijective 64-bit mixing.
#[inline]
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The RNG for task `index` of the batch keyed by `seed`.
///
/// Every `(seed, index)` pair addresses an independent ChaCha12 keystream: the
/// seed selects the cipher key, the index selects the 64-bit stream (nonce).
/// The stream a task sees therefore depends only on these two values — never on
/// thread count, scheduling, or sibling tasks — which is what makes parallel
/// Monte-Carlo runs bit-identical to sequential ones.
pub fn substream(seed: u64, index: u64) -> ChaCha12Rng {
    let mut rng = ChaCha12Rng::seed_from_u64(seed);
    // Mix the index so that numerically adjacent batch keys and indices do not
    // produce systematically related (key, nonce) pairs.
    rng.set_stream(mix64(index.wrapping_add(0x9E37_79B9_7F4A_7C15)));
    rng
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn from_threads_mapping() {
        assert_eq!(
            ExecutionPolicy::from_threads(1),
            ExecutionPolicy::Sequential
        );
        assert_eq!(
            ExecutionPolicy::from_threads(0),
            ExecutionPolicy::Rayon { threads: 0 }
        );
        assert_eq!(
            ExecutionPolicy::from_threads(4),
            ExecutionPolicy::Rayon { threads: 4 }
        );
        assert_eq!(
            ExecutionPolicy::default(),
            ExecutionPolicy::Rayon { threads: 0 }
        );
    }

    #[test]
    fn worker_threads_resolves_the_zero_convention() {
        assert_eq!(ExecutionPolicy::Sequential.worker_threads(), 1);
        assert_eq!(ExecutionPolicy::rayon(4).worker_threads(), 4);
        // 0 resolves to the machine's available parallelism, which is ≥ 1.
        assert!(ExecutionPolicy::rayon(0).worker_threads() >= 1);
    }

    #[test]
    fn map_indexed_is_order_stable_across_policies() {
        let items: Vec<u64> = (0..257).collect();
        let task = |i: usize, &x: &u64| {
            assert_eq!(i as u64, x);
            substream(7, i as u64).random::<u64>()
        };
        let sequential = ExecutionPolicy::Sequential.map_indexed(&items, task);
        for threads in [1, 2, 3, 8] {
            assert_eq!(
                ExecutionPolicy::rayon(threads).map_indexed(&items, task),
                sequential,
                "threads = {threads}"
            );
        }
    }

    #[test]
    fn try_map_returns_lowest_indexed_error() {
        let items: Vec<u64> = (0..64).collect();
        let result = ExecutionPolicy::rayon(8).try_map_indexed(&items, |i, _| {
            if i % 10 == 3 {
                Err(i)
            } else {
                Ok(i * 2)
            }
        });
        assert_eq!(result, Err(3));
        let ok = ExecutionPolicy::Sequential.try_map_indexed(&items, |i, _| Ok::<_, ()>(i));
        assert_eq!(ok.unwrap().len(), 64);
    }

    #[test]
    fn try_map_stops_claiming_after_a_failure() {
        use std::sync::atomic::AtomicUsize;
        // With one worker, tasks after the failing index must not run at all.
        let items: Vec<u64> = (0..1000).collect();
        let executed = AtomicUsize::new(0);
        let result = ExecutionPolicy::rayon(1).try_map_indexed(&items, |i, _| {
            executed.fetch_add(1, Ordering::Relaxed);
            if i == 5 {
                Err("boom")
            } else {
                Ok(i)
            }
        });
        assert_eq!(result, Err("boom"));
        let ran = executed.load(Ordering::Relaxed);
        assert!(ran < 1000, "all {ran} tasks ran despite an early failure");
        // The same error is selected at every worker count, and a multi-error
        // batch still reports the lowest-indexed error.
        for threads in [2, 8] {
            let result = ExecutionPolicy::rayon(threads).try_map_indexed(&items, |i, _| {
                if i == 700 || i == 5 {
                    Err(i)
                } else {
                    Ok(i)
                }
            });
            assert_eq!(result, Err(5), "threads = {threads}");
        }
    }

    #[test]
    fn observed_batches_report_every_task_exactly_once() {
        use std::sync::Mutex;
        struct Recorder {
            events: Mutex<Vec<(usize, usize, usize)>>,
        }
        impl BatchObserver for Recorder {
            fn task_completed(&self, index: usize, completed: usize, total: usize) {
                self.events.lock().unwrap().push((index, completed, total));
            }
        }

        let items: Vec<u64> = (0..40).collect();
        for policy in [ExecutionPolicy::Sequential, ExecutionPolicy::rayon(4)] {
            let recorder = Recorder {
                events: Mutex::new(Vec::new()),
            };
            let out = policy
                .try_map_indexed_observed(
                    &items,
                    |i, _| Ok::<_, ()>(substream(3, i as u64).random::<u64>()),
                    &recorder,
                )
                .unwrap();
            // Results are unaffected by observation.
            assert_eq!(
                out,
                ExecutionPolicy::Sequential
                    .try_map_indexed(&items, |i, _| Ok::<_, ()>(
                        substream(3, i as u64).random::<u64>()
                    ))
                    .unwrap()
            );
            let events = recorder.events.into_inner().unwrap();
            assert_eq!(events.len(), items.len(), "{policy:?}");
            // Every index reported exactly once, every total correct, and the
            // completed counts are a permutation of 1..=n.
            let mut indices: Vec<usize> = events.iter().map(|e| e.0).collect();
            let mut counts: Vec<usize> = events.iter().map(|e| e.1).collect();
            indices.sort_unstable();
            counts.sort_unstable();
            assert_eq!(indices, (0..items.len()).collect::<Vec<_>>());
            assert_eq!(counts, (1..=items.len()).collect::<Vec<_>>());
            assert!(events.iter().all(|e| e.2 == items.len()));
        }
        // The no-op observer is usable as a default.
        let ok = ExecutionPolicy::Sequential.try_map_indexed_observed(
            &items,
            |i, _| Ok::<_, ()>(i),
            &NoopObserver,
        );
        assert_eq!(ok.unwrap().len(), items.len());
    }

    #[test]
    fn offset_observer_reframes_a_tail_batch() {
        use std::sync::Mutex;
        struct Recorder {
            events: Mutex<Vec<(usize, usize, usize)>>,
        }
        impl BatchObserver for Recorder {
            fn task_completed(&self, index: usize, completed: usize, total: usize) {
                self.events.lock().unwrap().push((index, completed, total));
            }
        }
        // A logical batch of 10 where the first 6 were served from a cache:
        // the tail of 4 runs, but the recorder sees positions 6..10 completing
        // as the 7th..10th of 10.
        let recorder = Recorder {
            events: Mutex::new(Vec::new()),
        };
        let tail: Vec<u64> = (6..10).collect();
        let offset = OffsetObserver {
            inner: &recorder,
            index_offset: 6,
            completed_offset: 6,
            total: 10,
        };
        ExecutionPolicy::Sequential
            .try_map_indexed_observed(&tail, |_, &v| Ok::<_, ()>(v), &offset)
            .unwrap();
        let events = recorder.events.into_inner().unwrap();
        assert_eq!(
            events,
            vec![(6, 7, 10), (7, 8, 10), (8, 9, 10), (9, 10, 10)]
        );
    }

    #[test]
    fn run_tasks_executes_static_seeds() {
        // No dynamic spawning: every policy produces the same multiset; the
        // sequential arm is deterministically in seed order.
        let seeds: Vec<u64> = (0..40).collect();
        let sequential =
            ExecutionPolicy::Sequential.run_tasks(seeds.clone(), |x, _| vec![x * 3, x * 3 + 1]);
        assert_eq!(
            sequential,
            (0..40).flat_map(|x| [x * 3, x * 3 + 1]).collect::<Vec<_>>()
        );
        for threads in [1, 2, 8] {
            let mut out = ExecutionPolicy::rayon(threads)
                .run_tasks(seeds.clone(), |x, _| vec![x * 3, x * 3 + 1]);
            out.sort_unstable();
            let mut expected = sequential.clone();
            expected.sort_unstable();
            assert_eq!(out, expected, "threads = {threads}");
        }
        // Empty seed sets are a no-op.
        assert_eq!(
            ExecutionPolicy::rayon(4).run_tasks(Vec::<u64>::new(), |x, _| vec![x]),
            Vec::<u64>::new()
        );
    }

    #[test]
    fn run_tasks_dynamic_splitting_reaches_every_leaf() {
        // Recursive range splitting: a task either splits its range in half
        // (pushing both halves) or emits its leaf values. The set of leaves is
        // policy-independent even though the frame schedule is not.
        let task = |(lo, hi): (u64, u64), queue: &TaskQueue<'_, (u64, u64)>| {
            if hi - lo > 4 {
                let mid = lo + (hi - lo) / 2;
                queue.push((lo, mid));
                queue.push((mid, hi));
                Vec::new()
            } else {
                (lo..hi).collect()
            }
        };
        let mut reference = ExecutionPolicy::Sequential.run_tasks(vec![(0u64, 1000u64)], task);
        reference.sort_unstable();
        assert_eq!(reference, (0..1000).collect::<Vec<_>>());
        for threads in [2, 8] {
            let mut out = ExecutionPolicy::rayon(threads).run_tasks(vec![(0u64, 1000u64)], task);
            out.sort_unstable();
            assert_eq!(out, reference, "threads = {threads}");
        }
    }

    #[test]
    fn run_tasks_pending_is_observable() {
        // Seeding 8 frames and never spawning: the first task already sees at
        // most 7 pending (its own frame is in flight, not queued).
        let seeds: Vec<u64> = (0..8).collect();
        let out = ExecutionPolicy::Sequential.run_tasks(seeds, |x, queue| {
            assert!(queue.pending() < 8);
            vec![x]
        });
        assert_eq!(out.len(), 8);
    }

    #[test]
    #[should_panic(expected = "frame failed")]
    fn run_tasks_panics_propagate() {
        let seeds: Vec<u64> = (0..16).collect();
        let _ = ExecutionPolicy::rayon(2).run_tasks(seeds, |x, _| {
            if x == 11 {
                panic!("frame failed");
            }
            vec![x]
        });
    }

    #[test]
    fn substreams_are_deterministic_and_pairwise_distinct() {
        let a: Vec<u64> = {
            let mut rng = substream(5, 17);
            (0..8).map(|_| rng.random()).collect()
        };
        let b: Vec<u64> = {
            let mut rng = substream(5, 17);
            (0..8).map(|_| rng.random()).collect()
        };
        assert_eq!(a, b);
        // Different indices and different seeds give different streams.
        let c: Vec<u64> = {
            let mut rng = substream(5, 18);
            (0..8).map(|_| rng.random()).collect()
        };
        let d: Vec<u64> = {
            let mut rng = substream(6, 17);
            (0..8).map(|_| rng.random()).collect()
        };
        assert_ne!(a, c);
        assert_ne!(a, d);
    }

    #[test]
    fn policy_serde_round_trip() {
        for policy in [
            ExecutionPolicy::Sequential,
            ExecutionPolicy::Rayon { threads: 0 },
            ExecutionPolicy::Rayon { threads: 8 },
        ] {
            let value = policy.to_value();
            assert_eq!(ExecutionPolicy::from_value(&value).unwrap(), policy);
        }
        assert!(ExecutionPolicy::from_value(&Value::Null).is_err());
    }
}
