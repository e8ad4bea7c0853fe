//! Work-stealing task scheduler for the mining stages.
//!
//! One pool serves every fan-out dimension of the pipeline: tasks are
//! whatever the caller makes them — a grouping pattern's whole walk, one
//! lattice level's candidate chunk — and every worker pulls the next
//! ready task from a single shared queue regardless of which pattern it
//! belongs to. This replaces the previous pair of mutually exclusive
//! pools (cross-pattern *or* within-level, never both), which stranded
//! cores on skewed workloads where one giant pattern dominated the
//! candidate count. Every worker count runs the same task loop; the
//! calling thread is always one of its workers, and a lone worker
//! spawns without touching the condvar.
//!
//! Determinism is the caller's contract, and the scheduler is designed so
//! it is easy to keep: tasks may complete in any order, so callers stage
//! results into index-addressed slots ([`ChunkSlots`]) and merge them in
//! (pattern, level, candidate) order. Nothing about scheduling order can
//! then leak into the output — summaries are bit-identical to the serial
//! path at any worker count.
//!
//! Oversubscription is prevented structurally rather than by ad-hoc
//! overrides: a [`run_graph`] call that executes *inside* a scheduler
//! worker runs its tasks inline on that worker instead of spawning a
//! second pool, so nested fan-out can never multiply into `cores²`
//! threads; [`workers_for`] is that rule, for callers that size their
//! own fan-out. Auto-resolved worker counts are additionally asserted to
//! never exceed [`available_workers`].
//!
//! Failure model: every task body is unwind-isolated, in the one task
//! loop every worker count runs. A panicking task never poisons the
//! pool — its payload is recorded, every sibling task still runs, all
//! workers drain normally, and the first payload is re-raised to the
//! caller only after the graph has fully completed. Queue locks recover
//! from poison instead of aborting (the protected state is a task queue
//! that stays valid across a caught unwind). [`ChunkSlots::merged`] runs
//! only once every chunk has stored its results, which
//! [`ChunkSlots::complete`] reports, so a merge never meets a missing
//! chunk. Per-run limits and armed fault plans live on
//! [`guard::RunGuard`], whose trips are [`guard::MineError`]s, and
//! [`faults`] names the deterministic faults the chaos suite arms there
//! to drive these paths.

pub mod faults;
pub mod guard;

use std::any::Any;
use std::cell::Cell;
use std::collections::VecDeque;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError, RwLock};

thread_local! {
    /// Set while the current thread is executing scheduler tasks; nested
    /// [`run_graph`] calls observe it and run inline.
    static IN_SCHEDULER: Cell<bool> = const { Cell::new(false) };
}

/// RAII guard marking the current thread as a scheduler worker.
struct WorkerMark {
    prev: bool,
}

impl WorkerMark {
    fn enter() -> Self {
        let prev = IN_SCHEDULER.with(|c| c.replace(true));
        WorkerMark { prev }
    }
}

impl Drop for WorkerMark {
    fn drop(&mut self) {
        let prev = self.prev;
        IN_SCHEDULER.with(|c| c.set(prev));
    }
}

/// Best-effort stringification of a caught panic payload (`&str` and
/// `String` payloads cover `panic!` in practice).
pub fn payload_string(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Lock a mutex, clearing poison. Tasks are unwind-isolated, so a
/// poisoned flag only means a panic was already caught and recorded
/// somewhere — the protected state is still structurally valid, and the
/// panic is reported through its own channel rather than by aborting
/// every later lock site.
pub fn lock_recovered<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// [`lock_recovered`] for `RwLock` read guards.
pub fn read_recovered<T>(l: &RwLock<T>) -> std::sync::RwLockReadGuard<'_, T> {
    l.read().unwrap_or_else(PoisonError::into_inner)
}

/// [`lock_recovered`] for `RwLock` write guards.
pub fn write_recovered<T>(l: &RwLock<T>) -> std::sync::RwLockWriteGuard<'_, T> {
    l.write().unwrap_or_else(PoisonError::into_inner)
}

/// Number of hardware threads available to this process (`1` when the
/// platform cannot report it).
pub fn available_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Whether the current thread is already executing inside a [`run_graph`]
/// pool (in which case further `run_graph` calls run inline).
fn in_scheduler() -> bool {
    IN_SCHEDULER.with(|c| c.get())
}

/// The worker count a [`run_graph`] call with this `threads` knob gets
/// when made from the current thread. `0` = one worker per available
/// core, `n` = exactly `n` (explicit counts are honored verbatim —
/// determinism tests deliberately run more workers than cores to
/// exercise interleavings via time-slicing), except that a call from
/// inside a scheduler worker gets one: it runs inline on that worker.
/// This is the only public resolver, so callers that size their own
/// fan-out — chunk ranges, how many walks to keep live — agree with
/// `run_graph`.
pub fn workers_for(threads: usize) -> usize {
    if in_scheduler() {
        1
    } else if threads == 0 {
        available_workers()
    } else {
        threads
    }
}

/// Split `0..n` into contiguous chunks for fan-out: aims at four chunks
/// per worker (so stealing can rebalance) but never below `min_chunk`
/// items per chunk (so tiny levels do not drown in task overhead).
/// Deterministic in its inputs; chunk boundaries never affect results
/// because callers merge per-item slots by index.
pub fn chunk_ranges(n: usize, workers: usize, min_chunk: usize) -> Vec<Range<usize>> {
    if n == 0 {
        return Vec::new();
    }
    let target_chunks = workers.max(1) * 4;
    let chunk = n.div_ceil(target_chunks).max(min_chunk.max(1));
    (0..n)
        .step_by(chunk)
        .map(|start| start..(start + chunk).min(n))
        .collect()
}

/// Index-addressed result slots for one fan-out: chunk `i` of a level
/// writes its results into slot `i` whenever it happens to finish, and
/// the last chunk to complete merges all slots back in index order. This
/// is the primitive that keeps merged output — and hence floating-point
/// accumulation order downstream — invariant under any task completion
/// interleaving.
pub struct ChunkSlots<R> {
    /// One slot per chunk; each is written once by its chunk and emptied
    /// by the merge, which moves the results out.
    slots: Vec<Mutex<Option<Vec<R>>>>,
    remaining: AtomicUsize,
}

impl<R> ChunkSlots<R> {
    /// Slots for `chunks` fan-out tasks.
    pub fn new(chunks: usize) -> Self {
        ChunkSlots {
            slots: (0..chunks).map(|_| Mutex::new(None)).collect(),
            remaining: AtomicUsize::new(chunks),
        }
    }

    /// Number of chunks.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether there are no chunks at all.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Record chunk `chunk`'s results. Returns `true` exactly once — for
    /// the final chunk to complete — signalling that the caller now owns
    /// the merge step. Panics if a chunk completes twice.
    pub fn complete(&self, chunk: usize, results: Vec<R>) -> bool {
        let prev = lock_recovered(&self.slots[chunk]).replace(results);
        assert!(prev.is_none(), "chunk {chunk} completed twice");
        self.remaining.fetch_sub(1, Ordering::AcqRel) == 1
    }

    /// Move every slot's results out, concatenated in chunk-index order.
    /// Call once, after [`ChunkSlots::complete`] returned `true`: every
    /// chunk has stored its results by then.
    pub fn merged(&self) -> Vec<R> {
        let parts: Vec<Vec<R>> = self
            .slots
            .iter()
            .map(|s| {
                lock_recovered(s)
                    .take()
                    .expect("slots merge only after their last chunk completed")
            })
            .collect();
        let mut merged = Vec::with_capacity(parts.iter().map(Vec::len).sum());
        for part in parts {
            merged.extend(part);
        }
        merged
    }
}

/// Handle tasks use to enqueue follow-up work (the "graph" in
/// [`run_graph`]: a task may spawn any number of successor tasks).
pub struct Spawner<'s, T> {
    shared: &'s Shared<T>,
}

impl<T> Spawner<'_, T> {
    /// Enqueue a task at the back of the graph's FIFO queue, waking one
    /// idle worker when the graph has more than one.
    pub fn spawn(&self, task: T) {
        lock_recovered(&self.shared.state).queue.push_back(task);
        if self.shared.pooled {
            self.shared.cv.notify_one();
        }
    }

    /// Wake every pool worker without enqueuing anything — a spurious
    /// wakeup. The worker loop must treat it as a no-op; the fault
    /// injector uses this to probe for lost-/spurious-wakeup bugs. No-op
    /// on a one-worker graph, which has no one to wake.
    pub fn poke(&self) {
        if self.shared.pooled {
            self.shared.cv.notify_all();
        }
    }
}

struct State<T> {
    queue: VecDeque<T>,
    /// Tasks currently executing in some worker. Termination requires the
    /// queue empty *and* nothing in flight (an in-flight task may still
    /// spawn successors).
    in_flight: usize,
    /// Payload of the first task to panic. The graph keeps running and
    /// re-raises it after the last task completes.
    first_panic: Option<Box<dyn Any + Send>>,
}

struct Shared<T> {
    state: Mutex<State<T>>,
    cv: Condvar,
    /// Whether more than one worker drains the queue. A lone worker never
    /// waits (no other worker can have a task in flight), so spawning on
    /// its graph wakes no one.
    pooled: bool,
}

/// Run a dynamic task graph to completion on `threads` workers
/// (`0` = one per available core — asserted to never exceed
/// [`available_workers`]). `initial` seeds the queue; each task may
/// enqueue successors through the [`Spawner`] it is handed. Returns when
/// every task (including all transitively spawned ones) has finished.
///
/// Every worker count runs the same loop, and the calling thread is one
/// of its workers, so `threads = 1` executes everything on the calling
/// thread in FIFO order — that *is* the serial reference path, not a
/// simulation of it. Calls made from inside a worker get one worker too
/// (see the module docs), which is what makes nested fan-out
/// structurally incapable of oversubscribing.
///
/// Every task body is unwind-isolated: a panic fails only that task,
/// sibling tasks still run, and the first panic payload is re-raised to
/// the caller after the whole graph has drained. Callers that want
/// structured per-task failure instead of a propagated panic (the
/// lattice walk) catch inside their own step closure, where they still
/// know which pattern/level/chunk the task belonged to.
pub fn run_graph<T, F>(threads: usize, initial: Vec<T>, step: F)
where
    T: Send,
    F: Fn(T, &Spawner<'_, T>) + Sync,
{
    let workers = workers_for(threads);
    assert!(
        threads != 0 || workers <= available_workers(),
        "auto-resolved worker count {workers} exceeds available parallelism"
    );
    let shared = Shared {
        state: Mutex::new(State {
            queue: VecDeque::from(initial),
            in_flight: 0,
            first_panic: None,
        }),
        cv: Condvar::new(),
        pooled: workers > 1,
    };
    std::thread::scope(|scope| {
        for _ in 1..workers {
            scope.spawn(|| worker_loop(&shared, &step));
        }
        worker_loop(&shared, &step);
    });
    let state = shared.state.into_inner();
    if let Some(payload) = state.unwrap_or_else(PoisonError::into_inner).first_panic {
        resume_unwind(payload);
    }
}

fn worker_loop<T, F>(shared: &Shared<T>, step: &F)
where
    F: Fn(T, &Spawner<'_, T>),
{
    let _mark = WorkerMark::enter();
    let spawner = Spawner { shared };
    let mut st = lock_recovered(&shared.state);
    loop {
        if let Some(task) = st.queue.pop_front() {
            st.in_flight += 1;
            drop(st);
            let result = catch_unwind(AssertUnwindSafe(|| step(task, &spawner)));
            st = lock_recovered(&shared.state);
            if let Err(payload) = result {
                st.first_panic.get_or_insert(payload);
            }
            st.in_flight -= 1;
        } else if st.in_flight == 0 {
            // The graph is done: wake everyone so they observe it.
            shared.cv.notify_all();
            return;
        } else {
            st = shared.cv.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::Mutex;
    use std::thread::ThreadId;

    #[test]
    fn single_worker_runs_fifo() {
        let order = Mutex::new(Vec::new());
        run_graph(1, vec![0usize, 1, 2], |t, spawn| {
            order.lock().unwrap().push(t);
            if t < 3 {
                spawn.spawn(t + 10);
            }
        });
        // Initial tasks first, spawned tasks appended in spawn order.
        assert_eq!(*order.lock().unwrap(), vec![0, 1, 2, 10, 11, 12]);
    }

    #[test]
    fn pool_executes_all_tasks_and_successors() {
        let seen = Mutex::new(HashSet::new());
        run_graph(4, (0..64usize).collect(), |t, spawn| {
            assert!(seen.lock().unwrap().insert(t), "task {t} ran twice");
            if t < 64 {
                spawn.spawn(t + 64);
            }
        });
        assert_eq!(seen.lock().unwrap().len(), 128);
    }

    /// Satellite regression: nested fan-out must never multiply worker
    /// pools into cores² threads — an inner `run_graph` on a worker runs
    /// inline on that worker, so the only threads alive are the outer
    /// pool's.
    #[test]
    fn nested_run_graph_is_inline() {
        let outer_workers = 4;
        let ids: Mutex<HashSet<ThreadId>> = Mutex::new(HashSet::new());
        run_graph(outer_workers, (0..8usize).collect(), |_t, _spawn| {
            let me = std::thread::current().id();
            ids.lock().unwrap().insert(me);
            assert!(in_scheduler());
            assert_eq!(workers_for(4), 1, "a nested call gets one worker");
            // Nested fan-out: must execute on this same thread.
            run_graph(4, (0..4usize).collect(), |_inner, _| {
                assert_eq!(std::thread::current().id(), me);
                ids.lock().unwrap().insert(std::thread::current().id());
            });
        });
        assert!(
            ids.lock().unwrap().len() <= outer_workers,
            "nested fan-out spawned extra threads: {} > {outer_workers}",
            ids.lock().unwrap().len()
        );
    }

    #[test]
    fn auto_worker_count_stays_within_cores() {
        assert!(workers_for(0) <= available_workers());
        assert_eq!(workers_for(7), 7);
    }

    #[test]
    fn chunk_ranges_partition_exactly() {
        for n in [0usize, 1, 7, 8, 9, 100, 1023] {
            for workers in [1usize, 2, 4, 16] {
                let ranges = chunk_ranges(n, workers, 8);
                let mut covered = 0;
                for r in &ranges {
                    assert_eq!(r.start, covered, "contiguous");
                    assert!(r.end > r.start, "non-empty");
                    covered = r.end;
                }
                assert_eq!(covered, n, "covers 0..{n}");
                for r in &ranges[..ranges.len().saturating_sub(1)] {
                    assert!(r.end - r.start >= 8, "min chunk respected");
                }
            }
        }
    }

    #[test]
    fn chunk_slots_merge_in_index_order_regardless_of_completion() {
        let ranges = chunk_ranges(25, 2, 4);
        let slots: ChunkSlots<usize> = ChunkSlots::new(ranges.len());
        // Complete in reverse order; merge must still be index-ordered.
        let mut last = None;
        for (i, r) in ranges.iter().enumerate().rev() {
            let done = slots.complete(i, r.clone().collect());
            assert_eq!(done, i == 0, "only the final completion reports true");
            if done {
                last = Some(i);
            }
        }
        assert_eq!(last, Some(0));
        assert_eq!(slots.merged(), (0..25).collect::<Vec<_>>());
    }

    #[test]
    fn panicking_task_propagates() {
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_graph(3, (0..16usize).collect(), |t, _| {
                if t == 7 {
                    panic!("boom");
                }
            });
        }));
        assert!(caught.is_err());
    }

    /// Unwind isolation: a panicking task must not stop its siblings —
    /// every other task still runs, the pool drains cleanly, and the
    /// panic is re-raised only after the graph completes.
    #[test]
    fn siblings_complete_despite_panic() {
        let seen = Mutex::new(HashSet::new());
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_graph(3, (0..32usize).collect(), |t, _| {
                if t == 3 {
                    panic!("boom");
                }
                seen.lock().unwrap().insert(t);
            });
        }));
        assert!(caught.is_err());
        assert_eq!(
            seen.lock().unwrap().len(),
            31,
            "all non-panicking tasks ran"
        );
        // The pool is reusable: a fresh graph on the same thread works.
        let n = AtomicUsize::new(0);
        run_graph(3, (0..8usize).collect(), |_, _| {
            n.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(n.load(Ordering::Relaxed), 8);
    }

    /// One worker runs the same loop on the calling thread, with the
    /// same isolation: siblings run in FIFO order, then the panic is
    /// re-raised.
    #[test]
    fn inline_mode_also_isolates_and_repropagates() {
        let seen = Mutex::new(Vec::new());
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_graph(1, vec![0usize, 1, 2], |t, _| {
                if t == 1 {
                    panic!("boom");
                }
                seen.lock().unwrap().push(t);
            });
        }));
        assert!(caught.is_err());
        assert_eq!(*seen.lock().unwrap(), vec![0, 2]);
    }

    #[test]
    fn poke_is_a_harmless_spurious_wakeup() {
        let n = AtomicUsize::new(0);
        run_graph(4, (0..32usize).collect(), |t, spawn| {
            if t % 5 == 0 {
                spawn.poke();
            }
            n.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(n.load(Ordering::Relaxed), 32);
    }

    #[test]
    fn lock_recovered_clears_poison() {
        let m = std::sync::Arc::new(Mutex::new(7usize));
        let m2 = std::sync::Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _g = m2.lock().unwrap();
            panic!("poison it");
        })
        .join();
        assert!(m.is_poisoned());
        assert_eq!(*lock_recovered(&m), 7);
    }
}
