//! Persistent worker pool for kernel parallelism.
//!
//! Every parallel kernel in this crate (row-split matmuls, the batched
//! PagedAttention decode kernel, tensor-parallel worker phases) used to
//! spawn scoped OS threads per call, paying thread create/teardown on every
//! layer of every step. This module replaces those with a pool of
//! long-lived threads and a [`WorkerPool::scoped`] API that mirrors
//! `std::thread::scope`: tasks may borrow from the caller's stack, and the
//! scope blocks until every spawned task has completed before returning.
//!
//! The pool size honors the `VLLM_NUM_THREADS` environment variable (read
//! through [`vllm_core::Env`]) and falls back to
//! [`std::thread::available_parallelism`]. A process-wide
//! pool is shared by all executors (see [`global`]); independent pools can
//! be created for tests.
//!
//! Scheduling is help-first: a thread waiting on its scope drains the
//! shared queue instead of parking, so nested `scoped` calls from inside a
//! pool task cannot deadlock, and a pool configured with one thread simply
//! runs every task inline on the caller.

use std::collections::VecDeque;
use std::marker::PhantomData;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// Environment variable naming the kernel thread count.
pub const NUM_THREADS_ENV: &str = vllm_core::env::NUM_THREADS;

/// A type-erased unit of work. Lifetimes are erased when a task is
/// enqueued; soundness is restored by the scope blocking until all of its
/// tasks have run (see [`WorkerPool::scoped`]).
type Job = Box<dyn FnOnce() + Send + 'static>;

/// State shared between the pool's threads and scope waiters.
struct Shared {
    queue: Mutex<VecDeque<Job>>,
    /// Signals pool threads that work (or shutdown) is available.
    job_cv: Condvar,
    shutdown: AtomicBool,
}

impl std::fmt::Debug for Shared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shared")
            .field("shutdown", &self.shutdown)
            .finish_non_exhaustive()
    }
}

/// Completion tracking for one `scoped` call.
struct ScopeState {
    /// Tasks spawned but not yet finished.
    pending: Mutex<usize>,
    /// Signaled when `pending` reaches zero.
    done_cv: Condvar,
    /// First panic payload observed in a task of this scope.
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

impl ScopeState {
    fn new() -> Self {
        Self {
            pending: Mutex::new(0),
            done_cv: Condvar::new(),
            panic: Mutex::new(None),
        }
    }

    /// Marks one task finished, recording its panic payload if any.
    fn complete(&self, panic: Option<Box<dyn std::any::Any + Send>>) {
        if let Some(p) = panic {
            self.panic.lock().unwrap().get_or_insert(p);
        }
        let mut pending = self.pending.lock().unwrap();
        *pending -= 1;
        if *pending == 0 {
            self.done_cv.notify_all();
        }
    }
}

/// A pool of persistent kernel worker threads.
#[derive(Debug)]
pub struct WorkerPool {
    shared: Arc<Shared>,
    /// Background threads (the caller of `scoped` acts as one more worker).
    handles: Vec<std::thread::JoinHandle<()>>,
}

/// Spawn handle passed to the closure of [`WorkerPool::scoped`].
///
/// The `'env` lifetime is invariant (as in `std::thread::scope`): spawned
/// tasks may borrow anything that outlives the `scoped` call.
pub struct Scope<'env> {
    pool: &'env WorkerPool,
    state: Arc<ScopeState>,
    _invariant: PhantomData<&'env mut &'env ()>,
}

impl std::fmt::Debug for Scope<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scope").finish_non_exhaustive()
    }
}

impl<'env> Scope<'env> {
    /// Enqueues `f` for execution by the pool. Returns immediately; the
    /// surrounding [`WorkerPool::scoped`] call joins it.
    pub fn spawn<F>(&self, f: F)
    where
        F: FnOnce() + Send + 'env,
    {
        *self.state.pending.lock().unwrap() += 1;
        let state = Arc::clone(&self.state);
        let job: Box<dyn FnOnce() + Send + 'env> = Box::new(move || {
            let result = catch_unwind(AssertUnwindSafe(f));
            state.complete(result.err());
        });
        // SAFETY: only the lifetime is erased. `scoped` (via `ScopeGuard`)
        // blocks until `pending` reaches zero, so every borrow captured by
        // `f` strictly outlives the job's execution.
        let job: Job = unsafe {
            std::mem::transmute::<Box<dyn FnOnce() + Send + 'env>, Box<dyn FnOnce() + Send>>(job)
        };
        self.pool.push(job);
    }
}

/// Joins a scope's tasks even if the scope closure unwinds.
struct ScopeGuard<'a> {
    pool: &'a WorkerPool,
    state: &'a Arc<ScopeState>,
}

impl Drop for ScopeGuard<'_> {
    fn drop(&mut self) {
        self.pool.wait(self.state);
    }
}

impl WorkerPool {
    /// Creates a pool with `threads` total workers (the thread calling
    /// [`WorkerPool::scoped`] counts as one: `threads == 1` means no
    /// background threads and inline execution).
    #[must_use]
    pub fn new(threads: usize) -> Self {
        let shared = Arc::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            job_cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
        });
        let background = threads.max(1) - 1;
        let handles = (0..background)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("vllm-kernel-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn pool worker")
            })
            .collect();
        Self { shared, handles }
    }

    /// Total worker count, including the calling thread.
    #[must_use]
    pub fn parallelism(&self) -> usize {
        self.handles.len() + 1
    }

    /// Runs `f` with a [`Scope`] whose spawned tasks may borrow from the
    /// caller's stack; blocks until every spawned task completes.
    ///
    /// The calling thread helps drain the queue while waiting, so nested
    /// `scoped` calls from inside a task make progress instead of
    /// deadlocking.
    ///
    /// # Panics
    ///
    /// Re-raises the first panic observed in a spawned task (after all
    /// tasks have completed), matching `std::thread::scope` semantics.
    pub fn scoped<'env, F, R>(&'env self, f: F) -> R
    where
        F: FnOnce(&Scope<'env>) -> R,
    {
        let state = Arc::new(ScopeState::new());
        let scope = Scope {
            pool: self,
            state: Arc::clone(&state),
            _invariant: PhantomData,
        };
        let result = {
            let _guard = ScopeGuard {
                pool: self,
                state: &state,
            };
            f(&scope)
            // Guard drops here: joins all tasks before any borrow ends.
        };
        if let Some(payload) = state.panic.lock().unwrap().take() {
            resume_unwind(payload);
        }
        result
    }

    fn push(&self, job: Job) {
        self.shared.queue.lock().unwrap().push_back(job);
        self.shared.job_cv.notify_one();
    }

    /// Blocks until `state.pending == 0`, executing queued jobs while
    /// waiting (help-first scheduling).
    fn wait(&self, state: &ScopeState) {
        loop {
            // Drain whatever is runnable. Jobs may belong to other scopes;
            // executing them is still productive and never blocks. The pop
            // is a standalone statement so the queue guard is released
            // before the job runs (a `while let` scrutinee would hold it).
            let job = self.shared.queue.lock().unwrap().pop_front();
            if let Some(job) = job {
                job();
                continue;
            }
            let pending = state.pending.lock().unwrap();
            if *pending == 0 {
                return;
            }
            // The queue was empty at the check above, so all of this
            // scope's remaining tasks are running on other threads; their
            // completions signal `done_cv`.
            let _unused = state
                .done_cv
                .wait_timeout(pending, std::time::Duration::from_millis(1))
                .unwrap();
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Raised under the queue lock: a worker is then either before its
        // check (and sees the flag) or already parked (and gets the
        // notification) — never in between, where the wake-up would be lost
        // and the join below would hang.
        {
            let _queue = self.shared.queue.lock().unwrap_or_else(|e| e.into_inner());
            self.shared.shutdown.store(true, Ordering::SeqCst);
        }
        self.shared.job_cv.notify_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let job = {
            let mut queue = shared.queue.lock().unwrap();
            loop {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                if let Some(job) = queue.pop_front() {
                    break job;
                }
                queue = shared.job_cv.wait(queue).unwrap();
            }
        };
        job();
    }
}

/// Thread count from `VLLM_NUM_THREADS`, falling back to the machine's
/// available parallelism (minimum 1).
///
/// # Panics
///
/// Panics if a `VLLM_*` variable is malformed (see [`vllm_core::env`]).
#[must_use]
pub fn configured_threads() -> usize {
    vllm_core::Env::global().num_threads.unwrap_or_else(|| {
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    })
}

/// The process-wide kernel pool, created on first use.
pub fn global() -> &'static WorkerPool {
    static GLOBAL: OnceLock<WorkerPool> = OnceLock::new();
    GLOBAL.get_or_init(|| WorkerPool::new(configured_threads()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn scoped_runs_all_tasks_with_borrows() {
        let pool = WorkerPool::new(4);
        let mut data = vec![0u64; 64];
        pool.scoped(|s| {
            for (i, chunk) in data.chunks_mut(8).enumerate() {
                s.spawn(move || {
                    for (j, v) in chunk.iter_mut().enumerate() {
                        *v = (i * 8 + j) as u64;
                    }
                });
            }
        });
        let expect: Vec<u64> = (0..64).collect();
        assert_eq!(data, expect);
    }

    #[test]
    fn single_thread_pool_runs_inline() {
        let pool = WorkerPool::new(1);
        assert_eq!(pool.parallelism(), 1);
        let counter = AtomicUsize::new(0);
        pool.scoped(|s| {
            for _ in 0..10 {
                s.spawn(|| {
                    counter.fetch_add(1, Ordering::SeqCst);
                });
            }
        });
        assert_eq!(counter.load(Ordering::SeqCst), 10);
    }

    #[test]
    fn nested_scopes_do_not_deadlock() {
        let pool = WorkerPool::new(2);
        let total = AtomicUsize::new(0);
        pool.scoped(|outer| {
            for _ in 0..4 {
                outer.spawn(|| {
                    pool.scoped(|inner| {
                        for _ in 0..4 {
                            inner.spawn(|| {
                                total.fetch_add(1, Ordering::SeqCst);
                            });
                        }
                    });
                });
            }
        });
        assert_eq!(total.load(Ordering::SeqCst), 16);
    }

    #[test]
    fn concurrent_scopes_from_many_threads() {
        let pool = Arc::new(WorkerPool::new(3));
        let total = Arc::new(AtomicUsize::new(0));
        let mut joins = Vec::new();
        for _ in 0..4 {
            let pool = Arc::clone(&pool);
            let total = Arc::clone(&total);
            joins.push(std::thread::spawn(move || {
                for _ in 0..20 {
                    pool.scoped(|s| {
                        for _ in 0..5 {
                            s.spawn(|| {
                                total.fetch_add(1, Ordering::SeqCst);
                            });
                        }
                    });
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        assert_eq!(total.load(Ordering::SeqCst), 4 * 20 * 5);
    }

    #[test]
    fn task_panic_propagates_with_payload() {
        let pool = WorkerPool::new(2);
        let err = catch_unwind(AssertUnwindSafe(|| {
            pool.scoped(|s| {
                s.spawn(|| panic!("kernel exploded"));
                s.spawn(|| {}); // Sibling tasks still complete.
            });
        }))
        .unwrap_err();
        let msg = err
            .downcast_ref::<&str>()
            .copied()
            .map(String::from)
            .or_else(|| err.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(msg.contains("kernel exploded"), "payload preserved: {msg}");
    }

    #[test]
    fn pools_dropped_right_after_use_always_join() {
        // Dropping races the workers' way back to their condvar wait; a
        // shutdown flag raised outside the queue lock loses the wake-up now
        // and then and the join never returns.
        for _ in 0..2000 {
            let pool = WorkerPool::new(3);
            let hits = AtomicUsize::new(0);
            pool.scoped(|s| {
                for _ in 0..3 {
                    s.spawn(|| {
                        hits.fetch_add(1, Ordering::SeqCst);
                    });
                }
            });
            assert_eq!(hits.load(Ordering::SeqCst), 3);
        }
    }

    #[test]
    fn configured_threads_is_at_least_one() {
        // The global pool may already be initialized by other tests, so
        // don't touch it here.
        assert!(configured_threads() >= 1);
    }
}
