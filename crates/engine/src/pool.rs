//! The sharded, self-healing worker pool.
//!
//! Plain `std::thread` workers, one bounded [`sync_channel`] queue per
//! shard. Submission picks a shard from the task's key and **blocks** when
//! that shard's queue is full — bounded queues are the engine's
//! backpressure: a caller enqueuing a ten-thousand-job batch is throttled to
//! roughly `workers × queue_cap` outstanding tasks instead of materializing
//! every closure up front.
//!
//! Deadlock-freedom rests on two rules the engine upholds:
//!
//! 1. only *caller* threads submit — a worker never enqueues onto the pool,
//!    so a full queue cannot block the thread that would drain it;
//! 2. a worker only ever blocks on a [`cache::Gate`](crate::cache) whose
//!    owner is *running* on another worker (gates are created by the task
//!    that fills them, never by queued work), so waits are bounded by one
//!    computation, not by queue position.
//!
//! Workers run each task under `catch_unwind`: a panicking task must not
//! take its whole shard down with it. (Engine tasks additionally contain
//! panics themselves and report them as typed errors; the pool-level catch
//! is the backstop.)
//!
//! # Supervision
//!
//! A worker thread itself can still die — most deliberately via the
//! [`FaultPoint::WorkerPanic`] chaos seam, which kills the worker *between*
//! tasks. Each worker carries a drop guard that notices the unwind and
//! spawns a replacement over the same shard receiver, so pool capacity
//! never degrades permanently. The doomed task is stashed in the shard's
//! `pending` slot before the panic and the replacement runs it first
//! (without re-polling the panic seam), so **no submitted task is ever
//! lost** — even under a 100% worker-panic fault rate, every task runs
//! exactly once per delivery.
//!
//! The [`FaultPoint::QueueDelay`] seam injects artificial latency at the
//! dequeue, exercising backpressure and deadline paths under slow workers.

use fdi_core::faults::{FaultAction, FaultInjector, FaultPoint};
use fdi_telemetry::MetricsRegistry;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

pub(crate) type Task = Box<dyn FnOnce() + Send>;

/// What a worker (and its replacements) needs to serve one shard.
struct ShardState {
    /// The shard's queue. Only the shard's single live worker receives, but
    /// the mutex makes the replacement handover race-free.
    rx: Mutex<Receiver<Task>>,
    /// A task rescued from a panicking worker; the replacement runs it
    /// before touching the queue.
    pending: Mutex<Option<Task>>,
}

/// Everything shared by the pool and its respawn guards.
struct Supervisor {
    injector: Arc<FaultInjector>,
    /// Where respawns are counted.
    metrics: Arc<MetricsRegistry>,
    /// Join handles for every live (or not-yet-joined) worker, replacements
    /// included. The pool's drop pops until empty.
    handles: Mutex<Vec<JoinHandle<()>>>,
}

/// A fixed set of worker shards, each owning one bounded task queue and
/// exactly one live worker thread.
pub(crate) struct Pool {
    senders: Vec<SyncSender<Task>>,
    supervisor: Arc<Supervisor>,
}

impl Pool {
    /// Spawns `workers` threads, each with a `queue_cap`-slot queue, with
    /// chaos disabled.
    #[cfg(test)]
    pub(crate) fn new(workers: usize, queue_cap: usize) -> Pool {
        Pool::with_chaos(
            workers,
            queue_cap,
            Arc::new(FaultInjector::disabled()),
            Arc::new(MetricsRegistry::new()),
        )
    }

    /// [`Pool::new`] with the engine's shared fault injector (worker-panic
    /// and queue-delay seams) and metrics registry (respawns are counted in
    /// it).
    pub(crate) fn with_chaos(
        workers: usize,
        queue_cap: usize,
        injector: Arc<FaultInjector>,
        metrics: Arc<MetricsRegistry>,
    ) -> Pool {
        let workers = workers.max(1);
        let queue_cap = queue_cap.max(1);
        let supervisor = Arc::new(Supervisor {
            injector,
            metrics,
            handles: Mutex::new(Vec::with_capacity(workers)),
        });
        let mut senders = Vec::with_capacity(workers);
        for i in 0..workers {
            let (tx, rx) = sync_channel::<Task>(queue_cap);
            senders.push(tx);
            let shard = Arc::new(ShardState {
                rx: Mutex::new(rx),
                pending: Mutex::new(None),
            });
            let handle = spawn_worker(i, shard, supervisor.clone());
            supervisor.handles.lock().unwrap().push(handle);
        }
        Pool {
            senders,
            supervisor,
        }
    }

    /// Number of worker shards (one live worker each).
    pub(crate) fn workers(&self) -> usize {
        self.senders.len()
    }

    /// Enqueues `task` on the shard chosen by `shard_key`, blocking while
    /// that shard's queue is full.
    pub(crate) fn submit(&self, shard_key: u64, task: Task) {
        let shard = (shard_key % self.senders.len() as u64) as usize;
        self.senders[shard]
            .send(task)
            .expect("engine worker exited");
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        // Closing the channels lets each worker drain its remaining queue
        // and exit; queued tasks still run, so gates handed out for
        // already-submitted work are always filled. Workers that panic while
        // draining respawn and push a new handle, hence pop-until-empty
        // rather than a single drain pass.
        self.senders.clear();
        loop {
            let handle = self.supervisor.handles.lock().unwrap().pop();
            match handle {
                Some(h) => {
                    let _ = h.join();
                }
                None => break,
            }
        }
    }
}

/// Respawns the worker if its thread unwinds (the pool-level catch means
/// that only happens via the worker-panic chaos seam, or a bug).
struct RespawnOnPanic {
    index: usize,
    shard: Arc<ShardState>,
    supervisor: Arc<Supervisor>,
}

impl Drop for RespawnOnPanic {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.supervisor.metrics.add("engine.workers_respawned", 1);
            let handle = spawn_worker(self.index, self.shard.clone(), self.supervisor.clone());
            self.supervisor.handles.lock().unwrap().push(handle);
        }
    }
}

fn spawn_worker(
    index: usize,
    shard: Arc<ShardState>,
    supervisor: Arc<Supervisor>,
) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name(format!("fdi-engine-{index}"))
        .spawn(move || {
            let guard = RespawnOnPanic {
                index,
                shard: shard.clone(),
                supervisor: supervisor.clone(),
            };
            worker_loop(&shard, &supervisor.injector);
            // Clean exit: the queue closed. Disarm by forgetting nothing —
            // the guard only acts when the thread is panicking.
            drop(guard);
        })
        .expect("spawn engine worker")
}

fn worker_loop(shard: &ShardState, injector: &FaultInjector) {
    loop {
        // A task rescued from a panicked predecessor runs first and
        // unconditionally: re-polling the panic seam on it could starve the
        // task forever under a 100% fault rate.
        let (task, rescued) = match shard.pending.lock().unwrap().take() {
            Some(t) => (t, true),
            None => {
                let rx = shard.rx.lock().unwrap();
                match rx.recv() {
                    Ok(t) => (t, false),
                    Err(_) => return, // queue closed: clean shutdown
                }
            }
        };
        if !rescued {
            if let Some(action) = injector.poll(FaultPoint::QueueDelay) {
                let d = match action {
                    FaultAction::Latency(d) => d,
                    _ => Duration::from_micros(300),
                };
                std::thread::sleep(d);
            }
            if injector.poll(FaultPoint::WorkerPanic).is_some() {
                // Stash the task first: the replacement spawned by the drop
                // guard picks it up, so the panic loses nothing.
                *shard.pending.lock().unwrap() = Some(task);
                panic!("injected fault at worker-panic");
            }
        }
        let _ = catch_unwind(AssertUnwindSafe(task));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fdi_core::faults::FaultPlan;
    use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

    #[test]
    fn runs_every_task_across_shards() {
        let pool = Pool::new(4, 2);
        let ran = Arc::new(AtomicU64::new(0));
        for key in 0..64u64 {
            let ran = ran.clone();
            pool.submit(
                key,
                Box::new(move || {
                    ran.fetch_add(1, Relaxed);
                }),
            );
        }
        drop(pool); // joins: every queued task has run
        assert_eq!(ran.load(Relaxed), 64);
    }

    #[test]
    fn panicking_task_does_not_kill_its_shard() {
        let pool = Pool::new(1, 4);
        pool.submit(0, Box::new(|| panic!("task exploded")));
        let ran = Arc::new(AtomicU64::new(0));
        let ran2 = ran.clone();
        pool.submit(
            0,
            Box::new(move || {
                ran2.fetch_add(1, Relaxed);
            }),
        );
        drop(pool);
        assert_eq!(ran.load(Relaxed), 1, "same shard still serves tasks");
    }

    #[test]
    fn zero_workers_clamps_to_one() {
        let pool = Pool::new(0, 0);
        assert_eq!(pool.workers(), 1);
        let ran = Arc::new(AtomicU64::new(0));
        let ran2 = ran.clone();
        pool.submit(
            17,
            Box::new(move || {
                ran2.fetch_add(1, Relaxed);
            }),
        );
        drop(pool);
        assert_eq!(ran.load(Relaxed), 1);
    }

    #[test]
    fn worker_panic_respawns_and_loses_no_task() {
        // Every dequeue kills the worker — the harshest possible schedule.
        // Each task must still run exactly once, via rescue + respawn.
        let injector = Arc::new(FaultInjector::new(FaultPlan::only(
            7,
            &[FaultPoint::WorkerPanic],
        )));
        let metrics = Arc::new(MetricsRegistry::new());
        let pool = Pool::with_chaos(2, 4, injector, metrics.clone());
        let ran = Arc::new(AtomicU64::new(0));
        for key in 0..16u64 {
            let ran = ran.clone();
            pool.submit(
                key,
                Box::new(move || {
                    ran.fetch_add(1, Relaxed);
                }),
            );
        }
        drop(pool);
        assert_eq!(ran.load(Relaxed), 16, "no task lost to worker panics");
        assert_eq!(
            metrics.counter_total("engine.workers_respawned"),
            16,
            "one respawn per delivered task at 100% fault rate"
        );
    }

    #[test]
    fn queue_delay_only_slows_things_down() {
        let injector = Arc::new(FaultInjector::new(FaultPlan::only(
            11,
            &[FaultPoint::QueueDelay],
        )));
        let pool = Pool::with_chaos(1, 4, injector, Arc::new(MetricsRegistry::new()));
        let ran = Arc::new(AtomicU64::new(0));
        for _ in 0..8 {
            let ran = ran.clone();
            pool.submit(
                0,
                Box::new(move || {
                    ran.fetch_add(1, Relaxed);
                }),
            );
        }
        drop(pool);
        assert_eq!(ran.load(Relaxed), 8);
    }
}
