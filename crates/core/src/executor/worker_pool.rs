//! The persistent worker threads executions fan out over.

use crate::error::Error;
use crate::sync::lock_unpoisoned;
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

type Job = Box<dyn FnOnce() + Send + 'static>;

/// Run `work`, turning a panic inside it into a typed
/// [`Error::ExecutionPanic`] — the one panic boundary of the executor. The
/// pool's threads run every job under it (a panicking job must not take a
/// long-lived, shared thread down), and the fan-out runs each worker's
/// sweep under it so an injected or real panic fails only that execution.
pub(super) fn contain_panic<T>(work: impl FnOnce() -> T) -> Result<T, Error> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(work)).map_err(Error::from_panic)
}

/// A persistent pool of worker threads.
///
/// Threads are spawned once and block on a shared queue; submitting a job
/// costs one channel send instead of a thread spawn. Dropping the pool closes
/// the queue and joins every worker.
pub struct WorkerPool {
    sender: Option<mpsc::Sender<Job>>,
    handles: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool").field("threads", &self.handles.len()).finish()
    }
}

impl WorkerPool {
    /// Spawn a pool with `threads` workers (at least one).
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let (sender, receiver) = mpsc::channel::<Job>();
        let receiver = Arc::new(Mutex::new(receiver));
        let handles = (0..threads)
            .map(|_| {
                let receiver = Arc::clone(&receiver);
                std::thread::spawn(move || loop {
                    // Take the next job while holding the lock, run it after
                    // releasing so other workers can dequeue concurrently.
                    // The receiver stays usable even if a sibling worker
                    // panicked while holding the lock (`recv` itself cannot
                    // unwind, but the uniform policy costs nothing here).
                    let job = lock_unpoisoned(&receiver).recv();
                    match job {
                        // The panicked execution observes the failure
                        // through its dropped result channel.
                        Ok(job) => {
                            let _ = contain_panic(job);
                        }
                        Err(_) => break, // queue closed: pool is shutting down
                    }
                })
            })
            .collect();
        Self { sender: Some(sender), handles }
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.handles.len()
    }

    /// Enqueue a job. Jobs run in submission order as workers become free.
    pub fn submit(&self, job: Job) {
        self.sender
            .as_ref()
            .expect("worker pool already shut down")
            .send(job)
            .expect("worker pool threads terminated");
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        drop(self.sender.take()); // close the queue, workers drain and exit
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worker_pool_runs_submitted_jobs() {
        let pool = WorkerPool::new(3);
        assert_eq!(pool.threads(), 3);
        let (tx, rx) = mpsc::channel();
        for i in 0..10usize {
            let tx = tx.clone();
            pool.submit(Box::new(move || {
                let _ = tx.send(i * i);
            }));
        }
        drop(tx);
        let mut results: Vec<usize> = rx.iter().collect();
        results.sort_unstable();
        assert_eq!(results, (0..10).map(|i| i * i).collect::<Vec<_>>());
    }
}
