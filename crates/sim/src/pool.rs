//! The workspace's one worker pool: independent tasks — a campaign's
//! cases, a replication's radio-isolated shard groups — spread over
//! `std::thread::scope` workers that take the next task from an atomic
//! cursor, so a long task never leaves a worker idle behind a static split.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;

/// Best-effort rendering of a panic payload.
fn panic_message(payload: Box<dyn Any + Send>) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

/// Run every task, returning the results in task order, or the first error
/// in task order: a task that panics becomes an `Err` prefixed by
/// `label(task)` while every other task still runs, so a caller that
/// already printed partial results reports the failure deliberately rather
/// than being torn down mid-table.
///
/// One worker per available core, capped by the task count: oversubscribing
/// cores would only interleave the tasks and thrash their working sets
/// against each other. With one worker the tasks run inline, back to back.
pub fn try_tasks<T, R, F, L>(tasks: &[T], run: F, label: L) -> Result<Vec<R>, String>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
    L: Fn(&T) -> String + Sync,
{
    let attempt = |t: &T| {
        catch_unwind(AssertUnwindSafe(|| run(t)))
            .map_err(|payload| format!("{}: {}", label(t), panic_message(payload)))
    };
    let workers = thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(tasks.len());
    if workers <= 1 {
        let done: Vec<_> = tasks.iter().map(attempt).collect();
        return done.into_iter().collect();
    }
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<Result<R, String>>> = tasks.iter().map(|_| None).collect();
    thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        // The cursor publishes nothing: results come back
                        // through `join`, which synchronises.
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(t) = tasks.get(i) else { break done };
                        done.push((i, attempt(t)));
                    }
                })
            })
            .collect();
        for h in handles {
            for (i, r) in h.join().unwrap_or_else(|payload| resume_unwind(payload)) {
                slots[i] = Some(r);
            }
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.expect("the cursor hands out every task"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collects_results_in_task_order() {
        let tasks: Vec<u64> = (0..32).collect();
        let out = try_tasks(&tasks, |&t| t * 2, |t| format!("task {t}")).expect("no panics");
        assert_eq!(out, (0..32).map(|t| t * 2).collect::<Vec<_>>());
    }

    #[test]
    fn no_tasks_is_no_results() {
        let out: Vec<u8> = try_tasks(&[] as &[u8], |&t| t, |t| format!("{t}")).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn a_panicking_task_becomes_a_labeled_error() {
        let tasks = vec![1u64, 2, 3, 4];
        let err = try_tasks(
            &tasks,
            |&t| {
                if t % 2 == 0 {
                    panic!("boom {t}");
                }
                t
            },
            |t| format!("task {t}"),
        )
        .expect_err("tasks 2 and 4 panic");
        assert!(
            err.starts_with("task 2: boom 2"),
            "first in task order: {err}"
        );
    }
}
