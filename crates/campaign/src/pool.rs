//! Panic-isolating parallel task pool shared by campaigns and the
//! experiment binaries.

use rayon::prelude::*;

/// Best-effort rendering of a panic payload.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

/// Run an arbitrary task list in parallel, turning any panic inside a
/// worker into an `Err` prefixed by `label(task)`.
///
/// The vendored rayon (like upstream) propagates a worker panic at the
/// scope join, which tears the whole process down mid-table with an
/// unhelpful backtrace — and, worse, a binary that already printed
/// partial results can look like it succeeded. Catching the unwind
/// *inside* the closure keeps every other task running and lets the
/// caller report the failure and exit nonzero deliberately.
pub fn try_tasks<T, R, F, L>(tasks: &[T], run: F, label: L) -> Result<Vec<R>, String>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
    L: Fn(&T) -> String + Sync,
{
    let outcomes: Vec<Result<R, String>> = tasks
        .par_iter()
        .map(|t| {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run(t)))
                .map_err(|payload| format!("{}: {}", label(t), panic_message(payload)))
        })
        .collect();
    outcomes.into_iter().collect()
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
    fn a_panicking_task_becomes_a_labeled_error() {
        let tasks = vec![1u64, 2, 3];
        let err = try_tasks(
            &tasks,
            |&t| {
                if t == 2 {
                    panic!("boom {t}");
                }
                t
            },
            |t| format!("task {t}"),
        )
        .expect_err("task 2 panics");
        assert!(err.contains("task 2"), "{err}");
        assert!(err.contains("boom 2"), "{err}");
    }
}
