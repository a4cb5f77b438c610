//! The batch-executor thread pool.
//!
//! Moved here from `dta-bench`'s experiment module (it used to be
//! re-implemented next to every sweep): a minimal scoped-thread,
//! atomic work-stealing map that every grid submitted to the service is
//! scheduled onto. Sweep points are independent jobs, so plain index
//! stealing is enough — no queues, no channels.
//!
//! Panic isolation: each item runs under `catch_unwind`, so one
//! panicking item yields a per-item failure while the worker survives
//! and the rest of the batch completes ([`try_par_map_with`]).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Renders a `catch_unwind` payload as text (panics carry `&str` or
/// `String` in practice; anything else gets a placeholder).
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Maps `f` over `items` on `threads` scoped workers (atomic
/// work-stealing), returning per-item results in input order. An item
/// whose `f` panics yields `Err(panic message)` for that item only —
/// the worker survives and every other item still completes.
/// `threads <= 1` degrades to a plain sequential map (with the same
/// per-item isolation).
pub fn try_par_map_with<I, O, F>(threads: usize, items: &[I], f: F) -> Vec<Result<O, String>>
where
    I: Sync,
    O: Send,
    F: Fn(&I) -> O + Sync,
{
    let guarded =
        |item: &I| catch_unwind(AssertUnwindSafe(|| f(item))).map_err(|p| panic_message(&*p));
    let threads = threads.min(items.len());
    if threads <= 1 {
        return items.iter().map(guarded).collect();
    }
    let next = AtomicUsize::new(0);
    let mut tagged: Vec<(usize, Result<O, String>)> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                s.spawn(|| {
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(i) else { break };
                        out.push((i, guarded(item)));
                    }
                    out
                })
            })
            .collect();
        workers
            .into_iter()
            // The worker body cannot panic (items are caught above), so
            // a join failure here is unreachable in practice.
            .flat_map(|w| w.join().expect("pool worker died outside an item"))
            .collect()
    });
    tagged.sort_by_key(|&(i, _)| i);
    tagged.into_iter().map(|(_, o)| o).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        let items: Vec<usize> = (0..100).collect();
        for threads in [1, 4, 7] {
            let out = try_par_map_with(threads, &items, |&i| i * 2);
            assert_eq!(out, (0..100).map(|i| Ok(i * 2)).collect::<Vec<_>>());
        }
    }

    #[test]
    fn handles_empty_and_single() {
        assert!(try_par_map_with::<u32, u32, _>(4, &[], |&i| i).is_empty());
        assert_eq!(try_par_map_with(4, &[9], |&i: &u32| i + 1), vec![Ok(10)]);
    }

    #[test]
    fn one_panicking_item_does_not_abort_the_batch() {
        let items: Vec<usize> = (0..32).collect();
        for threads in [1, 4] {
            let out = try_par_map_with(threads, &items, |&i| {
                if i == 13 {
                    panic!("injected item panic");
                }
                i * 3
            });
            assert_eq!(out.len(), 32);
            for (i, r) in out.iter().enumerate() {
                if i == 13 {
                    assert_eq!(
                        r.as_ref().err().map(String::as_str),
                        Some("injected item panic")
                    );
                } else {
                    assert_eq!(r.as_ref().ok(), Some(&(i * 3)));
                }
            }
        }
    }

    #[test]
    fn panic_messages_render_str_and_string() {
        let out = try_par_map_with(2, &[0u32, 1], |&i| {
            if i == 0 {
                panic!("static str");
            } else {
                panic!("formatted {i}");
            }
        });
        assert_eq!(
            out[0].as_ref().err().map(String::as_str),
            Some("static str")
        );
        assert_eq!(
            out[1].as_ref().err().map(String::as_str),
            Some("formatted 1")
        );
    }
}
