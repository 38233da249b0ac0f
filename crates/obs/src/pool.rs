//! The workspace's one worker pool, [`ObsRegistry::parallel_map`], used by
//! the design-space sweep (one index per point) and the batched OMP decode
//! (one index per frame). It lives here because the caller's wait is a
//! telemetry question: it is child time, not the waiting span's self time.

use std::sync::atomic::{AtomicUsize, Ordering};

use crate::registry::{charge_open_span, ObsRegistry};

impl ObsRegistry {
    /// Maps `f` over `0..len` on `threads.clamp(1, len)` scoped workers (none
    /// when `len == 0`) and returns the results in index order. Each worker
    /// builds its state with `init` once and reuses it for every index it
    /// claims from a shared counter, which balances uneven item costs.
    ///
    /// The caller's wait for the join is timed on this registry's clock and
    /// added as child time to the caller's open span, so that span's self
    /// time is its own set-up and merge only.
    ///
    /// # Panics
    ///
    /// Re-raises a worker's panic on the caller once every worker has joined.
    pub fn parallel_map<S, T: Send>(
        &self,
        threads: usize,
        len: usize,
        init: impl Fn() -> S + Sync,
        f: impl Fn(&mut S, usize) -> T + Sync,
    ) -> Vec<T> {
        if len == 0 {
            return Vec::new();
        }
        let next = AtomicUsize::new(0);
        let worker = || {
            let mut state = init();
            std::iter::repeat_with(|| next.fetch_add(1, Ordering::Relaxed))
                .take_while(|&i| i < len)
                .map(|i| (i, f(&mut state, i)))
                .collect::<Vec<_>>()
        };
        let wait_start_ns = self.now_ns();
        let joined: Vec<_> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads.clamp(1, len))
                .map(|_| scope.spawn(worker))
                .collect();
            handles.into_iter().map(|h| h.join()).collect()
        });
        charge_open_span(self.now_ns().saturating_sub(wait_start_ns));
        let mut indexed = Vec::with_capacity(len);
        for local in joined {
            indexed.extend(local.unwrap_or_else(|payload| std::panic::resume_unwind(payload)));
        }
        indexed.sort_unstable_by_key(|&(i, _)| i);
        indexed.into_iter().map(|(_, v)| v).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::Clock;
    use std::sync::atomic::AtomicU64;
    use std::sync::Arc;

    #[test]
    fn maps_in_index_order_with_one_state_per_worker() {
        let reg = ObsRegistry::new();
        for threads in [1, 2, 3, 8] {
            for len in [0, 1, 5, 64] {
                let init_count = AtomicUsize::new(0);
                // State: (worker id, items this worker has mapped so far).
                let got = reg.parallel_map(
                    threads,
                    len,
                    || (init_count.fetch_add(1, Ordering::Relaxed), 0),
                    |(id, seen), i| {
                        *seen += 1;
                        (i * i + 1, *id, *seen)
                    },
                );
                assert!(got.iter().map(|t| t.0).eq((0..len).map(|i| i * i + 1)));
                // No worker for len 0; otherwise each worker inits once.
                let workers = threads.min(len);
                assert_eq!(init_count.load(Ordering::Relaxed), workers);
                // A worker claims rising indices, so its reused state counts
                // 1, 2, … along its items in index order.
                for id in 0..workers {
                    let seen = got.iter().filter(|t| t.1 == id).map(|t| t.2);
                    assert!(seen.enumerate().all(|(k, n)| n == k + 1), "worker {id}");
                }
            }
        }
    }

    #[test]
    fn worker_panic_reaches_the_caller_with_its_payload() {
        let reg = ObsRegistry::new();
        let payload = std::panic::catch_unwind(|| {
            reg.parallel_map(
                2,
                8,
                || (),
                |(), i| assert!(i != 5, "point {i}: model panicked"),
            )
        })
        .expect_err("the worker panic propagates");
        let message = payload.downcast_ref::<String>().map(String::as_str);
        assert_eq!(message, Some("point 5: model panicked"));
    }

    /// A clock that stands still until a worker advances it.
    #[derive(Debug, Default)]
    struct ManualClock(AtomicU64);

    impl Clock for ManualClock {
        fn now_ns(&self) -> u64 {
            self.0.load(Ordering::SeqCst)
        }
    }

    #[test]
    fn join_wait_is_child_time_of_the_enclosing_span() {
        let clock = Arc::new(ManualClock::default());
        let reg = ObsRegistry::new();
        reg.set_clock(clock.clone());
        {
            let _outer = reg.span("outer");
            reg.parallel_map(
                3,
                10,
                || (),
                |(), _| clock.0.fetch_add(100, Ordering::SeqCst),
            );
        }
        let snap = reg.snapshot();
        let outer = snap.span("outer").expect("outer recorded");
        assert_eq!(outer.total_ns, 1_000, "the span covers the workers' time");
        assert_eq!(outer.self_ns, 0, "waiting on workers is not self time");
    }
}
