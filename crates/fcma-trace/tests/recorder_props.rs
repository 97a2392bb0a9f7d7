//! Property test for the flight log's eviction contract: after any
//! number of records, from 1, 2, or 8 threads sharing one log, a
//! snapshot holds **exactly** the newest `min(written, CAPACITY)`
//! events, oldest first, with contiguous sequence numbers and
//! non-decreasing timestamps.

use fcma_trace::recorder::{EventKind, FlightLog, CAPACITY};
use fcma_trace::{TraceCtx, TraceOrigin};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn log_window_is_exact_across_thread_counts(
        per_thread in 0usize..400,   // 8 × 399 runs well past CAPACITY
        thread_sel in 0usize..3,     // index into the {1, 2, 8} thread ladder
    ) {
        let threads = [1usize, 2, 8][thread_sel];
        let log = FlightLog::new();
        std::thread::scope(|s| {
            for t in 0..threads {
                let log = log.clone();
                s.spawn(move || {
                    for i in (0u64..).take(per_thread) {
                        let ctx = TraceCtx::new(i, 0, TraceOrigin::Dispatch);
                        log.record(EventKind::Dispatch, ctx, t);
                    }
                });
            }
        });
        let total = threads * per_thread;
        let kept = total.min(CAPACITY);
        let events = log.snapshot();
        prop_assert_eq!(events.len(), kept);
        let first = u64::try_from(total - kept).unwrap_or(u64::MAX);
        for (seq, e) in (first..).zip(&events) {
            prop_assert_eq!(e.seq, seq, "sequence numbers are contiguous, oldest first");
        }
        prop_assert!(events.windows(2).all(|w| w[0].ts_ns <= w[1].ts_ns), "log order is time order");
        // Each writer's own events survive in the order it wrote them.
        for t in 0..threads {
            let mine: Vec<u64> = events.iter().filter(|e| e.arg == t).map(|e| e.ctx.task).collect();
            prop_assert!(mine.windows(2).all(|w| w[0] < w[1]), "thread {}: {:?}", t, mine);
        }
    }
}
