//! Property-based tests for the simulation substrate.

use greengpu_sim::{EventQueue, Pcg32, SimDuration, SimTime, SplitMix64, StepTrace};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn event_queue_pops_in_nondecreasing_time_order(times in proptest::collection::vec(0u64..1_000_000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime::from_micros(t), i);
        }
        let mut last = SimTime::ZERO;
        let mut count = 0;
        while let Some((at, _)) = q.pop() {
            prop_assert!(at >= last, "events out of order");
            last = at;
            count += 1;
        }
        prop_assert_eq!(count, times.len());
    }

    #[test]
    fn event_queue_ties_preserve_fifo(n in 1usize..100) {
        let mut q = EventQueue::new();
        let t = SimTime::from_micros(42);
        for i in 0..n {
            q.schedule(t, i);
        }
        let order: Vec<usize> = std::iter::from_fn(|| q.pop().map(|(_, p)| p)).collect();
        prop_assert_eq!(order, (0..n).collect::<Vec<_>>());
    }

    #[test]
    fn event_queue_cancellation_removes_exactly_the_cancelled(
        times in proptest::collection::vec(0u64..10_000, 1..100),
        cancel_mask in proptest::collection::vec(any::<bool>(), 1..100),
    ) {
        let mut q = EventQueue::new();
        let handles: Vec<_> = times.iter().enumerate()
            .map(|(i, &t)| (i, q.schedule(SimTime::from_micros(t), i)))
            .collect();
        let mut cancelled = std::collections::HashSet::new();
        for ((i, h), &c) in handles.iter().zip(cancel_mask.iter().cycle()) {
            if c {
                prop_assert!(q.cancel(*h));
                cancelled.insert(*i);
            }
        }
        let mut seen = std::collections::HashSet::new();
        while let Some((_, p)) = q.pop() {
            prop_assert!(!cancelled.contains(&p), "cancelled event {p} surfaced");
            seen.insert(p);
        }
        prop_assert_eq!(seen.len(), times.len() - cancelled.len());
    }

    #[test]
    fn step_trace_integral_is_additive(points in proptest::collection::vec((0u64..1_000_000, 0.0..500.0f64), 1..50),
                                       split in 0u64..1_000_000) {
        let mut sorted = points;
        sorted.sort_by_key(|&(t, _)| t);
        sorted.dedup_by_key(|&mut (t, _)| t);
        let mut trace = StepTrace::with_initial(1.0);
        for &(t, v) in &sorted {
            trace.set(SimTime::from_micros(t), v);
        }
        let end = SimTime::from_micros(2_000_000);
        let mid = SimTime::from_micros(split);
        let whole = trace.integral(SimTime::ZERO, end);
        let parts = trace.integral(SimTime::ZERO, mid) + trace.integral(mid, end);
        prop_assert!((whole - parts).abs() < 1e-6, "integral not additive: {whole} vs {parts}");
    }

    #[test]
    fn step_trace_integral_bounded_by_extremes(points in proptest::collection::vec((0u64..1_000_000, 0.0..500.0f64), 1..50)) {
        let mut sorted = points;
        sorted.sort_by_key(|&(t, _)| t);
        sorted.dedup_by_key(|&mut (t, _)| t);
        let mut trace = StepTrace::with_initial(100.0);
        let mut lo: f64 = 100.0;
        let mut hi: f64 = 100.0;
        for &(t, v) in &sorted {
            trace.set(SimTime::from_micros(t), v);
            lo = lo.min(v);
            hi = hi.max(v);
        }
        let span = SimTime::from_micros(1_500_000);
        let integral = trace.integral(SimTime::ZERO, span);
        let secs = span.as_secs_f64();
        prop_assert!(integral >= lo * secs - 1e-9 && integral <= hi * secs + 1e-9);
    }

    #[test]
    fn step_trace_mean_matches_sampling_limit(v1 in 0.0..100.0f64, v2 in 0.0..100.0f64,
                                              switch_s in 1u64..9) {
        let mut trace = StepTrace::with_initial(v1);
        trace.set(SimTime::from_secs(switch_s), v2);
        let end = SimTime::from_secs(10);
        let mean = trace.mean(SimTime::ZERO, end);
        let expected = (v1 * switch_s as f64 + v2 * (10 - switch_s) as f64) / 10.0;
        prop_assert!((mean - expected).abs() < 1e-9);
    }

    #[test]
    fn pcg_streams_are_reproducible_and_distinct(seed in any::<u64>()) {
        let mut a = Pcg32::new(seed, 1);
        let mut b = Pcg32::new(seed, 1);
        let mut c = Pcg32::new(seed, 2);
        let mut same_stream_equal = true;
        let mut cross_stream_equal = true;
        for _ in 0..32 {
            let (x, y, z) = (a.next_u32(), b.next_u32(), c.next_u32());
            same_stream_equal &= x == y;
            cross_stream_equal &= x == z;
        }
        prop_assert!(same_stream_equal);
        prop_assert!(!cross_stream_equal);
    }

    #[test]
    fn pcg_below_is_always_in_range(seed in any::<u64>(), bound in 1u32..10_000) {
        let mut rng = Pcg32::seeded(seed);
        for _ in 0..100 {
            prop_assert!(rng.below(bound) < bound);
        }
    }

    #[test]
    fn splitmix_child_seeds_are_distinct(seed in any::<u64>()) {
        let mut sm = SplitMix64::new(seed);
        let children: Vec<u64> = (0..16).map(|_| sm.child_seed()).collect();
        let unique: std::collections::HashSet<_> = children.iter().collect();
        prop_assert_eq!(unique.len(), children.len());
    }

    #[test]
    fn sim_time_arithmetic_round_trips(a in 0u64..u32::MAX as u64, b in 0u64..u32::MAX as u64) {
        let t = SimTime::from_micros(a) + SimDuration::from_micros(b);
        prop_assert_eq!(t - SimDuration::from_micros(b), SimTime::from_micros(a));
        prop_assert_eq!(t - SimTime::from_micros(a), SimDuration::from_micros(b));
    }

    #[test]
    fn duration_secs_round_trip_within_micro(secs in 0.0..100_000.0f64) {
        let d = SimDuration::from_secs_f64(secs);
        prop_assert!((d.as_secs_f64() - secs).abs() <= 5e-7);
    }
}

/// Reference integral: the same per-segment terms as
/// `StepTrace::integral`, summed in the same order, but found by a scan
/// from the first breakpoint.
fn scan_integral(points: &[(SimTime, f64)], from: SimTime, to: SimTime) -> f64 {
    if to <= from || points.is_empty() {
        return 0.0;
    }
    let mut acc = 0.0;
    for (i, &(t_i, v_i)) in points.iter().enumerate() {
        let seg_start = t_i.max(from);
        let seg_end = points.get(i + 1).map_or(to, |&(t_next, _)| t_next.min(to));
        if seg_end > seg_start {
            acc += v_i * (seg_end - seg_start).as_secs_f64();
        }
        if t_i >= to {
            break;
        }
    }
    acc
}

/// Reference point query: the last breakpoint at or before `at`, by scan.
fn scan_value_at(points: &[(SimTime, f64)], at: SimTime) -> f64 {
    points.iter().rev().find(|&&(t, _)| t <= at).map_or(0.0, |&(_, v)| v)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Window queries found by the tail-anchored search equal a full
    /// scan bit for bit: windows that start before the first point, on a
    /// breakpoint or one microsecond either side of it, with zero length,
    /// at the tail, and far from the tail of a long trace.
    #[test]
    fn step_trace_window_queries_equal_a_full_scan(
        steps in proptest::collection::vec((1u64..50_000, 0.0..500.0f64), 1..300),
        lens in proptest::collection::vec(0u64..3_000_000, 4..5),
    ) {
        let mut trace = StepTrace::new();
        let mut t = 0u64;
        for &(dt, v) in &steps {
            t += dt;
            trace.set(SimTime::from_micros(t), v);
        }
        let points: Vec<(SimTime, f64)> = trace.points().collect();
        let last = points.last().map_or(0, |&(t, _)| t.as_micros());
        let mut starts = vec![0, last + 1, last + 1_000_000];
        for &(bp, _) in &points {
            let us = bp.as_micros();
            starts.extend([us.saturating_sub(1), us, us + 1]);
        }
        for &from_us in &starts {
            let from = SimTime::from_micros(from_us);
            prop_assert_eq!(trace.value_at(from).to_bits(), scan_value_at(&points, from).to_bits(), "value_at({})", from_us);
            for &len in std::iter::once(&0).chain(&lens) {
                let to = SimTime::from_micros(from_us + len);
                let want = scan_integral(&points, from, to);
                prop_assert_eq!(trace.integral(from, to).to_bits(), want.to_bits(), "integral({}, +{})", from_us, len);
                let span = to.saturating_since(from).as_secs_f64();
                let want_mean = if len == 0 { 0.0 } else { want / span };
                prop_assert_eq!(trace.mean(from, to).to_bits(), want_mean.to_bits(), "mean({}, +{})", from_us, len);
            }
        }
    }
}
