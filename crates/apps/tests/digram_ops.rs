//! Count gate on the grammar builder's work: digram-index operations per
//! event ([`GrammarBuilder::digram_ops`]), which the loop cursor keeps near
//! zero on steady loops. A count, not a timing, so it reads the same on
//! any machine.

mod common;

use pythia_apps::{all_apps, WorkingSet};
use pythia_core::event::EventId;
use pythia_core::grammar::builder::GrammarBuilder;

/// Digram operations per event of `streams` pushed through fresh builders.
fn ops_per_event(streams: &[Vec<EventId>]) -> f64 {
    let (mut ops, mut events) = (0u64, 0usize);
    for stream in streams {
        let mut b = GrammarBuilder::new();
        for &e in stream {
            b.push(e);
        }
        ops += b.digram_ops();
        events += stream.len();
    }
    ops as f64 / events as f64
}

/// Operations per event before the cursor re-engaged at iteration
/// boundaries and phase offsets, by app: 1 rank small, 1 rank large,
/// 8 ranks small, 8 ranks large.
const BEFORE: [(&str, [f64; 4]); 13] = [
    ("BT", [1.12, 0.18, 1.53, 0.24]),
    ("CG", [0.10, 0.03, 1.13, 0.38]),
    ("EP", [1.60, 1.60, 1.60, 1.60]),
    ("FT", [2.00, 0.70, 2.00, 0.70]),
    ("IS", [1.26, 1.26, 1.26, 1.26]),
    ("LU", [6.50, 2.20, 5.36, 1.24]),
    ("MG", [0.36, 0.06, 1.22, 0.21]),
    ("SP", [9.24, 15.66, 9.16, 2.14]),
    ("AMG", [6.09, 3.05, 6.87, 4.04]),
    ("Lulesh", [24.13, 26.36, 29.35, 31.80]),
    ("Kripke", [12.39, 4.03, 14.97, 4.15]),
    ("miniFE", [2.55, 0.90, 3.21, 1.13]),
    ("Quicksilver", [3.54, 1.46, 8.53, 9.01]),
];

#[test]
fn apps_stay_within_their_digram_budget() {
    let mut over = Vec::new();
    for (app, (name, before)) in all_apps().iter().zip(BEFORE) {
        assert_eq!(app.name(), name);
        let shapes = [
            (1, WorkingSet::Small),
            (1, WorkingSet::Large),
            (8, WorkingSet::Small),
            (8, WorkingSet::Large),
        ];
        for ((ranks, ws), before) in shapes.into_iter().zip(before) {
            let got = ops_per_event(&common::rank_streams(app.as_ref(), ranks, ws));
            let steady_loop = matches!(name, "Lulesh" | "SP") && ws == WorkingSet::Large;
            let bound = if steady_loop {
                3.0
            } else {
                1.25 * before + 0.25
            };
            if got > bound {
                over.push(format!(
                    "{name} {ranks} ranks {}: {got:.2} ops/event > {bound:.2}",
                    ws.label()
                ));
            }
        }
    }
    assert!(over.is_empty(), "{}", over.join("\n"));
}

/// `[0, 1]`, then 30 iterations of `m^a 20 [21] m^b [30]` with `m` the
/// ids `10..10 + len`.
fn nested_loop(len: u32, a: usize, b: usize, two: bool, end: bool) -> Vec<EventId> {
    let m: Vec<u32> = (10..10 + len).collect();
    let mut s = vec![0, 1];
    for _ in 0..30 {
        s.extend(m.repeat(a));
        s.push(20);
        if two {
            s.push(21);
        }
        s.extend(m.repeat(b));
        if end {
            s.push(30);
        }
    }
    s.into_iter().map(EventId).collect()
}

/// 2176 nested-loop shapes. Re-engaging the cursor after every mismatch
/// rides some of them out of phase at up to 18 operations per event;
/// the gate holds the mean, the count above 3 and the worst shape.
#[test]
fn nested_loop_sweep_stays_cheap() {
    let mut costs = Vec::new();
    for len in 1..=4 {
        for a in 1..=8 {
            for b in 0..=16 {
                for two in [false, true] {
                    for end in [false, true] {
                        let stream = nested_loop(len, a, b, two, end);
                        let cost = ops_per_event(&[stream]);
                        costs.push((cost, format!("len {len} a {a} b {b} two {two} end {end}")));
                    }
                }
            }
        }
    }
    assert_eq!(costs.len(), 2176);
    let mean = costs.iter().map(|c| c.0).sum::<f64>() / costs.len() as f64;
    let above_3 = costs.iter().filter(|c| c.0 > 3.0).count();
    let worst = costs
        .iter()
        .max_by(|x, y| x.0.total_cmp(&y.0))
        .expect("non-empty sweep");
    assert!(mean <= 1.0, "sweep mean {mean:.2} ops/event");
    assert!(above_3 <= 100, "{above_3} shapes above 3 ops/event");
    assert!(worst.0 <= 15.0, "{}: {:.2} ops/event", worst.1, worst.0);
}
