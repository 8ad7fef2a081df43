//! Golden grammars of the 13 applications: "same stream, same grammar"
//! as a test.
//!
//! Every app is run at 1, 4 and 8 ranks on the small and large working
//! sets with zero compute. Each rank's stream, canonicalized (ids by first
//! appearance), is recorded in memory once and repeated 16 times; each
//! recording is pinned by its rule count and an FNV-1a digest of the
//! compacted grammar with rules renumbered by first appearance in a
//! depth-first walk from the root. Allocation order does not count; any
//! structural change to a grammar does. On a mismatch the actual table is
//! written to the system temp dir.

mod common;

use std::collections::HashMap;

use pythia_apps::{all_apps, WorkingSet};
use pythia_core::event::EventId;
use pythia_core::grammar::{Grammar, RuleId, Symbol};
use pythia_core::record::{RecordConfig, Recorder};

/// 64-bit FNV-1a, defined here so the pin does not depend on std's
/// unspecified `DefaultHasher`.
struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Rules in order of first appearance in a depth-first walk from the root.
fn dfs_order(g: &Grammar) -> Vec<RuleId> {
    fn visit(g: &Grammar, r: RuleId, order: &mut Vec<RuleId>) {
        order.push(r);
        for u in &g.rule(r).body {
            if let Symbol::Rule(c) = u.symbol {
                if !order.contains(&c) {
                    visit(g, c, order);
                }
            }
        }
    }
    let mut order = Vec::new();
    visit(g, g.root(), &mut order);
    order
}

/// FNV-1a over every rule body, rules renumbered by [`dfs_order`].
fn digest(g: &Grammar) -> u64 {
    let order = dfs_order(g);
    let number: HashMap<RuleId, usize> = order.iter().enumerate().map(|(i, &r)| (r, i)).collect();
    let mut hash = Fnv1a::new();
    for &r in &order {
        for u in &g.rule(r).body {
            let (tag, id) = match u.symbol {
                Symbol::Terminal(e) => ('t', e.0 as usize),
                Symbol::Rule(c) => ('r', number[&c]),
            };
            hash.write(format!("{tag}{id}^{} ", u.count).as_bytes());
        }
        hash.write(b";");
    }
    hash.0
}

/// `rules:digest` of `stream` recorded in memory.
fn pin(stream: &[EventId]) -> String {
    let mut rec = Recorder::new(RecordConfig {
        timestamps: false,
        validate: false,
    });
    for &e in stream {
        rec.record_at(e, 0);
    }
    let g = rec.finish_thread().expect("in-memory recorder").grammar;
    format!("{}:{:016x}", g.rule_count(), digest(&g))
}

/// One line per (app, ranks, working set): then `x1/x16` pins per rank.
fn golden_line(app: &dyn pythia_apps::MpiApp, ranks: usize, ws: WorkingSet) -> String {
    let mut line = format!("{} {ranks} {}", app.name(), ws.label());
    for stream in common::rank_streams(app, ranks, ws) {
        let x16 = stream.repeat(16);
        line.push_str(&format!(" {}/{}", pin(&stream), pin(&x16)));
    }
    line
}

#[test]
fn app_grammars_match_golden() {
    let mut actual = String::new();
    for app in all_apps() {
        for ranks in [1, 4, 8] {
            for ws in [WorkingSet::Small, WorkingSet::Large] {
                actual.push_str(&golden_line(app.as_ref(), ranks, ws));
                actual.push('\n');
            }
        }
    }
    let golden = include_str!("golden/app_grammars.txt");
    if actual != golden {
        let path = std::env::temp_dir().join("app_grammars.actual.txt");
        std::fs::write(&path, &actual).unwrap();
        panic!(
            "grammars differ from the golden file; actual written to {}\n{actual}",
            path.display()
        );
    }
}
