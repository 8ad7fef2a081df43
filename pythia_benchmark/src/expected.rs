//! The pinned facts a run is held to (`expected.json`, compiled in): the
//! digest of the generated inputs, and each workload's per-round counts.
//!
//! *Work* counts (events, operations, predictions scored) must match
//! exactly on any seed: a run that did other work is not comparable.
//! *Quality* counts are floors and ceilings: correct predictions may not
//! drop and trace bytes may not grow, while an improvement passes. Only
//! `predict_noisy`'s accuracy depends on the seed; off the default seed it
//! gets [`SEEDED_SLACK`].

use serde_json::Value;

use crate::harness::{RoundOut, Violation};
use crate::inputs::Inputs;
use crate::DEFAULT_SEED;

const EXPECTED: &str = include_str!("../expected.json");

/// How far below the default seed's count a seed-dependent accuracy may
/// fall on another seed (ten seeds spread by 0.4 %).
const SEEDED_SLACK: f64 = 0.02;

fn document() -> Value {
    serde_json::from_str(EXPECTED).expect("expected.json parses")
}

/// Aborts comparisons nobody could interpret: the generated inputs must be
/// the ones every pinned number was measured on.
pub fn check_inputs(inputs: &Inputs) -> Result<(), String> {
    let doc = document();
    let digest = format!("{:016x}", inputs.digest);
    let pinned = doc["input_digest"].as_str().expect("input_digest pinned");
    if digest != pinned {
        return Err(format!(
            "generated inputs have digest {digest}, expected.json pins {pinned}: \
             the application skeletons changed, numbers are not comparable"
        ));
    }
    let events = doc["large_events"].as_u64().expect("large_events pinned");
    if inputs.large_events != events {
        return Err(format!(
            "{} large-working-set events generated, expected.json pins {events}",
            inputs.large_events
        ));
    }
    Ok(())
}

/// Holds one round's counts against the workload's pinned ones.
pub fn compare(workload: &str, seed: u64, round: &RoundOut) -> Vec<Violation> {
    let doc = document();
    let Some(pinned) = doc["workloads"].get(workload) else {
        return vec![Violation::new(
            "expected.pinned",
            format!("expected.json has no counts for {workload}"),
        )];
    };
    compare_with(pinned, seed, round)
}

fn compare_with(pinned: &Value, seed: u64, round: &RoundOut) -> Vec<Violation> {
    let pin = |key: &str| {
        pinned[key]
            .as_u64()
            .unwrap_or_else(|| panic!("{key} pinned"))
    };
    let mut violations = Vec::new();
    for (key, got) in [
        ("events", round.events),
        ("ops", round.tally.attempted),
        ("d1_scored", round.d1_scored),
    ] {
        if got != pin(key) {
            violations.push(Violation::new(
                "expected.work",
                format!("{key} per round: {got}, pinned {}", pin(key)),
            ));
        }
    }
    let seeded = pinned
        .get("accuracy_depends_on_seed")
        .and_then(Value::as_bool)
        == Some(true);
    let floor = if seeded && seed != DEFAULT_SEED {
        (pin("d1_correct") as f64 * (1.0 - SEEDED_SLACK)) as u64
    } else {
        pin("d1_correct")
    };
    if round.d1_correct < floor {
        violations.push(Violation::new(
            "expected.accuracy_floor",
            format!(
                "{} correct predictions per round, floor {floor}",
                round.d1_correct
            ),
        ));
    }
    if round.trace_bytes > pin("trace_bytes") {
        violations.push(Violation::new(
            "expected.trace_bytes_ceiling",
            format!(
                "{} trace bytes per round, ceiling {}",
                round.trace_bytes,
                pin("trace_bytes")
            ),
        ));
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::WORKLOADS;
    use crate::stats::Tally;

    fn pinned() -> Value {
        serde_json::from_str(
            r#"{"events": 1000, "ops": 100, "d1_scored": 500, "d1_correct": 450,
                "trace_bytes": 2000, "accuracy_depends_on_seed": true}"#,
        )
        .expect("parses")
    }

    fn round(d1_correct: u64, trace_bytes: u64) -> RoundOut {
        RoundOut {
            events: 1000,
            tally: Tally {
                attempted: 100,
                ..Tally::default()
            },
            d1_correct,
            d1_scored: 500,
            trace_bytes,
            trace_events: 1000,
        }
    }

    #[test]
    fn quality_counts_are_floors_and_ceilings() {
        let checks = |r: &RoundOut, seed| -> Vec<&'static str> {
            compare_with(&pinned(), seed, r)
                .iter()
                .map(|v| v.check)
                .collect()
        };
        assert!(checks(&round(450, 2000), DEFAULT_SEED).is_empty());
        // Better on both counts: passes.
        assert!(checks(&round(460, 1900), DEFAULT_SEED).is_empty());
        assert_eq!(
            checks(&round(449, 2000), DEFAULT_SEED),
            ["expected.accuracy_floor"]
        );
        assert_eq!(
            checks(&round(450, 2001), DEFAULT_SEED),
            ["expected.trace_bytes_ceiling"]
        );
        // Another seed gets the slack, and no more.
        assert!(checks(&round(441, 2000), DEFAULT_SEED + 1).is_empty());
        assert_eq!(
            checks(&round(440, 2000), DEFAULT_SEED + 1),
            ["expected.accuracy_floor"]
        );
    }

    #[test]
    fn different_work_is_a_violation_on_any_seed() {
        let mut r = round(450, 2000);
        r.events += 1;
        r.tally.attempted -= 1;
        let v = compare_with(&pinned(), 7, &r);
        assert_eq!(v.len(), 2);
        assert!(v.iter().all(|v| v.check == "expected.work"));
    }

    #[test]
    fn every_workload_is_pinned() {
        let doc = document();
        assert_eq!(doc["input_digest"].as_str().map(str::len), Some(16));
        for w in &WORKLOADS {
            let p = doc["workloads"]
                .get(w.name)
                .unwrap_or_else(|| panic!("{} pinned", w.name));
            for key in ["events", "ops", "d1_scored", "d1_correct", "trace_bytes"] {
                assert!(p[key].as_u64().is_some(), "{}.{key}", w.name);
            }
        }
    }
}
