//! Inspect a PYTHIA trace file: event registry, timing model size, and
//! each thread's grammar in the paper's Fig. 7 form — useful when
//! debugging an integration.
//!
//! With no argument, records a demo trace first.
//!
//! ```sh
//! cargo run --example trace_inspector -- [TRACE_FILE]
//! ```

use pythia::apps::harness::record_trace;
use pythia::apps::work::WorkScale;
use pythia::apps::{find_app, WorkingSet};
use pythia::core::prelude::*;

fn main() -> Result<()> {
    let path = match std::env::args().nth(1) {
        Some(p) => std::path::PathBuf::from(p),
        None => {
            // No file given: record a demo trace of the MG skeleton.
            let app = find_app("MG").unwrap();
            let trace = record_trace(app.as_ref(), 4, WorkingSet::Small, WorkScale::ZERO);
            let p = std::env::temp_dir().join("pythia-inspector-demo.trace");
            trace.save(&p)?;
            println!(
                "(no file given; recorded a demo MG trace to {})\n",
                p.display()
            );
            p
        }
    };

    let trace = TraceData::load(&path)?;
    println!("trace file : {}", path.display());
    println!("threads    : {}", trace.thread_count());
    println!("events     : {}", trace.total_events());
    println!("registry   : {} event descriptors", trace.registry().len());
    println!();

    println!("interned events:");
    for (id, desc) in trace.registry().iter() {
        println!("  {id:>5} = {desc}");
    }
    println!();

    for (i, thread) in trace.threads().iter().enumerate() {
        println!(
            "--- thread {i}: {} events, {} rules, {} timing buckets ---",
            thread.event_count,
            thread.grammar.rule_count(),
            thread.timing.len(),
        );
        print!(
            "{}",
            thread.grammar.render(&|e| trace.registry().name_of(e))
        );
        println!();
    }
    Ok(())
}
