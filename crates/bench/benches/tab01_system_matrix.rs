//! Table 1 — feature matrix of inference-serving systems, restricted to
//! the rows this reproduction implements end-to-end.
//!
//! Expected: only Argus combines model selection, query-specific
//! approximation, strategy switching and throughput targets for T2I.

use argus_bench::{banner, print_table};
use argus_core::{pipeline_for, InitialPlacement, Policy, StrategySwitcher, TickAction};

fn main() {
    banner("T1", "Serving-system feature matrix", "Table 1");
    let yn = |b: bool| if b { "yes" } else { "no" }.to_string();
    // Every column is read off the policy's pipeline.
    let rows: Vec<Vec<String>> = Policy::ALL
        .iter()
        .map(|&p| {
            let pipe = pipeline_for(p);
            vec![
                p.name().to_string(),
                yn(pipe.initial_placement() == InitialPlacement::Solve),
                yn(pipe.uses_classifier()),
                yn(pipe.uses_oda()),
                yn(pipe.switches_strategy()),
                yn(pipe.uses_cache_store()),
                yn(pipe.plan_tick(0.0, 0.0) == TickAction::AdaptPerWorker),
                pipe.active_ladder(&StrategySwitcher::new())[0]
                    .strategy()
                    .to_string(),
            ]
        })
        .collect();
    print_table(
        &[
            "system",
            "cluster solver",
            "query-specific",
            "ODA/PASM",
            "AC<->SM switch",
            "approx. caching",
            "per-GPU scaling",
            "default strategy",
        ],
        &rows,
    );
}
