//! Observability: wire counters into a metrics registry and export it.
//!
//! One `Registry` collects everything — each supervised counter's own
//! statistics, supervisor diagnostics — and renders either a Prometheus
//! text exposition or a JSON document, with no dependencies beyond the
//! workspace.
//!
//! Run with: `cargo run --example metrics_export`

use monotonic_counters::prelude::*;
use std::sync::Arc;

fn main() {
    let registry = Arc::new(Registry::new());

    // 1. A supervisor with metrics attached publishes its diagnostics
    //    under `sup.*`: diagnose passes, per-verdict tallies, restarts,
    //    poisons.
    let sup = Supervisor::new();
    sup.attach_metrics(&registry, "sup");

    // 2. A plain counter, registered as `app`. Its operations write
    //    nothing to the registry: each diagnosis scrapes what its `stats()`
    //    counted since the last one into `sup.app.*` (increments, checks,
    //    timeouts, poisons, ...).
    let c = Arc::new(Counter::default());
    sup.register("app", &c);
    std::thread::scope(|s| {
        let waiter = Arc::clone(&c);
        s.spawn(move || waiter.check(1_000));
        for _ in 0..1_000 {
            c.increment(1);
        }
    });
    let _report = sup.diagnose();

    // 3. Export. Prometheus text for a scrape endpoint...
    println!("--- Prometheus exposition ---");
    print!("{}", registry.snapshot().render_prometheus());

    // ...or JSON for ad-hoc tooling.
    println!("--- JSON ---");
    println!("{}", registry.snapshot().render_json());
}
