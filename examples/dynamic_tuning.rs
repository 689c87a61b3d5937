//! Dynamic tuning: watch the STL selector react to a changing workload.
//!
//! The paper's criticism of static concurrency control is that "the
//! originally chosen algorithm may not always be the best as the system
//! parameters change". This example runs the STL-dynamic policy over three
//! load regimes (light, moderate, heavy) and prints the per-regime protocol
//! mix the selector converged to, alongside the STL estimates for a sample
//! transaction in each regime — evaluated both fresh and through the
//! epoch-cached selector, whose decision must match byte for byte while
//! costing a few table lookups instead of up to six dynamic programs.
//!
//! Run with: `cargo run --release -p examples --bin dynamic_tuning`

use std::time::Instant;

use dbmodel::{CcMethod, LogicalItemId, SiteId, Transaction, TxnId};
use selection::{CacheSettings, CachedStlSelector, StlSelector};
use sim::{MethodPolicy, SimConfig, Simulation};

fn main() {
    println!("STL-dynamic selection across load regimes");
    let regimes = [("light", 25.0), ("moderate", 120.0), ("heavy", 300.0)];
    for (label, lambda) in regimes {
        let config = SimConfig {
            seed: 5,
            num_sites: 4,
            num_items: 60,
            arrival_rate: lambda,
            txn_size: 4,
            read_fraction: 0.6,
            num_transactions: 1_200,
            local_compute: simkit::time::Duration::from_millis(10),
            method_policy: MethodPolicy::DynamicStl,
            ..SimConfig::default()
        };
        let mut simulation = Simulation::new(config);
        simulation.run_to_completion();

        // Ask the selector what it would do with a representative transaction
        // given the statistics this regime produced.
        let sample = Transaction::builder(TxnId(u64::MAX), SiteId(0))
            .read(LogicalItemId(1))
            .read(LogicalItemId(2))
            .write(LogicalItemId(3))
            .write(LogicalItemId(4))
            .build();
        let mut selector = StlSelector::with_settings(0, 0);
        let fresh_began = Instant::now();
        let decision = selector.select(&sample, simulation.catalog(), simulation.metrics());
        let fresh_cost = fresh_began.elapsed();

        // The cached selector agrees bit for bit (exact keys, same epoch
        // snapshot) and answers repeat losses from the epoch's STL′ table.
        let mut cached = CachedStlSelector::with_settings(CacheSettings {
            quant_rel: 0.0,
            warmup_commits: 0,
            explore_every: 0,
            ..CacheSettings::default()
        });
        let first = cached.select(&sample, simulation.catalog(), simulation.metrics());
        assert_eq!(first.method, decision.method);
        assert_eq!(first.stl_2pl.to_bits(), decision.stl_2pl.to_bits());
        let hit_began = Instant::now();
        let hit = cached.select(&sample, simulation.catalog(), simulation.metrics());
        let hit_cost = hit_began.elapsed();
        assert_eq!(hit.method, decision.method);
        assert_eq!(cached.cache_stats().hits, 1);

        let report = simulation.into_report();
        assert!(report.serializable().is_ok());
        println!("\n-- {label} load ({lambda} txn/s) --");
        println!(
            "  selector mix: 2PL={} T/O={} PA={}",
            report
                .selection_counts
                .get(&CcMethod::TwoPhaseLocking)
                .copied()
                .unwrap_or(0),
            report
                .selection_counts
                .get(&CcMethod::TimestampOrdering)
                .copied()
                .unwrap_or(0),
            report
                .selection_counts
                .get(&CcMethod::PrecedenceAgreement)
                .copied()
                .unwrap_or(0),
        );
        println!(
            "  sample 2-read/2-write txn: STL_2PL={:.3} STL_T/O={:.3} STL_PA={:.3} -> {}",
            decision.stl_2pl,
            decision.stl_to,
            decision.stl_pa,
            decision.method.label()
        );
        println!(
            "  mean S = {:.2} ms, throughput = {:.1} txn/s, restarts = {}",
            report.mean_system_time() * 1e3,
            report.throughput(),
            report.total_restarts()
        );
        println!(
            "  selection cost: fresh {:.1} µs vs cached hit {:.2} µs (identical decision)",
            fresh_cost.as_secs_f64() * 1e6,
            hit_cost.as_secs_f64() * 1e6
        );
    }
}
