//! Round-trip of the bench suite's machine-readable trajectories: a
//! `BENCH_exp9.json` document built from a real (tiny) runtime cell must
//! emit, parse back and validate through the same dependency-free JSON
//! layer the trace plane uses — the contract regression tooling relies
//! on when diffing bench runs.

use dbmodel::{CcMethod, LogicalItemId};
use runtime::{CcPolicy, Database, RuntimeConfig, TxnSpec};
use trace::json::Json;

#[test]
fn exp9_trajectory_emits_parses_and_validates() {
    // One tiny exp9-shaped cell: enough traffic for non-trivial counters.
    let db = Database::open(RuntimeConfig {
        num_shards: 2,
        num_items: 16,
        initial_value: 1_000,
        policy: CcPolicy::Static(CcMethod::TwoPhaseLocking),
        ..RuntimeConfig::default()
    })
    .unwrap();
    let begun = std::time::Instant::now();
    for k in 0..40u64 {
        let from = LogicalItemId(k % 16);
        let to = LogicalItemId((k * 5 + 1) % 16);
        if from == to {
            continue;
        }
        let spec = TxnSpec::new().write(from).write(to);
        db.run_transaction(&spec, |reads| {
            vec![(from, reads[&from] - 1), (to, reads[&to] + 1)]
        })
        .expect("cell transaction commits");
    }
    let elapsed = begun.elapsed().as_secs_f64();
    let stats = db.stats();
    let serializable = db.shutdown().expect("shutdown").serializable().is_ok();

    // The exp9 row shape, from the measured cell.
    let mut traj = bench::Trajectory::new("exp9");
    traj.meta("smoke", Json::Bool(true));
    traj.meta("txns_per_client", Json::num(40u32));
    traj.row([
        ("clients", Json::num(1u32)),
        ("shards", Json::num(2u32)),
        ("policy", Json::str("2PL")),
        ("committed", Json::Num(stats.committed as f64)),
        ("txn_per_sec", Json::Num(stats.committed as f64 / elapsed)),
        ("restarts", Json::Num(stats.restarts() as f64)),
        ("serializable", Json::Bool(serializable)),
        (
            "stale_reply_events",
            Json::Num(stats.stale_reply_events as f64),
        ),
        (
            "mailbox_overflow_entries",
            Json::Num(stats.mailbox_overflow_entries as f64),
        ),
        ("trace_events", Json::Num(stats.trace_events as f64)),
    ]);

    // Emit → re-read → parse → validate → field round-trip.
    let dir = std::env::temp_dir().join(format!("bench_traj_roundtrip_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = traj.write_to(&dir).expect("trajectory writes");
    assert!(path.ends_with("BENCH_exp9.json"));

    let text = std::fs::read_to_string(&path).unwrap();
    let doc = Json::parse(text.trim()).expect("emitted document parses");
    bench::validate_bench_doc(&doc).expect("emitted document validates");

    assert_eq!(doc.get("bench").and_then(Json::as_str), Some("exp9"));
    assert_eq!(
        doc.get("meta")
            .and_then(|m| m.get("txns_per_client"))
            .and_then(Json::as_f64),
        Some(40.0)
    );
    let rows = doc.get("rows").and_then(Json::as_array).unwrap();
    assert_eq!(rows.len(), 1);
    let row = &rows[0];
    assert_eq!(
        row.get("committed").and_then(Json::as_f64),
        Some(stats.committed as f64),
        "counters survive the round trip exactly"
    );
    assert_eq!(row.get("serializable").and_then(Json::as_bool), Some(true));
    assert_eq!(
        row.get("trace_events").and_then(Json::as_f64),
        Some(stats.trace_events as f64),
        "the cell ran with the flight recorder on by default"
    );
    assert!(stats.trace_events > 0, "default config traces");

    std::fs::remove_dir_all(&dir).ok();
}
