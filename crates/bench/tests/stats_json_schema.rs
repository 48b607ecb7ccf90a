//! Schema check for the `--stats-format json` document: `seqdl_engine::stats_json`
//! output on a real run must parse with the independent reader in
//! `seqdl_bench::json` and keep the keys and invariants the bench harness and
//! the CI artifacts consume.  Run explicitly in CI as
//! `cargo test -p seqdl-bench --test stats_json_schema`.

use seqdl_bench::json::{parse, Json};
use seqdl_engine::{stats_json, EvalError, EvalStats, LimitKind};

/// A parsed document from one §5.1.1 reachability run through the executor.
fn run_document(threads: usize) -> Json {
    let (reachable, stats) = seqdl_bench::reachability_exec_stats(16, 48, threads);
    assert!(
        reachable,
        "workload sanity: the digraph has a reachable pair"
    );
    let text = stats_json(&stats, &seqdl_core::store_stats(), None);
    parse(&text).unwrap_or_else(|e| panic!("stats JSON does not parse: {e}\n{text}"))
}

#[test]
fn ok_document_has_the_versioned_sections_and_types() {
    let doc = run_document(1);
    assert_eq!(
        doc.get("version").and_then(Json::as_number),
        Some(1.0),
        "schema version"
    );
    assert_eq!(
        doc.get("outcome")
            .and_then(|o| o.get("status"))
            .and_then(Json::as_str),
        Some("ok")
    );
    let totals = doc
        .get("totals")
        .and_then(Json::as_object)
        .expect("totals object");
    for key in [
        "iterations",
        "derived_facts",
        "rule_firings",
        "index_probes",
        "scans",
        "instructions_executed",
        "fused_probes",
        "emit_memo_hits",
    ] {
        assert!(
            totals.get(key).and_then(Json::as_number).is_some(),
            "totals.{key} must be a number"
        );
    }
    let strata = doc
        .get("strata")
        .and_then(Json::as_array)
        .expect("strata array");
    assert!(!strata.is_empty(), "at least one stratum");
    let mut pct_sum = 0.0;
    for s in strata {
        for key in [
            "rules",
            "iterations",
            "derived_facts",
            "rule_firings",
            "shards",
            "wall_us",
            "wall_pct",
        ] {
            assert!(
                s.get(key).and_then(Json::as_number).is_some(),
                "stratum key {key} must be a number"
            );
        }
        pct_sum += s.get("wall_pct").and_then(Json::as_number).unwrap_or(0.0);
    }
    // Percentages are of the summed stratum walls, so they add to ~100
    // (rounding each entry to 2 decimals) unless every wall rounded to zero.
    assert!(
        pct_sum == 0.0 || (pct_sum - 100.0).abs() < 0.5,
        "stratum wall percentages must sum to ~100, got {pct_sum}"
    );
    let store = doc
        .get("store")
        .and_then(Json::as_object)
        .expect("store object");
    for key in ["distinct_paths", "bytes"] {
        assert!(
            store
                .get(key)
                .and_then(Json::as_number)
                .is_some_and(|v| v > 0.0),
            "store.{key} must be positive"
        );
    }
}

#[test]
fn per_rule_profile_attributes_every_firing() {
    for threads in [1usize, 4] {
        let doc = run_document(threads);
        let total = doc
            .get("totals")
            .and_then(|t| t.get("rule_firings"))
            .and_then(Json::as_number)
            .expect("totals.rule_firings");
        let rules = doc
            .get("rules")
            .and_then(Json::as_array)
            .expect("rules array");
        let derived = doc
            .get("totals")
            .and_then(|t| t.get("derived_facts"))
            .and_then(Json::as_number)
            .expect("totals.derived_facts");
        assert!(!rules.is_empty(), "profiled rules at {threads} thread(s)");
        let (mut attributed, mut attributed_facts) = (0.0, 0.0);
        for r in rules {
            for key in [
                "stratum",
                "index",
                "firings",
                "derived_facts",
                "wall_us",
                "index_probes",
                "scans",
                "instructions",
                "fused_probes",
                "emit_memo_hits",
            ] {
                assert!(
                    r.get(key).and_then(Json::as_number).is_some(),
                    "rule key {key} must be a number"
                );
            }
            assert!(
                r.get("rule")
                    .and_then(Json::as_str)
                    .is_some_and(|s| s.contains("<-")),
                "rule text must render the rule"
            );
            attributed += r.get("firings").and_then(Json::as_number).unwrap_or(0.0);
            attributed_facts += r
                .get("derived_facts")
                .and_then(Json::as_number)
                .unwrap_or(0.0);
            assert_eq!(
                r.get("emit_memo_hits").and_then(Json::as_number),
                Some(0.0),
                "emit_memo_hits is retired"
            );
        }
        assert_eq!(
            attributed, total,
            "per-rule firings must sum to the total at {threads} thread(s)"
        );
        assert_eq!(
            attributed_facts, derived,
            "per-rule facts must sum to the derived facts at {threads} thread(s)"
        );
    }
}

#[test]
fn failure_outcomes_parse_with_their_discriminants() {
    let store = seqdl_core::store_stats();
    let limit = EvalError::LimitExceeded {
        what: LimitKind::Facts,
        limit: 7,
    };
    let doc = parse(&stats_json(&EvalStats::default(), &store, Some(&limit))).unwrap();
    let outcome = doc.get("outcome").expect("outcome object");
    assert_eq!(outcome.get("status").and_then(Json::as_str), Some("limit"));
    assert_eq!(outcome.get("kind").and_then(Json::as_str), Some("facts"));
    assert_eq!(outcome.get("limit").and_then(Json::as_number), Some(7.0));

    let cancelled = EvalError::Cancelled {
        reason: "deadline of 50ms exceeded".into(),
        partial_stats: Box::default(),
    };
    let doc = parse(&stats_json(&EvalStats::default(), &store, Some(&cancelled))).unwrap();
    let outcome = doc.get("outcome").expect("outcome object");
    assert_eq!(
        outcome.get("status").and_then(Json::as_str),
        Some("cancelled")
    );
    assert!(outcome
        .get("reason")
        .and_then(Json::as_str)
        .is_some_and(|r| r.contains("deadline")));
}

#[test]
fn chrome_trace_export_parses_as_json() {
    // A traced parallel run's `--trace-out` document must be valid JSON with
    // the Chrome trace-event fields on every record.
    let session = seqdl_trace::start();
    let (reachable, _) = seqdl_bench::reachability_exec_stats(16, 48, 4);
    let events = session.finish();
    assert!(reachable);
    assert!(!events.is_empty(), "a traced run records events");
    let text = seqdl_trace::chrome_trace_json(&events);
    let doc = parse(&text).unwrap_or_else(|e| panic!("trace JSON does not parse: {e}"));
    let records = doc.as_array().expect("trace is a JSON array");
    assert_eq!(records.len(), events.len());
    for r in records {
        assert!(r.get("name").and_then(Json::as_str).is_some());
        assert!(r
            .get("ph")
            .and_then(Json::as_str)
            .is_some_and(|p| matches!(p, "B" | "E" | "C" | "i")));
        assert_eq!(r.get("pid").and_then(Json::as_number), Some(1.0));
        assert!(r.get("tid").and_then(Json::as_number).is_some());
        assert!(r.get("ts").and_then(Json::as_number).is_some());
    }
    assert!(
        records
            .iter()
            .any(|r| r.get("name").and_then(Json::as_str) == Some("run")),
        "the run span is recorded"
    );
}
