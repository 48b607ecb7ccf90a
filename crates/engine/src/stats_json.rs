//! Machine-readable rendering of evaluation statistics.
//!
//! [`stats_json`] serializes an [`EvalStats`] (totals, per-stratum breakdown,
//! per-rule profile), a [`seqdl_core::StoreStats`] snapshot, and the run's
//! outcome as one JSON document — the stable contract behind
//! `seqdl run|query --stats-format json`, so tooling consumes structured
//! numbers instead of scraping `--stats` text.
//!
//! The document is hand-rolled (no serde in this workspace); the schema is
//! versioned through the top-level `"version"` field and validated by
//! `crates/bench/tests/stats_json_schema.rs`:
//!
//! ```json
//! {
//!   "version": 1,
//!   "outcome": {"status": "ok"},
//!   "totals": {"iterations": 3, "derived_facts": 10, "rule_firings": 12,
//!              "index_probes": 9, "scans": 2, "instructions_executed": 40,
//!              "fused_probes": 5, "emit_memo_hits": 0},
//!   "strata": [{"rules": 2, "iterations": 3, "derived_facts": 10,
//!               "rule_firings": 12, "shards": 1, "wall_us": 120,
//!               "wall_pct": 100.00}],
//!   "rules": [{"stratum": 0, "index": 0, "rule": "T($x) <- E($x).",
//!              "firings": 4, "derived_facts": 4, "wall_us": 60,
//!              "index_probes": 3, "scans": 1, "instructions": 20,
//!              "fused_probes": 2, "emit_memo_hits": 0}],
//!   "store": {"distinct_paths": 40, "bytes": 4096}
//! }
//! ```
//!
//! `emit_memo_hits` is retired and always 0; the key stays so consumers of
//! this version keep parsing.
//!
//! `outcome.status` is `"ok"`, `"cancelled"` (with `"reason"`), `"limit"`
//! (with `"kind"` ∈ {`iterations`, `facts`, `path_length`, `store_bytes`} and
//! `"limit"`), or `"error"` (with `"detail"`); on non-ok outcomes the counters
//! are the partial statistics accumulated up to the failure point, when the
//! error carries them.

use crate::error::{EvalError, LimitKind};
use crate::eval::EvalStats;
use seqdl_core::StoreStats;
use seqdl_trace::json_escape;
use std::fmt::Write as _;

/// Stable machine-readable token for a [`LimitKind`] (the `Display` form is
/// prose for humans).
fn limit_token(kind: LimitKind) -> &'static str {
    match kind {
        LimitKind::Iterations => "iterations",
        LimitKind::Facts => "facts",
        LimitKind::PathLength => "path_length",
        LimitKind::StoreBytes => "store_bytes",
    }
}

fn outcome_json(error: Option<&EvalError>) -> String {
    match error {
        None => "{\"status\":\"ok\"}".to_string(),
        Some(EvalError::Cancelled { reason, .. }) => {
            format!(
                "{{\"status\":\"cancelled\",\"reason\":\"{}\"}}",
                json_escape(reason)
            )
        }
        Some(EvalError::LimitExceeded { what, limit }) => format!(
            "{{\"status\":\"limit\",\"kind\":\"{}\",\"limit\":{limit}}}",
            limit_token(*what)
        ),
        Some(other) => {
            format!(
                "{{\"status\":\"error\",\"detail\":\"{}\"}}",
                json_escape(&other.to_string())
            )
        }
    }
}

fn wall_us(wall: std::time::Duration) -> u64 {
    u64::try_from(wall.as_micros()).unwrap_or(u64::MAX)
}

/// Percentage of `part` within `total`, with an empty total reading as 0%.
pub(crate) fn wall_pct(part: std::time::Duration, total: std::time::Duration) -> f64 {
    if total.is_zero() {
        0.0
    } else {
        part.as_secs_f64() / total.as_secs_f64() * 100.0
    }
}

/// Serialize `stats`, a path-store snapshot, and the run outcome as the JSON
/// document described in the [module docs](self).  Pass the error of a failed
/// run (its partial statistics, if any, should already be in `stats`) or
/// `None` for a completed one.
#[must_use]
pub fn stats_json(stats: &EvalStats, store: &StoreStats, error: Option<&EvalError>) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"version\": 1,");
    let _ = writeln!(out, "  \"outcome\": {},", outcome_json(error));
    let _ = writeln!(
        out,
        "  \"totals\": {{\"iterations\": {}, \"derived_facts\": {}, \"rule_firings\": {}, \
         \"index_probes\": {}, \"scans\": {}, \"instructions_executed\": {}, \
         \"fused_probes\": {}, \"emit_memo_hits\": {}}},",
        stats.iterations,
        stats.derived_facts,
        stats.rule_firings,
        stats.index_probes,
        stats.scans,
        stats.instructions_executed,
        stats.fused_probes,
        stats.emit_memo_hits,
    );
    let total_wall: std::time::Duration = stats.strata.iter().map(|s| s.wall).sum();
    out.push_str("  \"strata\": [");
    for (i, s) in stats.strata.iter().enumerate() {
        let _ = write!(
            out,
            "{}\n    {{\"rules\": {}, \"iterations\": {}, \"derived_facts\": {}, \
             \"rule_firings\": {}, \"shards\": {}, \"wall_us\": {}, \"wall_pct\": {:.2}}}",
            if i == 0 { "" } else { "," },
            s.rules,
            s.iterations,
            s.derived_facts,
            s.rule_firings,
            s.shards,
            wall_us(s.wall),
            wall_pct(s.wall, total_wall),
        );
    }
    out.push_str("\n  ],\n");
    out.push_str("  \"rules\": [");
    for (i, r) in stats.rules.iter().enumerate() {
        let _ = write!(
            out,
            "{}\n    {{\"stratum\": {}, \"index\": {}, \"rule\": \"{}\", \"firings\": {}, \
             \"derived_facts\": {}, \"wall_us\": {}, \"index_probes\": {}, \"scans\": {}, \
             \"instructions\": {}, \"fused_probes\": {}, \"emit_memo_hits\": {}}}",
            if i == 0 { "" } else { "," },
            r.stratum,
            r.rule_ix,
            json_escape(&r.rule),
            r.firings,
            r.derived_facts,
            wall_us(r.wall),
            r.index_probes,
            r.scans,
            r.instructions,
            r.fused_probes,
            r.emit_memo_hits,
        );
    }
    out.push_str("\n  ],\n");
    let _ = writeln!(
        out,
        "  \"store\": {{\"distinct_paths\": {}, \"bytes\": {}}}",
        store.distinct_paths,
        store.total_bytes(),
    );
    out.push_str("}\n");
    out
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::eval::{RuleStats, StratumStats};
    use std::time::Duration;

    fn sample_stats() -> EvalStats {
        let mut stats = EvalStats {
            iterations: 3,
            derived_facts: 10,
            rule_firings: 12,
            index_probes: 9,
            scans: 2,
            instructions_executed: 40,
            fused_probes: 5,
            emit_memo_hits: 2,
            ..EvalStats::default()
        };
        stats.strata.push(StratumStats {
            rules: 2,
            iterations: 3,
            derived_facts: 10,
            rule_firings: 12,
            shards: 1,
            wall: Duration::from_micros(120),
        });
        stats.rules.push(RuleStats {
            stratum: 0,
            rule_ix: 0,
            rule: "T($x) <- E($x).".to_string(),
            firings: 4,
            derived_facts: 4,
            wall: Duration::from_micros(60),
            index_probes: 3,
            scans: 1,
            instructions: 20,
            fused_probes: 2,
            emit_memo_hits: 0,
        });
        stats
    }

    #[test]
    fn ok_document_carries_every_section() {
        let store = seqdl_core::store_stats();
        let doc = stats_json(&sample_stats(), &store, None);
        for key in [
            "\"version\": 1",
            "{\"status\":\"ok\"}",
            "\"totals\":",
            "\"emit_memo_hits\": 2",
            "\"wall_pct\": 100.00",
            "\"rule\": \"T($x) <- E($x).\"",
            "\"distinct_paths\":",
        ] {
            assert!(doc.contains(key), "missing {key} in:\n{doc}");
        }
    }

    #[test]
    fn outcomes_render_their_variants() {
        assert!(outcome_json(None).contains("\"ok\""));
        let cancelled = EvalError::Cancelled {
            reason: "deadline of 50ms exceeded".into(),
            partial_stats: Box::default(),
        };
        assert_eq!(
            outcome_json(Some(&cancelled)),
            "{\"status\":\"cancelled\",\"reason\":\"deadline of 50ms exceeded\"}"
        );
        let limit = EvalError::LimitExceeded {
            what: LimitKind::Facts,
            limit: 7,
        };
        assert_eq!(
            outcome_json(Some(&limit)),
            "{\"status\":\"limit\",\"kind\":\"facts\",\"limit\":7}"
        );
        let other = EvalError::Internal {
            detail: "boom \"quoted\"".into(),
        };
        assert!(outcome_json(Some(&other)).contains("\\\"quoted\\\""));
    }

    #[test]
    fn zero_wall_percentages_do_not_divide_by_zero() {
        let pct = wall_pct(Duration::ZERO, Duration::ZERO);
        assert_eq!(pct, 0.0);
    }
}
