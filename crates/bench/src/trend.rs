//! The bench-trend regression gate: diff a freshly produced bench JSON
//! against the committed copy and fail if any floor metric dropped below
//! its committed floor.
//!
//! The committed `BENCH_packing.json` / `BENCH_serve.json` at the repo root
//! are full-mode runs on the reference container; CI produces quick-mode
//! runs on shared runners. Two classes of checks bridge that gap:
//!
//! * **Mode-independent metrics** (speedup ratios, identity booleans, the
//!   `regression` flag) gate every run: the fresh value must clear the
//!   committed floor. When the fresh mode differs from the committed mode,
//!   the committed file's `*_floor_quick` companion field is the floor —
//!   full-mode files deliberately embed the quick constants for exactly
//!   this purpose.
//! * **Floor integrity**: the fresh file's own floor fields must not be
//!   below the committed ones (same mode) or the committed quick ones
//!   (cross mode) — so a PR cannot silently lower a floor constant in the
//!   bench binary without also regenerating the committed JSON in review.
//!
//! **Ceiling metrics** are the mirror image, for quantities that must not
//! *grow* (the streaming-ingestion memory high-water mark): the fresh
//! value must stay at or under the committed ceiling, and the fresh
//! ceiling field must not be silently *raised*.
//!
//! No JSON crate resolves offline, so this module carries a
//! small recursive-descent JSON parser sufficient for the bench schemas.

use std::fmt;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number, as f64.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object (insertion order preserved).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parse a JSON document.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing input at byte {}", p.pos));
        }
        Ok(value)
    }

    /// Look up a dotted path (`"serve_floor.placed_per_s_floor"`).
    pub fn get(&self, path: &str) -> Option<&Json> {
        let mut cur = self;
        for key in path.split('.') {
            let Json::Obj(fields) = cur else { return None };
            cur = fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)?;
        }
        Some(cur)
    }

    /// The value at `path` as a number.
    pub fn num(&self, path: &str) -> Option<f64> {
        match self.get(path)? {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value at `path` as a bool.
    pub fn bool(&self, path: &str) -> Option<bool> {
        match self.get(path)? {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value at `path` as a string.
    pub fn str(&self, path: &str) -> Option<&str> {
        match self.get(path)? {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
}

struct Parser<'t> {
    bytes: &'t [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            if b.is_ascii_whitespace() {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", b as char, self.pos))
        }
    }

    fn eat_keyword(&mut self, word: &str) -> bool {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.bytes.get(self.pos) {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') if self.eat_keyword("true") => Ok(Json::Bool(true)),
            Some(b'f') if self.eat_keyword("false") => Ok(Json::Bool(false)),
            Some(b'n') if self.eat_keyword("null") => Ok(Json::Null),
            Some(_) => self.number(),
            None => Err("unexpected end of input".to_string()),
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            fields.push((key, self.value()?));
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos) {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let escaped = *self
                        .bytes
                        .get(self.pos)
                        .ok_or("unterminated escape".to_string())?;
                    self.pos += 1;
                    out.push(match escaped {
                        b'"' => '"',
                        b'\\' => '\\',
                        b'/' => '/',
                        b'n' => '\n',
                        b't' => '\t',
                        b'r' => '\r',
                        other => {
                            return Err(format!("unsupported escape \\{}", other as char));
                        }
                    });
                }
                Some(&b) => {
                    self.pos += 1;
                    out.push(b as char);
                }
                None => return Err("unterminated string".to_string()),
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while let Some(b) = self.bytes.get(self.pos) {
            if b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| "invalid number".to_string())?;
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("invalid number {text:?} at byte {start}"))
    }
}

/// One gate violation.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// Which file/metric failed.
    pub what: String,
    /// Human-readable detail.
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "REGRESSION: {}: {}", self.what, self.detail)
    }
}

/// A floor-gated metric: `value_path` in the fresh file must be at least
/// the committed floor, and the fresh floor field must not have dropped.
struct FloorMetric {
    value_path: &'static str,
    floor_path: &'static str,
    /// The committed file's quick-mode companion floor, used when the
    /// fresh and committed modes differ.
    quick_floor_path: &'static str,
    /// When set, the value check only applies if this boolean is `true`
    /// in the *fresh* file — for metrics that are meaningless on some
    /// machines (e.g. the scaling ratio on a single core, where the
    /// bench records the number but disarms its own gate). Floor
    /// integrity is still enforced unconditionally.
    gate_path: Option<&'static str>,
}

/// Booleans that must be `true` in the fresh file.
fn required_flags(schema: &str) -> &'static [&'static str] {
    if schema.starts_with("coach/bench_serve/") {
        &[
            "identity.online_equals_batch",
            "identity.sharded_equals_single",
            "serve_floor.met",
            "probes.estimator_matches_exhaustive",
            "probes.floor_met",
            "serve_cold_derive.batched.matches_per_item",
            "serve_cold_derive.met",
            "sharded.matches_single_shard",
            "scaling.matches_single_shard",
            "scaling.met",
            "snapshot.roundtrip_identical",
            "telemetry.decisions_identical",
            "telemetry.met",
            "stream.matches_materialized",
            "stream.ceiling_met",
        ]
    } else if schema.starts_with("coach/bench_pipeline/") {
        &[
            "phases.derive.demands_identical",
            "phases.pack.decisions_identical",
        ]
    } else if schema.starts_with("coach/bench_scenarios/") {
        &["identity.all_match", "serve_floor.met"]
    } else {
        &[]
    }
}

fn floor_metrics(schema: &str) -> Vec<FloorMetric> {
    if schema.starts_with("coach/bench_serve/") {
        vec![
            FloorMetric {
                value_path: "serve.placed_per_s",
                floor_path: "serve_floor.placed_per_s_floor",
                quick_floor_path: "serve_floor.placed_per_s_floor_quick",
                gate_path: None,
            },
            FloorMetric {
                value_path: "probes.estimator_speedup",
                floor_path: "probes.estimator_speedup_floor",
                quick_floor_path: "probes.estimator_speedup_floor_quick",
                gate_path: None,
            },
            FloorMetric {
                value_path: "serve_cold_derive.batched.placed_per_s",
                floor_path: "serve_cold_derive.placed_per_s_floor",
                quick_floor_path: "serve_cold_derive.placed_per_s_floor_quick",
                gate_path: None,
            },
            FloorMetric {
                value_path: "scaling.efficiency_4x",
                floor_path: "scaling.efficiency_4x_floor",
                quick_floor_path: "scaling.efficiency_4x_floor",
                gate_path: Some("scaling.gate_active"),
            },
            FloorMetric {
                value_path: "telemetry.full_over_off",
                floor_path: "telemetry.full_over_off_floor",
                quick_floor_path: "telemetry.full_over_off_floor_quick",
                gate_path: Some("telemetry.gate_active"),
            },
        ]
    } else if schema.starts_with("coach/bench_pipeline/") {
        vec![
            FloorMetric {
                value_path: "phases.derive.speedup",
                floor_path: "phases.derive.speedup_floor",
                quick_floor_path: "phases.derive.speedup_floor_quick",
                gate_path: None,
            },
            FloorMetric {
                value_path: "phases.pack.speedup",
                floor_path: "phases.pack.speedup_floor",
                quick_floor_path: "phases.pack.speedup_floor_quick",
                gate_path: None,
            },
        ]
    } else if schema.starts_with("coach/bench_scenarios/") {
        vec![FloorMetric {
            value_path: "min_placed_per_s",
            floor_path: "serve_floor.placed_per_s_floor",
            quick_floor_path: "serve_floor.placed_per_s_floor_quick",
            gate_path: None,
        }]
    } else {
        Vec::new()
    }
}

/// A ceiling-gated metric: `value_path` in the fresh file must be at most
/// the committed ceiling, and the fresh ceiling field must not have been
/// silently raised.
struct CeilingMetric {
    value_path: &'static str,
    ceiling_path: &'static str,
    /// The committed file's quick-mode companion ceiling, used when the
    /// fresh and committed modes differ (a quick trace has fewer VMs to
    /// amortize the stream's fixed buffers over, so its per-VM ceiling
    /// sits higher).
    quick_ceiling_path: &'static str,
}

fn ceiling_metrics(schema: &str) -> Vec<CeilingMetric> {
    if schema.starts_with("coach/bench_serve/") {
        vec![CeilingMetric {
            value_path: "stream.peak_bytes_per_vm",
            ceiling_path: "stream.peak_bytes_per_vm_ceiling",
            quick_ceiling_path: "stream.peak_bytes_per_vm_ceiling_quick",
        }]
    } else {
        Vec::new()
    }
}

/// Gate a fresh bench JSON against the committed copy, returning every
/// violation (empty = pass).
pub fn gate(committed: &Json, fresh: &Json) -> Vec<Violation> {
    let mut violations = Vec::new();
    let mut fail = |what: &str, detail: String| {
        violations.push(Violation {
            what: what.to_string(),
            detail,
        });
    };

    let (Some(committed_schema), Some(fresh_schema)) =
        (committed.str("schema"), fresh.str("schema"))
    else {
        fail("schema", "missing schema field".to_string());
        return violations;
    };
    let family = |s: &str| s.rsplit_once('/').map(|(f, _)| f.to_string());
    if family(committed_schema) != family(fresh_schema) {
        fail(
            "schema",
            format!("committed {committed_schema:?} vs fresh {fresh_schema:?}"),
        );
        return violations;
    }

    match fresh.bool("regression") {
        Some(false) => {}
        Some(true) => fail(
            "regression",
            "fresh run flagged itself regressed".to_string(),
        ),
        None => fail("regression", "missing regression flag".to_string()),
    }

    for flag in required_flags(fresh_schema) {
        match fresh.bool(flag) {
            Some(true) => {}
            Some(false) => fail(flag, "expected true".to_string()),
            None => fail(flag, "missing boolean".to_string()),
        }
    }

    let same_mode = committed.str("mode") == fresh.str("mode");
    for metric in floor_metrics(fresh_schema) {
        let floor_path = if same_mode {
            metric.floor_path
        } else {
            metric.quick_floor_path
        };
        let Some(committed_floor) = committed.num(floor_path) else {
            fail(floor_path, "missing in committed file".to_string());
            continue;
        };
        // A disarmed gate (recorded by the fresh run itself) skips the
        // value check but not the floor-integrity check below.
        let gated_off = metric
            .gate_path
            .is_some_and(|g| fresh.bool(g) == Some(false));
        match fresh.num(metric.value_path) {
            _ if gated_off => {}
            Some(value) if value >= committed_floor => {}
            Some(value) => fail(
                metric.value_path,
                format!("{value:.2} below committed floor {committed_floor:.2}"),
            ),
            None => fail(metric.value_path, "missing in fresh file".to_string()),
        }
        // Floor integrity: the bench binary's own floor must not have been
        // quietly lowered relative to what the repo has reviewed.
        match fresh.num(floor_path) {
            Some(fresh_floor) if fresh_floor >= committed_floor => {}
            Some(fresh_floor) => fail(
                floor_path,
                format!("fresh floor {fresh_floor:.2} below committed {committed_floor:.2}"),
            ),
            None => fail(floor_path, "missing in fresh file".to_string()),
        }
    }

    for metric in ceiling_metrics(fresh_schema) {
        let ceiling_path = if same_mode {
            metric.ceiling_path
        } else {
            metric.quick_ceiling_path
        };
        let Some(committed_ceiling) = committed.num(ceiling_path) else {
            fail(ceiling_path, "missing in committed file".to_string());
            continue;
        };
        match fresh.num(metric.value_path) {
            Some(value) if value <= committed_ceiling => {}
            Some(value) => fail(
                metric.value_path,
                format!("{value:.2} above committed ceiling {committed_ceiling:.2}"),
            ),
            None => fail(metric.value_path, "missing in fresh file".to_string()),
        }
        // Ceiling integrity: the binary's own ceiling must not have been
        // quietly raised relative to what the repo has reviewed.
        match fresh.num(ceiling_path) {
            Some(fresh_ceiling) if fresh_ceiling <= committed_ceiling => {}
            Some(fresh_ceiling) => fail(
                ceiling_path,
                format!("fresh ceiling {fresh_ceiling:.2} above committed {committed_ceiling:.2}"),
            ),
            None => fail(ceiling_path, "missing in fresh file".to_string()),
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_json() {
        let doc = Json::parse(r#"{"a": {"b": [1, 2.5, -3e2]}, "s": "x\ny", "t": true, "n": null}"#)
            .unwrap();
        assert!(doc.num("a.b").is_none(), "an array is not a number");
        assert_eq!(
            doc.get("a.b"),
            Some(&Json::Arr(vec![
                Json::Num(1.0),
                Json::Num(2.5),
                Json::Num(-300.0),
            ]))
        );
        assert_eq!(doc.str("s"), Some("x\ny"));
        assert_eq!(doc.bool("t"), Some(true));
        assert_eq!(doc.get("n"), Some(&Json::Null));
        assert_eq!(doc.get("missing"), None);
    }

    #[test]
    fn rejects_malformed_json() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse(r#"{"a": }"#).is_err());
        assert!(Json::parse("[1, 2,]").is_err());
        assert!(Json::parse("{} trailing").is_err());
    }

    fn serve_doc(placed: f64, floor: f64, speedup: f64, regression: bool) -> Json {
        Json::parse(&format!(
            r#"{{
              "schema": "coach/bench_serve/v6", "mode": "full",
              "identity": {{"online_equals_batch": true, "sharded_equals_single": true}},
              "serve": {{"placed_per_s": {placed}}},
              "serve_floor": {{"placed_per_s_floor": {floor}, "placed_per_s_floor_quick": 30000, "met": true}},
              "probes": {{"estimator_matches_exhaustive": true, "estimator_speedup": {speedup},
                          "estimator_speedup_floor": 4.0, "estimator_speedup_floor_quick": 2.0,
                          "floor_met": true}},
              "serve_cold_derive": {{"batched": {{"placed_per_s": {placed}, "matches_per_item": true}},
                                    "placed_per_s_floor": {floor}, "placed_per_s_floor_quick": 20000,
                                    "met": true}},
              "sharded": {{"matches_single_shard": true}},
              "scaling": {{"matches_single_shard": true, "efficiency_4x": 1.1,
                          "efficiency_4x_floor": 2.5, "gate_active": false, "met": true}},
              "snapshot": {{"bytes": 1000000, "roundtrip_identical": true}},
              "telemetry": {{"full_over_off": 0.99, "full_over_off_floor": 0.95,
                            "full_over_off_floor_quick": 0.70, "gate_active": true,
                            "met": true, "decisions_identical": true}},
              "stream": {{"matches_materialized": true, "peak_bytes_per_vm": 120.0,
                         "peak_bytes_per_vm_ceiling": 256.0,
                         "peak_bytes_per_vm_ceiling_quick": 512.0, "ceiling_met": true}},
              "regression": {regression}
            }}"#
        ))
        .unwrap()
    }

    /// Flip a boolean or number at a dotted path inside a fixture doc.
    fn set(doc: &mut Json, path: &str, value: Json) {
        let Json::Obj(fields) = doc else {
            panic!("not an object")
        };
        let (head, rest) = path
            .split_once('.')
            .map_or((path, None), |(h, r)| (h, Some(r)));
        let slot = fields
            .iter_mut()
            .find(|(k, _)| k == head)
            .map(|(_, v)| v)
            .expect("path exists in fixture");
        match rest {
            None => *slot = value,
            Some(rest) => set(slot, rest, value),
        }
    }

    #[test]
    fn gate_passes_matching_run() {
        let committed = serve_doc(300_000.0, 100_000.0, 8.0, false);
        let fresh = serve_doc(250_000.0, 100_000.0, 6.0, false);
        assert_eq!(gate(&committed, &fresh), Vec::new());
    }

    #[test]
    fn gate_flags_floor_miss_and_self_regression() {
        let committed = serve_doc(300_000.0, 100_000.0, 8.0, false);
        let fresh = serve_doc(80_000.0, 100_000.0, 3.0, true);
        let violations = gate(&committed, &fresh);
        let whats: Vec<&str> = violations.iter().map(|v| v.what.as_str()).collect();
        assert!(whats.contains(&"regression"));
        assert!(whats.contains(&"serve.placed_per_s"));
        assert!(whats.contains(&"probes.estimator_speedup"));
    }

    #[test]
    fn gate_flags_lowered_floor() {
        let committed = serve_doc(300_000.0, 100_000.0, 8.0, false);
        // Value clears the committed floor, but the binary's floor constant
        // was dropped to 50k without regenerating the committed JSON.
        let fresh = serve_doc(250_000.0, 50_000.0, 8.0, false);
        let violations = gate(&committed, &fresh);
        assert!(violations
            .iter()
            .any(|v| v.what == "serve_floor.placed_per_s_floor"));
    }

    #[test]
    fn gate_uses_quick_floor_across_modes() {
        let committed = serve_doc(300_000.0, 100_000.0, 8.0, false);
        let mut fresh = serve_doc(40_000.0, 30_000.0, 2.5, false);
        // Make the fresh run quick-mode: 40k/s clears the 30k quick floor
        // even though it is far below the full floor.
        if let Json::Obj(fields) = &mut fresh {
            for (k, v) in fields.iter_mut() {
                if k == "mode" {
                    *v = Json::Str("quick".to_string());
                }
            }
        }
        assert_eq!(gate(&committed, &fresh), Vec::new());
    }

    #[test]
    fn gated_metrics_skip_value_check_when_disarmed() {
        // Committed file has a disarmed scaling gate (single-core reference
        // container): a fresh run whose own gate is also off passes even
        // though 1.1 is far below the 2.5 floor...
        let committed = serve_doc(300_000.0, 100_000.0, 8.0, false);
        let fresh = serve_doc(250_000.0, 100_000.0, 6.0, false);
        assert_eq!(gate(&committed, &fresh), Vec::new());

        // ...an armed fresh gate enforces the committed floor...
        let mut armed = serve_doc(250_000.0, 100_000.0, 6.0, false);
        set(&mut armed, "scaling.gate_active", Json::Bool(true));
        let violations = gate(&committed, &armed);
        assert!(violations.iter().any(|v| v.what == "scaling.efficiency_4x"));

        // ...and clearing the floor while armed passes.
        let mut armed_fast = serve_doc(250_000.0, 100_000.0, 6.0, false);
        set(&mut armed_fast, "scaling.gate_active", Json::Bool(true));
        set(&mut armed_fast, "scaling.efficiency_4x", Json::Num(3.1));
        assert_eq!(gate(&committed, &armed_fast), Vec::new());

        // Floor integrity stays unconditional: a lowered scaling floor
        // fails even with the gate off.
        let mut lowered = serve_doc(250_000.0, 100_000.0, 6.0, false);
        set(&mut lowered, "scaling.efficiency_4x_floor", Json::Num(0.5));
        assert!(gate(&committed, &lowered)
            .iter()
            .any(|v| v.what == "scaling.efficiency_4x_floor"));

        // The met flags themselves are required: a fresh run that flags a
        // scaling miss fails regardless of gating.
        let mut missed = serve_doc(250_000.0, 100_000.0, 6.0, false);
        set(&mut missed, "scaling.met", Json::Bool(false));
        assert!(gate(&committed, &missed)
            .iter()
            .any(|v| v.what == "scaling.met"));
    }

    #[test]
    fn gate_flags_telemetry_overhead_miss() {
        let committed = serve_doc(300_000.0, 100_000.0, 8.0, false);
        // Full-mode telemetry slipped to 0.80x of Off throughput: below
        // the committed 0.95 floor while the gate is armed.
        let mut fresh = serve_doc(250_000.0, 100_000.0, 6.0, false);
        set(&mut fresh, "telemetry.full_over_off", Json::Num(0.80));
        assert!(gate(&committed, &fresh)
            .iter()
            .any(|v| v.what == "telemetry.full_over_off"));

        // A run that flags non-identical decisions fails outright.
        let mut diverged = serve_doc(250_000.0, 100_000.0, 6.0, false);
        set(
            &mut diverged,
            "telemetry.decisions_identical",
            Json::Bool(false),
        );
        assert!(gate(&committed, &diverged)
            .iter()
            .any(|v| v.what == "telemetry.decisions_identical"));
    }

    #[test]
    fn gate_flags_memory_ceiling_breach_and_raised_ceiling() {
        let committed = serve_doc(300_000.0, 100_000.0, 8.0, false);

        // Ingestion memory grew past the committed per-VM ceiling.
        let mut bloated = serve_doc(250_000.0, 100_000.0, 6.0, false);
        set(&mut bloated, "stream.peak_bytes_per_vm", Json::Num(300.0));
        assert!(gate(&committed, &bloated)
            .iter()
            .any(|v| v.what == "stream.peak_bytes_per_vm"));

        // The binary's ceiling constant was raised without regenerating the
        // committed JSON — the mirror of a silently lowered floor.
        let mut raised = serve_doc(250_000.0, 100_000.0, 6.0, false);
        set(
            &mut raised,
            "stream.peak_bytes_per_vm_ceiling",
            Json::Num(4096.0),
        );
        assert!(gate(&committed, &raised)
            .iter()
            .any(|v| v.what == "stream.peak_bytes_per_vm_ceiling"));

        // A fresh run that flags its own ceiling miss fails outright, and a
        // stream/materialized divergence is a required flag.
        let mut missed = serve_doc(250_000.0, 100_000.0, 6.0, false);
        set(&mut missed, "stream.ceiling_met", Json::Bool(false));
        assert!(gate(&committed, &missed)
            .iter()
            .any(|v| v.what == "stream.ceiling_met"));
        let mut diverged = serve_doc(250_000.0, 100_000.0, 6.0, false);
        set(
            &mut diverged,
            "stream.matches_materialized",
            Json::Bool(false),
        );
        assert!(gate(&committed, &diverged)
            .iter()
            .any(|v| v.what == "stream.matches_materialized"));
    }

    #[test]
    fn gate_uses_quick_ceiling_across_modes() {
        let committed = serve_doc(300_000.0, 100_000.0, 8.0, false);
        // Quick traces amortize the stream's fixed buffers over fewer VMs:
        // 400 B/VM breaches the 256 B full ceiling but clears the 512 B
        // quick companion.
        let mut fresh = serve_doc(40_000.0, 30_000.0, 2.5, false);
        if let Json::Obj(fields) = &mut fresh {
            for (k, v) in fields.iter_mut() {
                if k == "mode" {
                    *v = Json::Str("quick".to_string());
                }
            }
        }
        set(&mut fresh, "stream.peak_bytes_per_vm", Json::Num(400.0));
        assert_eq!(gate(&committed, &fresh), Vec::new());
    }

    fn scenarios_doc(mode: &str, min: f64, floor: f64, all_match: bool) -> Json {
        Json::parse(&format!(
            r#"{{
              "schema": "coach/bench_scenarios/v1", "mode": "{mode}",
              "identity": {{"all_match": {all_match}}},
              "min_placed_per_s": {min},
              "serve_floor": {{"placed_per_s_floor": {floor},
                              "placed_per_s_floor_quick": 8000, "met": true}},
              "regression": false
            }}"#
        ))
        .unwrap()
    }

    #[test]
    fn gate_covers_scenarios_family() {
        let committed = scenarios_doc("full", 40_000.0, 20_000.0, true);

        // A same-mode run holding the floor passes.
        let fresh = scenarios_doc("full", 30_000.0, 20_000.0, true);
        assert_eq!(gate(&committed, &fresh), Vec::new());

        // A quick CI run is held to the committed quick companion floor.
        let quick = scenarios_doc("quick", 9_000.0, 8_000.0, true);
        assert_eq!(gate(&committed, &quick), Vec::new());
        let slow_quick = scenarios_doc("quick", 5_000.0, 8_000.0, true);
        assert!(gate(&committed, &slow_quick)
            .iter()
            .any(|v| v.what == "min_placed_per_s"));

        // Any scenario diverging from its materialized replay fails.
        let diverged = scenarios_doc("full", 30_000.0, 20_000.0, false);
        assert!(gate(&committed, &diverged)
            .iter()
            .any(|v| v.what == "identity.all_match"));
    }

    #[test]
    fn gate_rejects_schema_family_mismatch() {
        let committed = serve_doc(300_000.0, 100_000.0, 8.0, false);
        let fresh = Json::parse(
            r#"{"schema": "coach/bench_pipeline/v3", "mode": "full", "regression": false}"#,
        )
        .unwrap();
        assert!(gate(&committed, &fresh).iter().any(|v| v.what == "schema"));
    }
}
