//! The metric catalogue: every end-to-end and per-layer metric the
//! benchmark reports, with its unit and which direction is better.
//! `BENCHMARK.json` at the repository root declares the same lists; a
//! test holds the two equal.

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

/// One declared metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Def {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> Def {
    Def {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> Def {
    Def {
        name,
        unit,
        better: Better::Higher,
    }
}

/// End-to-end metrics, reported with tracing off by every workload.
pub const END_TO_END: [Def; 6] = [
    lower("setup_s", "s"),
    lower("peak_rss_mb", "MiB"),
    lower("regen_wall_s", "s"),
    lower("serve_cpu_us_per_req", "us"),
    higher("sim_maccess_per_s", "Macc/s"),
    higher("sim_seq_maccess_per_s", "Macc/s"),
];

/// Per-layer metrics, reported by the traced run.
pub const PER_LAYER: [Def; 54] = [
    lower("numerics.power_law_fit_us", "us"),
    lower("core.solve_us", "us"),
    lower("core.canonical_digest_ns", "ns"),
    lower("core.sweep_us", "us"),
    lower("core.combine_us", "us"),
    higher("trace.stack_distance_maccess_s", "Macc/s"),
    higher("trace.miss_probe_maccess_s", "Macc/s"),
    higher("trace.parsec_maccess_s", "Macc/s"),
    lower("compress.fpc.size_ns", "ns"),
    lower("compress.bdi.size_ns", "ns"),
    lower("compress.zero_rle.size_ns", "ns"),
    lower("compress.best_of.size_ns", "ns"),
    higher("compress.best_of.ratio", "ratio"),
    higher("cache_sim.full_line_maccess_s", "Macc/s"),
    higher("cache_sim.hierarchy_maccess_s", "Macc/s"),
    higher("cache_sim.coherent_maccess_s", "Macc/s"),
    higher("cache_sim.seq_replay_maccess_s", "Macc/s"),
    higher("cache_sim.banked_replay_maccess_s", "Macc/s"),
    higher("cache_sim.banked_speedup", "ratio"),
    lower("cache_sim.producer_share", "ratio"),
    higher("cache_sim.accesses", "count"),
    lower("cache_sim.misses", "count"),
    lower("cache_sim.fetch_bytes", "bytes"),
    lower("cache_sim.writeback_bytes", "bytes"),
    lower("exp.fig01_power_law_s", "s"),
    lower("exp.ablate_replacement_s", "s"),
    lower("exp.coherence_study_s", "s"),
    lower("exp.ablate_inclusion_s", "s"),
    lower("exp.validate_writeback_s", "s"),
    lower("exp.validate_line_size_s", "s"),
    lower("exp.fig14_parsec_sharing_s", "s"),
    lower("exp.combo_sim_s", "s"),
    lower("exp.predictor_study_s", "s"),
    lower("exp.analytic_s", "s"),
    lower("regen.critical_path_s", "s"),
    higher("regen.busy_share", "ratio"),
    lower("serve.http_read_ns", "ns"),
    lower("serve.api_parse_ns", "ns"),
    lower("serve.memo_hit_ns", "ns"),
    lower("serve.memo_put_ns", "ns"),
    lower("serve.solve_fragment_us", "us"),
    lower("serve.encode_ns", "ns"),
    lower("serve.queue_ns", "ns"),
    lower("serve.p50_ms", "ms"),
    lower("serve.p99_ms", "ms"),
    higher("serve.max_rps", "req/s"),
    higher("serve.memo_hit_ratio", "ratio"),
    lower("serve.shed", "count"),
    lower("serve.deadline_exceeded", "count"),
    lower("serve.internal", "count"),
    lower("loadgen.late_p99_ms", "ms"),
    lower("serve.backlog_max", "count"),
    lower("serve.sharded_conn_wait_ms", "ms"),
    lower("serve.sharded_deadline_exceeded", "count"),
];

/// Tracing overhead: the traced run's end-to-end figures minus the
/// untraced ones, measured side by side in the traced run (reported with
/// the per-layer metrics).
pub const OVERHEAD: [Def; 3] = [
    lower("trace_overhead.regen_wall_s", "s"),
    lower("trace_overhead.serve_cpu_us_per_req", "us"),
    lower("trace_overhead.sim_maccess_per_s", "Macc/s"),
];

/// Every per-layer metric the traced run reports, overhead included.
pub fn traced() -> impl Iterator<Item = &'static Def> {
    PER_LAYER.iter().chain(OVERHEAD.iter())
}

/// Looks a metric up by name.
pub fn find(name: &str) -> Option<&'static Def> {
    END_TO_END.iter().chain(traced()).find(|d| d.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bandwall_experiments::serve::json::Json;
    use std::collections::BTreeSet;

    /// Whether `name` is a valid metric name: starts with a letter or digit,
    /// at most 64 characters of letters, digits, `_`, `.` and `-`.
    fn valid_name(name: &str) -> bool {
        let mut chars = name.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    /// Whether `unit` is a valid unit: 1 to 16 characters of letters,
    /// digits, `_`, `/`, `%`, `.` and `-`.
    fn valid_unit(unit: &str) -> bool {
        (1..=16).contains(&unit.len())
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn names_and_units_are_valid_and_unique() {
        let mut seen = BTreeSet::new();
        for def in END_TO_END.iter().chain(traced()) {
            assert!(valid_name(def.name), "bad name {}", def.name);
            assert!(
                valid_unit(def.unit),
                "bad unit {} of {}",
                def.unit,
                def.name
            );
            assert!(seen.insert(def.name), "duplicate {}", def.name);
        }
        assert!(!valid_name(""));
        assert!(!valid_name("_x"));
        assert!(!valid_name("a b"));
        assert!(!valid_name(&"a".repeat(65)));
        assert!(!valid_unit("M acc/s"));
        assert!(find("setup_s").is_some_and(|d| d.unit == "s" && d.better == Better::Lower));
    }

    fn declared(doc: &Json, key: &str) -> Vec<(String, String, String)> {
        doc.as_obj().expect("object")[key]
            .as_arr()
            .expect("metric list")
            .iter()
            .map(|m| {
                let m = m.as_obj().expect("metric object");
                let text = |k: &str| m[k].as_str().expect("string field").to_string();
                (text("name"), text("unit"), text("better"))
            })
            .collect()
    }

    fn listed<'a>(defs: impl Iterator<Item = &'a Def>) -> Vec<(String, String, String)> {
        defs.map(|d| {
            let better = match d.better {
                Better::Lower => "lower",
                Better::Higher => "higher",
            };
            (d.name.to_string(), d.unit.to_string(), better.to_string())
        })
        .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        assert_eq!(declared(&doc, "end_to_end"), listed(END_TO_END.iter()));
        assert_eq!(declared(&doc, "per_layer"), listed(traced()));
        let bounds: Vec<f64> = doc.as_obj().expect("object")["end_to_end"]
            .as_arr()
            .expect("metric list")
            .iter()
            .map(|m| {
                m.as_obj().expect("metric")["bound"]
                    .as_num()
                    .expect("bound")
            })
            .collect();
        let setup = bounds[0];
        assert!(bounds.iter().all(|&b| b > 0.0 && b <= 0.25));
        assert!(
            bounds.iter().all(|&b| b <= setup),
            "setup_s has the largest bound"
        );
        let workloads: Vec<String> = doc.as_obj().expect("object")["workloads"]
            .as_arr()
            .expect("workload list")
            .iter()
            .map(|w| {
                w.as_obj().expect("workload")["name"]
                    .as_str()
                    .expect("name")
                    .to_string()
            })
            .collect();
        assert_eq!(workloads, crate::WORKLOADS.map(String::from));
    }
}
