//! One submodule per paper artifact, sharing an [`ExperimentContext`], and
//! the one table ([`EXPERIMENTS`]) the `repro` harness drives them from.

pub mod chunking;
pub mod concurrency;
pub mod crash;
pub mod ext_cluster;
pub mod faults;
pub mod fig10;
pub mod fig11;
pub mod fig2;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod fleet;
pub mod profile;
pub mod table2;
pub mod tiering;

use std::path::Path;

use gear_client::ClientConfig;
use gear_corpus::{Corpus, CorpusConfig};
use gear_simnet::DiskModel;

use self::fig8::PublishedCorpus;
use crate::artifact::Outcome;

/// Shared setup for all experiments: the corpus plus the client cost model
/// calibrated to the paper's testbed.
#[derive(Debug)]
pub struct ExperimentContext {
    /// The generated corpus.
    pub corpus: Corpus,
    /// Client configuration (link swapped per experiment as needed).
    pub client_config: ClientConfig,
}

impl ExperimentContext {
    /// Builds a context from a corpus config.
    pub fn new(config: &CorpusConfig) -> Self {
        let corpus = Corpus::generate(config);
        let client_config = ClientConfig::paper_testbed(config.scale_denom);
        ExperimentContext { corpus, client_config }
    }

    /// A small, fast context for tests.
    pub fn quick() -> Self {
        Self::new(&CorpusConfig::quick())
    }

    /// The paper-shaped context (all 50 series, 971 images).
    pub fn paper() -> Self {
        Self::new(&CorpusConfig::paper())
    }

    /// `preferred` when the corpus has that series, else the corpus's first
    /// series — reduced corpora may lack the series an experiment defaults
    /// to.
    pub fn series_or_first<'a>(&'a self, preferred: &'a str) -> &'a str {
        match self.corpus.series_by_name(preferred) {
            Some(_) => preferred,
            None => self.corpus.series[0].spec.name,
        }
    }
}

/// What the harness hands every experiment's [`Experiment::run`].
#[derive(Clone, Copy)]
pub struct RunCtx<'a> {
    /// The corpus and client cost model.
    pub ctx: &'a ExperimentContext,
    /// The corpus published to both registries — present iff a requested
    /// experiment says it [`Experiment::needs_publish`].
    pub published: Option<&'a PublishedCorpus>,
    /// `--trace DIR`: where `profile` writes and validates its exports.
    pub trace: Option<&'a Path>,
}

impl RunCtx<'_> {
    fn published(&self) -> Result<&PublishedCorpus, String> {
        self.published
            .ok_or_else(|| "uses the published corpus but its entry lacks `needs_publish`".into())
    }
}

/// Runs one experiment: the rendered table with its metrics and gates, or
/// why it could not run.
pub type RunFn = fn(&RunCtx<'_>) -> Result<Outcome, String>;

/// One `repro` experiment.
#[derive(Debug)]
pub struct Experiment {
    /// Name on the `repro` command line (and in `BENCH_<name>.json`).
    pub name: &'static str,
    /// Whether `all` (and a bare `repro`) includes it.
    pub in_all: bool,
    /// Whether it deploys from the shared published corpus.
    pub needs_publish: bool,
    /// Runs it.
    pub run: RunFn,
}

/// An `all` experiment that needs only the corpus.
const fn local(name: &'static str, run: RunFn) -> Experiment {
    Experiment { name, in_all: true, needs_publish: false, run }
}

/// An `all` experiment that deploys from the published corpus.
const fn deploys(name: &'static str, run: RunFn) -> Experiment {
    Experiment { name, in_all: true, needs_publish: true, run }
}

/// Every experiment `repro` knows, in `all` order. `--help`, name
/// validation, `all`, the publish decision and the baseline's experiment
/// prefixes all read this table and nothing else.
pub static EXPERIMENTS: &[Experiment] = &[
    local("table2", |rc| Ok(Outcome::text(&table2::run(rc.ctx)))),
    local("fig2", |rc| Ok(Outcome::text(&fig2::run(rc.ctx)))),
    local("fig6", |rc| Ok(Outcome::text(&fig6::run(rc.ctx)))),
    local("fig7", |rc| Ok(Outcome::text(&fig7::run(rc.ctx)))),
    deploys("fig8", |rc| Ok(Outcome::text(&fig8::run(rc.ctx, rc.published()?)))),
    deploys("fig9", |rc| {
        let result = fig9::run(rc.ctx, rc.published()?);
        Ok(Outcome { metrics: result.metrics(), ..Outcome::text(&result) })
    }),
    deploys("fig10", |rc| {
        let series = rc.ctx.series_or_first("tomcat");
        Ok(Outcome::text(&fig10::run(rc.ctx, rc.published()?, series)))
    }),
    deploys("fig11", |rc| Ok(Outcome::text(&fig11::run(rc.ctx, rc.published()?)))),
    deploys("concurrency", |rc| Ok(concurrency::run(rc.ctx, rc.published()?).outcome())),
    deploys("cluster", |rc| {
        let series = rc.ctx.series_or_first("postgres");
        Ok(Outcome::text(&ext_cluster::run(rc.ctx, rc.published()?, series)))
    }),
    deploys("faults", |rc| Ok(Outcome::text(&faults::run(rc.ctx, rc.published()?)))),
    local("crash", |_| Ok(crash::run().outcome())),
    deploys("tiering", |rc| Ok(tiering::run(rc.ctx, rc.published()?).outcome())),
    // Builds its own file- and chunk-granularity registries, so it does not
    // use the shared published corpus.
    local("chunking", |rc| Ok(chunking::run(rc.ctx).outcome())),
    local("fleet", |rc| {
        let fleet = fleet::run(rc.ctx, rc.ctx.series_or_first("redis"));
        Ok(fleet.map_err(|e| e.to_string())?.outcome())
    }),
    Experiment {
        in_all: false,
        ..local("profile", |rc| {
            let result = profile::run(rc.ctx);
            if let Some(dir) = rc.trace {
                result.export(dir)?;
            }
            Ok(Outcome::text(&result))
        })
    },
];

/// Resolves command-line experiment names against [`EXPERIMENTS`] — before
/// any corpus is generated, so a typo costs nothing. `all` expands to every
/// `in_all` entry; repeats collapse.
///
/// # Errors
///
/// The first name that is neither `all` nor in the table.
pub fn select(names: &[String]) -> Result<Vec<&'static Experiment>, String> {
    let mut wanted: Vec<&'static Experiment> = Vec::new();
    for name in names {
        let matching: Vec<_> = EXPERIMENTS
            .iter()
            .filter(|e| if name == "all" { e.in_all } else { e.name == name })
            .collect();
        if matching.is_empty() {
            return Err(format!("unknown experiment {name:?} (known: {}|all)", names_usage()));
        }
        for experiment in matching {
            if !wanted.iter().any(|w| w.name == experiment.name) {
                wanted.push(experiment);
            }
        }
    }
    Ok(wanted)
}

/// Every experiment name, `|`-separated, for usage messages.
pub fn names_usage() -> String {
    EXPERIMENTS.iter().map(|e| e.name).collect::<Vec<_>>().join("|")
}

/// Formats a byte count at paper scale as a human-readable string.
pub fn human_bytes(bytes: u64) -> String {
    const UNITS: [&str; 5] = ["B", "KB", "MB", "GB", "TB"];
    let mut value = bytes as f64;
    let mut unit = 0;
    while value >= 1000.0 && unit < UNITS.len() - 1 {
        value /= 1000.0;
        unit += 1;
    }
    if unit == 0 {
        format!("{bytes} B")
    } else {
        format!("{value:.1} {}", UNITS[unit])
    }
}

/// Formats a duration as seconds with two decimals.
pub fn secs(d: std::time::Duration) -> String {
    format!("{:.2}s", d.as_secs_f64())
}

/// The disk models the `tiering` and `crash` sweeps price, fastest first.
pub fn disk_models() -> [(&'static str, DiskModel); 4] {
    [
        ("ram", DiskModel::ram()),
        ("nvme", DiskModel::nvme()),
        ("ssd", DiskModel::ssd()),
        ("hdd", DiskModel::hdd()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn human_bytes_units() {
        assert_eq!(human_bytes(512), "512 B");
        assert_eq!(human_bytes(1_500), "1.5 KB");
        assert_eq!(human_bytes(2_000_000), "2.0 MB");
        assert_eq!(human_bytes(3_540_000_000), "3.5 GB");
    }

    #[test]
    fn quick_context_builds() {
        let ctx = ExperimentContext::quick();
        assert!(ctx.corpus.image_count() > 0);
        assert!(ctx.client_config.byte_scale > 1);
        assert_eq!(ctx.series_or_first("redis"), "redis");
        assert_eq!(ctx.series_or_first("no-such-series"), ctx.corpus.series[0].spec.name);
    }

    fn names(experiments: &[&Experiment]) -> Vec<&'static str> {
        experiments.iter().map(|e| e.name).collect()
    }

    #[test]
    fn select_rejects_unknown_names_and_expands_all() {
        let select = |names: &[&str]| {
            select(&names.iter().map(|n| (*n).to_owned()).collect::<Vec<_>>())
        };
        for bad in [&["fig99"][..], &["table2", "fig99"], &["all", "nope"], &[""]] {
            let err = select(bad).expect_err("typos are rejected");
            assert!(err.contains(&format!("{:?}", bad.last().unwrap())), "{err}");
        }

        let everything_but_profile: Vec<_> =
            EXPERIMENTS.iter().map(|e| e.name).filter(|n| *n != "profile").collect();
        assert_eq!(names(&select(&["all"]).unwrap()), everything_but_profile);
        assert_eq!(names(&select(&["fig9", "table2", "fig9"]).unwrap()), ["fig9", "table2"]);
        let with_profile = names(&select(&["all", "profile", "fig2"]).unwrap());
        assert_eq!(with_profile.len(), EXPERIMENTS.len());
        assert_eq!(with_profile.last(), Some(&"profile"));
    }

    #[test]
    fn table_names_are_unique_and_the_checked_in_baseline_names_only_them() {
        for (i, e) in EXPERIMENTS.iter().enumerate() {
            assert!(EXPERIMENTS[..i].iter().all(|other| other.name != e.name), "{} twice", e.name);
            // `all` is reserved, and baseline keys split at the first `/`.
            assert!(e.name != "all" && !e.name.contains('/'), "{}", e.name);
        }
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../ci/bench-baseline-quick.json");
        let baseline = crate::artifact::Baseline::load(&path).expect("checked-in baseline parses");
        assert!(!baseline.bounds.is_empty());
        for bound in &baseline.bounds {
            let (experiment, key) = bound.key.split_once('/').expect("keys are <experiment>/<key>");
            assert!(EXPERIMENTS.iter().any(|e| e.name == experiment), "{}", bound.key);
            // Every recorded bound is a pin: a floor and a ceiling at one value.
            assert!(!key.is_empty() && bound.min.is_some() && bound.min == bound.max, "{bound:?}");
        }
    }

    /// `repro` is a pure function of its code and corpus flags: no
    /// experiment reads a clock, an unseeded RNG or hash-map order.
    #[test]
    fn every_experiment_is_a_pure_function_of_the_corpus() {
        let ctx = ExperimentContext::quick();
        let published = fig8::publish_corpus(&ctx);
        let rc = RunCtx { ctx: &ctx, published: Some(&published), trace: None };
        for experiment in EXPERIMENTS.iter().filter(|e| e.in_all) {
            let [first, second] = [(); 2].map(|()| (experiment.run)(&rc).expect(experiment.name));
            assert_eq!(first.text, second.text, "{}: rendered table drifted", experiment.name);
            assert_eq!(
                serde_json::to_string(&first.metrics).unwrap(),
                serde_json::to_string(&second.metrics).unwrap(),
                "{}: metrics drifted",
                experiment.name
            );
        }
    }

    /// Walks object fields; a missing one is the test's failure message.
    fn at<'a>(doc: &'a serde_json::Value, path: &[&str]) -> &'a serde_json::Value {
        crate::schema::field_path(doc, path).unwrap_or_else(|| panic!("no {path:?}"))
    }

    /// `bench/history.jsonl` holds one frozen-benchmark run per PR. The
    /// seed-exact columns may move only under a stated reason, and the
    /// newest row may not worsen an allocation column beyond the bound
    /// `BENCHMARK.json` gives it.
    #[test]
    fn benchmark_history_moves_only_with_a_reason_and_within_bounds() {
        use serde_json::Value;
        const EXACT: [&str; 4] = ["sim_p50_s", "sim_tail_s", "sim_total_s", "net_mb_per_op"];
        const BOUNDED: [&str; 3] = ["allocs_per_op", "alloc_mb_per_op", "peak_live_mb"];

        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let read = |file: &str| std::fs::read_to_string(root.join(file)).expect(file);
        let declared: Value = serde_json::from_str(&read("BENCHMARK.json")).expect("parses");
        let names = |list: &str| -> Vec<&str> {
            let entries = at(&declared, &[list]).as_array().expect(list);
            entries.iter().map(|e| at(e, &["name"]).as_str().expect("name")).collect()
        };
        let (workloads, metrics) = (names("workloads"), names("end_to_end"));
        let history = read("bench/history.jsonl");
        let rows: Vec<Value> =
            history.lines().map(|l| serde_json::from_str(l).expect("row parses")).collect();
        let value = |row: &Value, workload: &str, metric: &str| -> f64 {
            at(row, &["workloads", workload, metric, "value"]).as_f64().expect("a number")
        };

        for row in &rows {
            assert_eq!(at(row, &["seed"]).as_u64(), Some(7), "{row:?}");
            let table = at(row, &["workloads"]).as_object().expect("workloads");
            assert_eq!(table.len(), workloads.len(), "{row:?}");
            for workload in &workloads {
                let cells = at(row, &["workloads", workload]).as_object().expect("metrics");
                assert_eq!(cells.len(), metrics.len(), "{workload} of {row:?}");
                assert!(metrics.iter().all(|metric| value(row, workload, metric).is_finite()));
            }
        }
        for pair in rows.windows(2) {
            let commit = at(&pair[1], &["commit"]).as_str().expect("commit");
            let fields = pair[1].as_object().expect("row");
            if fields.get("moved").and_then(Value::as_str).is_some_and(|why| !why.is_empty()) {
                continue;
            }
            for (workload, metric) in workloads.iter().flat_map(|w| EXACT.map(|m| (w, m))) {
                let [was, is] = [0, 1].map(|i| value(&pair[i], workload, metric));
                let same = was.to_bits() == is.to_bits();
                assert!(same, "{commit}: {workload}/{metric} {was} -> {is} and no \"moved\" note");
            }
        }
        let Some([previous, last]) = rows.last_chunk() else { panic!("under two rows") };
        let end_to_end = at(&declared, &["end_to_end"]).as_array().expect("end_to_end");
        for metric in BOUNDED {
            let entry = end_to_end.iter().find(|e| at(e, &["name"]).as_str() == Some(metric));
            let entry = entry.expect(metric);
            assert_eq!(at(entry, &["better"]).as_str(), Some("lower"), "{metric}");
            let bound = at(entry, &["bound"]).as_f64().expect("bound");
            for workload in &workloads {
                let (was, is) = (value(previous, workload, metric), value(last, workload, metric));
                assert!(is <= was * (1.0 + bound), "{workload}/{metric}: {was} -> {is}");
            }
        }
    }
}
