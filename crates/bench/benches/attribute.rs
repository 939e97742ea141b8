//! Where the host time of a publish goes, read from the product's own spans.
//!
//! The four frozen-benchmark workloads share one set-up: a seeded corpus
//! (scale 1/1024, at most four versions per series, 199 images) pushed to a
//! Docker registry and converted and published into a Gear index registry
//! and a compressing Gear file store. This bench runs that set-up through
//! the current verbs with the converter and both Gear registries recording
//! on one collector that has a host clock, each image's convert + publish
//! bracketed by a `bench/publish_op` span. It prints, per span
//! `(category, name)`, the calls, the total time and the self time (total
//! less the time of the spans directly inside), and checks that the self
//! times of every op's spans add up to that op, to the nanosecond.
//!
//! ```sh
//! cargo bench -p gear-bench --bench attribute
//! ```
//!
//! The set-up runs three times over the same corpus, on fresh registries;
//! the pass with the smallest total is printed, since this shared runner's
//! speed moves from pass to pass. The Docker baseline push is set-up work
//! outside the ops and is not timed.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use gear_core::{publish, Converter, ConverterOptions};
use gear_corpus::{Corpus, CorpusConfig};
use gear_registry::{DockerRegistry, GearFileStore};
use gear_simnet::DiskModel;
use gear_telemetry::{Collector, SpanData, Telemetry};

/// The frozen benchmark's default corpus seed.
const SEED: u64 = 0x6EA2;
/// The frozen benchmark's corpus scale and version cap.
const SCALE_DENOM: u64 = 1024;
const MAX_VERSIONS: usize = 4;
const PASSES: usize = 3;

/// The host clock the collector is handed: time since the pass began.
#[allow(
    clippy::disallowed_methods,
    reason = "this bench exists to attribute host time; `repro` and the library crates stay clock-free"
)]
fn now() -> Instant {
    Instant::now()
}

/// One set-up pass over `corpus`; the spans it recorded.
fn pass(corpus: &Corpus) -> Vec<SpanData> {
    let start = now();
    let collector = Arc::new(Collector::with_clock(move || now() - start));
    let telemetry = Telemetry::new(Arc::clone(&collector));
    // The benchmark's converter: its options feed only the time estimate.
    let mut converter = Converter::with_options(ConverterOptions {
        disk: DiskModel::hdd(),
        byte_scale: SCALE_DENOM,
        count_scale: 22.0,
        ..Default::default()
    });
    converter.set_recorder(telemetry.clone());
    let mut docker = DockerRegistry::new();
    let mut index = DockerRegistry::new();
    let mut files = GearFileStore::with_compression();
    index.set_recorder(telemetry.clone());
    files.set_recorder(telemetry.clone());
    for series in &corpus.series {
        for image in &series.images {
            docker.push_image(image);
            let _op = telemetry.enter("bench", "publish_op");
            let conversion = converter.convert(image).expect("corpus images convert");
            publish(&conversion, &mut index, &mut files);
        }
    }
    let problems = collector.validate();
    assert!(problems.is_empty(), "{problems:?}");
    collector.spans()
}

/// Per `(category, name)`: calls, total and self nanoseconds, depth of the
/// first call; rows in first-call order.
struct Attribution {
    rows: Vec<((&'static str, String), usize, [u64; 3])>,
    ops: u64,
    op_nanos: u64,
}

fn nanos(span: &SpanData) -> u64 {
    let end = span.end.expect("every span closed");
    u64::try_from((end - span.start).as_nanos()).expect("a pass is shorter than 584 years")
}

/// Self time of each span, checked to add up to each op exactly.
fn attribute(spans: &[SpanData]) -> Attribution {
    // The collector is unbounded, so a span's local id is its index.
    let mut inside = vec![0u64; spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            inside[parent as usize] += nanos(span);
        }
    }
    let own: Vec<u64> = spans
        .iter()
        .zip(&inside)
        .map(|(span, inside)| nanos(span).checked_sub(*inside).expect("children fit their parent"))
        .collect();
    // Each span's op: the `bench` span it lies under.
    let mut op_of = vec![usize::MAX; spans.len()];
    let mut op_self = HashMap::new();
    let mut depth = vec![0usize; spans.len()];
    for (i, span) in spans.iter().enumerate() {
        match span.parent {
            None => {
                assert_eq!(span.cat, "bench", "{}/{} outside an op", span.cat, span.name);
                op_of[i] = i;
            }
            Some(parent) => {
                op_of[i] = op_of[parent as usize];
                depth[i] = depth[parent as usize] + 1;
            }
        }
        *op_self.entry(op_of[i]).or_insert(0u64) += own[i];
    }
    let mut op_nanos = 0;
    for (&op, &sum) in &op_self {
        assert_eq!(sum, nanos(&spans[op]), "op {op}: self times do not add up to the op");
        op_nanos += sum;
    }
    let mut rows: Vec<((&'static str, String), usize, [u64; 3])> = Vec::new();
    let mut row_of = HashMap::new();
    for (i, span) in spans.iter().enumerate() {
        let key = (span.cat, span.name.clone());
        let row = *row_of.entry(key.clone()).or_insert_with(|| {
            rows.push((key, depth[i], [0; 3]));
            rows.len() - 1
        });
        let totals = &mut rows[row].2;
        totals[0] += 1;
        totals[1] += nanos(span);
        totals[2] += own[i];
    }
    Attribution { rows, ops: op_self.len() as u64, op_nanos }
}

fn main() {
    let corpus = Corpus::generate(&CorpusConfig {
        seed: SEED,
        scale_denom: SCALE_DENOM,
        series: None,
        max_versions: Some(MAX_VERSIONS),
    });
    let passes: Vec<Attribution> = (0..PASSES).map(|_| attribute(&pass(&corpus))).collect();
    let (fastest, best) =
        passes.iter().enumerate().min_by_key(|(_, a)| a.op_nanos).expect("at least one pass");
    let ms = |n: u64| n as f64 / 1e6;
    println!(
        "attribute: publish set-up, seed {SEED:#x}, {} ops; pass {} of {PASSES} (the fastest; totals {})",
        best.ops,
        fastest + 1,
        passes.iter().map(|a| format!("{:.1} ms", ms(a.op_nanos))).collect::<Vec<_>>().join(", ")
    );
    println!("{:<34}{:>8}{:>12}{:>12}{:>8}", "span", "calls", "total ms", "self ms", "self %");
    for ((cat, name), depth, [calls, total, own]) in &best.rows {
        let label = format!("{}{cat}/{name}", "  ".repeat(*depth));
        println!(
            "{label:<34}{calls:>8}{:>12.2}{:>12.2}{:>8.1}",
            ms(*total),
            ms(*own),
            100.0 * *own as f64 / best.op_nanos as f64
        );
    }
    let own_sum: u64 = best.rows.iter().map(|(_, _, totals)| totals[2]).sum();
    assert_eq!(own_sum, best.op_nanos);
    println!(
        "self times sum to {own_sum} ns = the {} traced ops' total, each op to the nanosecond",
        best.ops
    );
}
