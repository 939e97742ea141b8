//! A flash crowd on a P2P [`Cluster`] under a [`FleetCollector`]: every
//! client deploys the same image round-robin over the nodes, each node
//! recording into its own bounded flight-recorder shard, and the
//! deployment-time tails are read from the merged per-node sketches —
//! exactly the data path a real fleet collector has.

use std::time::Duration;

use gear_client::ClientConfig;
use gear_core::{publish, Converter};
use gear_corpus::{Corpus, CorpusConfig};
use gear_p2p::{Cluster, ClusterConfig};
use gear_registry::{DockerRegistry, GearFileStore};
use gear_telemetry::FleetCollector;

const NODES: u32 = 4;
const CLIENTS: u32 = 400;
/// Spans each node's flight recorder retains (the memory bound).
const SPAN_CAPACITY: usize = 512;

/// What one crowd left in the fleet collector.
struct Crowd {
    p50: Duration,
    p99: Duration,
    p999: Duration,
    max: Duration,
    samples: u64,
    collector_bytes: u64,
    dropped_spans: u64,
    validation_problems: Vec<String>,
    /// Merged `(trace.json, metrics.json)` exports.
    exports: (String, String),
}

fn flash_crowd() -> Crowd {
    let config = CorpusConfig::quick();
    let corpus = Corpus::generate(&config);
    let series = corpus.series_by_name("redis").expect("redis in the quick corpus");
    let (image, trace) = series.images.last().zip(series.traces.last()).expect("redis has images");
    let mut gear_index = DockerRegistry::new();
    let mut gear_files = GearFileStore::with_compression();
    let conversion = Converter::new().convert(image).expect("corpus images convert");
    publish(&conversion, &mut gear_index, &mut gear_files);

    let fleet = FleetCollector::new(NODES, SPAN_CAPACITY);
    let client = ClientConfig::paper_testbed(config.scale_denom);
    let mut cluster = Cluster::new(ClusterConfig::edge(NODES as usize).with_client(client));
    for i in 0..CLIENTS {
        let node = i % NODES;
        cluster.set_recorder(fleet.telemetry(node));
        cluster
            .deploy_on(node as usize, image.reference(), trace, &gear_index, &gear_files)
            .expect("crowd deploys");
    }

    let merged = fleet.merged_metrics().expect("per-node sketches merge");
    let sketch = merged.sketch("p2p.deploy_nanos").expect("deployments were sampled").clone();
    let at = |q: f64| Duration::from_nanos(sketch.quantile(q).unwrap_or(0));
    let sketch_bytes: u64 = merged.sketches().map(|(_, s)| s.memory_bytes()).sum();
    Crowd {
        p50: at(0.5),
        p99: at(0.99),
        p999: at(0.999),
        max: Duration::from_nanos(sketch.max().unwrap_or(0)),
        samples: sketch.count(),
        collector_bytes: fleet.span_bytes() + sketch_bytes,
        dropped_spans: fleet.dropped_spans(),
        validation_problems: fleet.validate(),
        exports: (fleet.trace_json(), fleet.metrics_json().expect("per-node sketches merge")),
    }
}

#[test]
fn flash_crowd_tails_are_bounded_and_deterministic() {
    let crowd = flash_crowd();
    assert!(crowd.samples >= u64::from(CLIENTS));
    assert!(crowd.p50 <= crowd.p99 && crowd.p99 <= crowd.p999 && crowd.p999 <= crowd.max);
    // Nearly every client lands on a warm node: the median must sit far
    // below the worst (cold) deployment.
    assert!(crowd.p50 < crowd.max, "p50 {:?} vs max {:?}", crowd.p50, crowd.max);
    assert_eq!(crowd.validation_problems, [""; 0]);
    // The flight recorder evicted spans (400 deployments × several spans
    // each cannot fit 4 × 512) yet memory stayed bounded.
    assert!(crowd.dropped_spans > 0, "cap must have engaged");
    // Generous static ceiling: 4 shards × 512 spans × ~200 B plus sketch
    // buckets is well under 2 MB.
    assert!(crowd.collector_bytes < 2 << 20, "collector grew: {}", crowd.collector_bytes);

    assert!(crowd.exports == flash_crowd().exports, "fixed seed must export identical bytes");
}
