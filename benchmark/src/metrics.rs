//! The metric names and units the benchmark prints — the same lists
//! `BENCHMARK.json` declares (a unit test keeps the two in step).

/// End-to-end metrics: the same nine on every workload. `sim_s` is
/// simulated seconds — `gear-simnet` time, exact for a seed — as opposed
/// to `s`, host wall-clock seconds.
pub const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("ops_per_s", "op/s"),
    ("sim_p50_s", "sim_s"),
    ("sim_tail_s", "sim_s"),
    ("sim_total_s", "sim_s"),
    ("net_mb_per_op", "MB"),
    ("peak_live_mb", "MB"),
    ("alloc_mb_per_op", "MB"),
    ("allocs_per_op", "count"),
];

/// Per-layer metrics. A traced run prints all of them on every workload;
/// a layer the workload never enters reports 0 (no calls, no time).
pub const PER_LAYER: [(&str, &str); 62] = [
    // publish
    ("image.root_fs_ms", "ms"),
    ("hash.fingerprint_ms", "ms"),
    ("hash.mb_per_s", "MB/s"),
    ("hash.par_speedup", "ratio"),
    ("core.convert_ms", "ms"),
    ("core.convert_self_ms", "ms"),
    ("core.index_encode_ms", "ms"),
    ("compress.size_ms", "ms"),
    ("compress.mb_per_s", "MB/s"),
    ("compress.ratio", "ratio"),
    ("registry.upload_ms", "ms"),
    ("registry.upload_self_ms", "ms"),
    ("registry.dedup_ratio", "ratio"),
    ("registry.push_index_ms", "ms"),
    ("core.publish_ms", "ms"),
    ("core.files_scanned", "count"),
    ("core.unique_files", "count"),
    ("registry.objects", "count"),
    ("registry.stored_mb", "MB"),
    // deploy_cold and rollout
    ("registry.manifest_ms", "ms"),
    ("compress.decompress_ms", "ms"),
    ("compress.decompress_mb_per_s", "MB/s"),
    ("core.index_decode_ms", "ms"),
    ("core.index_to_tree_ms", "ms"),
    ("fs.mount_ms", "ms"),
    ("fs.read_ms", "ms"),
    ("fs.lookups", "count"),
    ("fs.resolve_cache_hit_ratio", "ratio"),
    ("registry.download_ms", "ms"),
    ("store.put_ms", "ms"),
    ("store.get_ms", "ms"),
    ("store.hit_ratio", "ratio"),
    ("store.evictions", "count"),
    ("store.pinned_mb", "MB"),
    ("simnet.schedule_ms", "ms"),
    ("client.deploy_ms", "ms"),
    ("client.self_ms", "ms"),
    ("client.destroy_ms", "ms"),
    ("client.requests", "count"),
    ("client.files_fetched", "count"),
    ("client.cache_hits", "count"),
    ("client.peak_buffered_mb", "MB"),
    // fleet
    ("p2p.sim_build_ms", "ms"),
    ("p2p.schedule_ms", "ms"),
    ("p2p.run_ms", "ms"),
    ("p2p.events", "count"),
    ("p2p.events_per_s", "1/s"),
    ("p2p.events_per_client", "ratio"),
    ("p2p.lan_mb", "MB"),
    ("p2p.backbone_mb", "MB"),
    ("p2p.registry_mb", "MB"),
    ("p2p.retries", "count"),
    ("p2p.lost", "count"),
    ("simnet.queue_ns_per_event", "ns"),
    ("registry.ring_ns_per_lookup", "ns"),
    ("registry.shard_balance", "ratio"),
    ("registry.shard_rejections", "count"),
    ("telemetry.sketch_ns_per_sample", "ns"),
    ("telemetry.merge_ms", "ms"),
    ("telemetry.dropped_spans", "count"),
    // every workload
    ("telemetry.overhead_ratio", "ratio"),
    ("trace.overhead_ratio", "ratio"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;

    /// The array under `section` of the repository's `BENCHMARK.json`.
    fn declared(section: &str) -> Vec<Value> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        let entries = doc.as_object().and_then(|o| o.get(section));
        entries
            .and_then(Value::as_array)
            .expect("section is an array")
            .to_vec()
    }

    fn text(entry: &Value, key: &str) -> String {
        let field = entry.as_object().and_then(|o| o.get(key));
        field
            .and_then(Value::as_str)
            .expect("string field")
            .to_owned()
    }

    fn names_and_units(section: &str) -> Vec<(String, String)> {
        declared(section)
            .iter()
            .map(|m| (text(m, "name"), text(m, "unit")))
            .collect()
    }

    fn owned(list: &[(&str, &str)]) -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_the_printed_metrics() {
        assert_eq!(names_and_units("end_to_end"), owned(&END_TO_END));
        assert_eq!(names_and_units("per_layer"), owned(&PER_LAYER));
    }

    #[test]
    fn benchmark_json_names_the_four_workloads() {
        let names: Vec<String> = declared("workloads")
            .iter()
            .map(|w| text(w, "name"))
            .collect();
        assert_eq!(names, crate::workloads::NAMES);
    }
}
