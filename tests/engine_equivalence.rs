//! Differential test locking the deploy engines together: a one-node
//! cluster whose uplink is the client's link is a standalone client. Both
//! deploy through `gear_client::replay`; only their source chains differ,
//! and a chain with no peers in it must price, lay out and count a
//! deployment exactly as the chain of length two does.
//!
//! (The pull phases are deliberately not compared: the client pulls
//! manifest + compressed index layer, a node one transfer of the
//! serialized index — see DESIGN.md §7.)

use gear::client::{ClientConfig, GearClient, TimelineEvent};
use gear::p2p::{Cluster, ClusterConfig};
use gear_bench::experiments::fig8::publish_corpus;
use gear_bench::experiments::ExperimentContext;

/// Deploys the whole quick corpus round-robin (oldest versions first, so
/// later ones hit the cache) on one persistent client and one persistent
/// one-node cluster, comparing every deployment.
fn assert_engines_agree(config: ClientConfig, ctx: &ExperimentContext) {
    let published = publish_corpus(ctx);
    let mut client = GearClient::new(config);
    let mut cluster = Cluster::new(ClusterConfig {
        registry_link: config.link,
        ..ClusterConfig::lan(1).with_client(config)
    });
    let rounds = ctx.corpus.series.iter().map(|s| s.images.len()).max().unwrap_or(0);
    let mut fetched = 0;
    for version in 0..rounds {
        for series in &ctx.corpus.series {
            let (Some(image), Some(trace)) =
                (series.images.get(version), series.traces.get(version))
            else {
                continue;
            };
            let (id, report) = client
                .deploy(image.reference(), trace, &published.gear_index, &published.gear_files)
                .expect("client deploy");
            client.destroy(id);
            let node = cluster
                .deploy_on(0, image.reference(), trace, &published.gear_index, &published.gear_files)
                .expect("node deploy");

            // Everything from the launch on: same steps, same durations.
            let run_phase = |entries: &[(_, std::time::Duration, TimelineEvent)]| {
                let launch = entries
                    .iter()
                    .position(|(_, _, event)| *event == TimelineEvent::Launch)
                    .expect("every deployment launches");
                entries[launch..].iter().map(|(_, took, event)| (*took, event.clone())).collect()
            };
            let of_client: Vec<_> = run_phase(report.timeline.entries());
            let of_node: Vec<_> = run_phase(node.timeline.entries());
            assert_eq!(of_node, of_client, "{} run phase diverged", image.reference());
            assert_eq!(node.registry_files, report.files_fetched, "{}", image.reference());
            assert_eq!(node.local_files, report.cache_hits, "{}", image.reference());
            assert_eq!(node.peer_files, 0, "a lone node has no peers");
            fetched += report.files_fetched;
        }
    }
    assert!(fetched > 0, "the corpus must exercise the registry lane");
}

#[test]
fn one_node_cluster_equals_standalone_client() {
    let ctx = ExperimentContext::quick();
    assert_engines_agree(ctx.client_config, &ctx);
}

#[test]
fn one_node_cluster_equals_standalone_client_with_four_streams() {
    let ctx = ExperimentContext::quick();
    assert_engines_agree(ctx.client_config.with_streams(4), &ctx);
}
