//! Differential test locking the deploy engines together: a one-node
//! cluster whose uplink is the client's link is a standalone client. Both
//! pull through `RegistryChain::pull_index` and deploy through
//! `gear_client::replay`; only their source chains differ, and a chain with
//! no peers in it must price, lay out and count a whole deployment — pull
//! phase included — exactly as the chain of length two does.

use gear::client::{ClientConfig, DeploymentReport, GearClient, TimelineEvent};
use gear::p2p::{Cluster, ClusterConfig, NodeDeployment};
use gear_bench::experiments::fig8::publish_corpus;
use gear_bench::experiments::ExperimentContext;

/// Pull-phase `(requests, bytes)` of a timeline.
fn pulled(entries: &[(std::time::Duration, std::time::Duration, TimelineEvent)]) -> (u64, u64) {
    entries.iter().fold((0, 0), |(requests, total), (_, _, event)| match event {
        TimelineEvent::Manifest { bytes } | TimelineEvent::Index { bytes } => {
            (requests + 1, total + bytes)
        }
        _ => (requests, total),
    })
}

/// One deployment, seen from both engines: same steps at the same offsets
/// for the same durations, same total, same bytes and request count.
fn assert_same(node: &NodeDeployment, report: &DeploymentReport) {
    let image = &report.reference;
    assert_eq!(node.timeline, report.timeline, "{image} timeline diverged");
    assert_eq!(node.total, report.total(), "{image}");
    assert_eq!(node.registry_files, report.files_fetched, "{image}");
    assert_eq!(node.local_files, report.cache_hits, "{image}");
    assert_eq!(node.peer_files, 0, "a lone node has no peers");
    let (pull_requests, pull_bytes) = pulled(node.timeline.entries());
    assert_eq!(pull_requests + node.registry_files, report.requests, "{image}");
    assert_eq!(pull_bytes + node.registry_bytes, report.bytes_pulled, "{image}");
}

/// Deploys the whole quick corpus round-robin (oldest versions first, so
/// later ones hit the cache) on one persistent client and one persistent
/// one-node cluster, comparing every deployment. The oldest version of each
/// series is deployed a second time, installed by then: no pull on either
/// side.
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
            for again in [false, true] {
                if again && version > 0 {
                    continue;
                }
                let (id, report) = client
                    .deploy(image.reference(), trace, &published.gear_index, &published.gear_files)
                    .expect("client deploy");
                client.destroy(id);
                let node = cluster
                    .deploy_on(
                        0,
                        image.reference(),
                        trace,
                        &published.gear_index,
                        &published.gear_files,
                    )
                    .expect("node deploy");
                assert_same(&node, &report);
                assert_eq!(report.pull.is_zero(), again, "{}", image.reference());
                assert_eq!(pulled(report.timeline.entries()).0 == 0, again);
                fetched += report.files_fetched;
            }
            // Everything that ever crossed the registry link, both phases.
            assert_eq!(cluster.registry_egress(), client.metrics().bytes_down);
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
