//! The traced run: one mapping run replayed stage by stage through the
//! pipeline's public stage functions, with an in-memory span around each
//! call.
//!
//! The replay follows `MappingPipeline::run` call for call (partition,
//! place, the report's checks, packetize, hop metrics, simulate), so the
//! spans under the `map` root should cover almost all of its wall time;
//! `trace.coverage` reports how much. The stats pass is then timed again
//! on its own, outside the root, by calling `NocStats::from_deliveries`
//! on the returned delivery log.

use neuromap_core::partition::Partitioner;
use neuromap_core::pipeline::{local_events, MappingPipeline};
use neuromap_core::{CoreError, Report, SpikeGraph};
use neuromap_noc::config::NocConfig;
use neuromap_noc::stats::{NocStats, SchedCounters};
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Lowest share of the traced run's wall time the stage spans must cover.
/// Below it, the run does work that no stage span measures, and the
/// traced run fails its check.
pub const MIN_COVERAGE: f64 = 0.9;

/// One recorded span: a named interval, optionally inside a parent span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start: Duration,
    pub end: Duration,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end - self.start).as_secs_f64()
    }
}

/// Spans kept in memory until the benchmark writes them out.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Opens a span; close it with [`Spans::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let now = self.origin.elapsed();
        self.spans.push(Span {
            name,
            parent,
            start: now,
            end: now,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id].end = self.origin.elapsed();
    }

    /// Runs `f` inside a span and returns its result with the span's
    /// duration in seconds.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let id = self.open(name, parent);
        let out = f();
        self.close(id);
        (out, self.spans[id].secs())
    }

    pub fn get(&self, id: usize) -> &Span {
        &self.spans[id]
    }

    /// Seconds covered by the direct children of span `id`.
    pub fn children_secs(&self, id: usize) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(Span::secs)
            .sum()
    }

    /// The spans as a JSON array of `{id, name, parent, start_s, end_s}`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[");
        for (id, s) in self.spans.iter().enumerate() {
            if id > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = write!(
                out,
                "\n  {{\"id\": {id}, \"name\": \"{}\", \"parent\": {parent}, \"start_s\": {}, \"end_s\": {}}}",
                s.name,
                s.start.as_secs_f64(),
                s.end.as_secs_f64()
            );
        }
        out.push_str("\n]");
        out
    }
}

/// What the traced run measured, stage by stage.
#[derive(Debug)]
pub struct Stages {
    /// Wall time of the whole replayed run (the `map` root span).
    pub wall_s: f64,
    /// Share of `wall_s` covered by the stage spans.
    pub coverage: f64,
    pub partition_s: f64,
    pub place_s: f64,
    pub check_s: f64,
    pub packetize_s: f64,
    pub hop_metrics_s: f64,
    pub simulate_s: f64,
    /// The separate `NocStats::from_deliveries` call on the delivery log.
    pub stats_s: f64,
    pub flows: u64,
    /// Unicast destinations over all flows.
    pub dests: u64,
    /// Steiner trees the hop-metric stage routes: one per flow when trees
    /// route, none otherwise.
    pub tree_routes: u64,
    pub stats: NocStats,
    pub sched: SchedCounters,
}

/// Replays one mapping run stage by stage with scheduler counters on,
/// recording a span around each stage call, and checks that the stage
/// outputs reproduce `reference` (the untraced run's report). Check
/// failures are returned beside the stage measurements.
///
/// # Errors
///
/// Any stage's error; the run cannot be measured past it.
pub fn traced_run(
    graph: &SpikeGraph,
    pipeline: &MappingPipeline,
    partitioner: &dyn Partitioner,
    reference: &Report,
    spans: &mut Spans,
) -> Result<(Stages, Vec<String>), CoreError> {
    let noc = NocConfig {
        sched_stats: true,
        ..pipeline.config().noc
    };
    let traced = pipeline.with_noc(noc);
    let root = spans.open("map", None);
    let parent = Some(root);
    let (mapping, partition_s) =
        spans.time("partition", parent, || traced.partition(graph, partitioner));
    let (placed, place_s) = spans.time("place", parent, || traced.place(graph, &mapping?));
    let (placed, _, _) = placed?;
    let (checked, check_s) = spans.time("report.check", parent, || {
        placed.validate(&traced.config().arch)?;
        let problem = traced.problem(graph)?;
        Ok::<_, CoreError>((
            problem.cut_spikes(placed.assignment()),
            local_events(graph, &placed),
        ))
    });
    let (cut_spikes, local) = checked?;
    let (flows, packetize_s) = spans.time("packetize", parent, || traced.packetize(graph, &placed));
    let ((hop_weighted, dests), hop_metrics_s) =
        spans.time("hop_metrics", parent, || traced.hop_metrics(&flows));
    let (simulated, simulate_s) = spans.time("noc.simulate", parent, || {
        traced.simulate(&flows, graph.duration_steps())
    });
    let flow_count = flows.len() as u64;
    drop(flows);
    spans.close(root);
    let (stats, deliveries) = simulated?;

    let energy = traced.config().arch.energy();
    let (replayed, stats_s) = spans.time("noc.stats", None, || {
        NocStats::from_deliveries(
            &deliveries,
            stats.counters,
            energy,
            noc.flits_per_packet,
            graph.duration_steps(),
            noc.cycles_per_step,
        )
    });

    let mut failures = Vec::new();
    let mut expect = |what: &str, ok: bool| {
        if !ok {
            failures.push(format!(
                "traced run: {what} differs from the untraced report"
            ));
        }
    };
    expect("placed mapping", placed == reference.mapping);
    expect("cut_spikes", cut_spikes == reference.cut_spikes);
    expect("local_events", local == reference.local_events);
    expect(
        "hop_weighted_packets",
        hop_weighted == reference.hop_weighted_packets,
    );
    let mut plain = stats.clone();
    plain.sched = None;
    expect("NoC digest", plain.digest()? == reference.noc.digest()?);
    plain.per_vc.clear();
    if replayed != plain {
        failures.push("NocStats::from_deliveries disagrees with simulate's stats".to_owned());
    }
    let Some(sched) = stats.sched else {
        return Err(CoreError::InvalidParameter {
            name: "sched_stats",
            value: "event engine returned no scheduler counters".to_owned(),
        });
    };

    let wall_s = spans.get(root).secs();
    let coverage = spans.children_secs(root) / wall_s;
    if coverage < MIN_COVERAGE {
        failures.push(format!(
            "stage spans cover {coverage:.3} of the traced run, below {MIN_COVERAGE}"
        ));
    }
    let trees = noc.multicast && noc.multicast_trees;
    let stages = Stages {
        wall_s,
        coverage,
        partition_s,
        place_s,
        check_s,
        packetize_s,
        hop_metrics_s,
        simulate_s,
        stats_s,
        flows: flow_count,
        dests,
        tree_routes: if trees { flow_count } else { 0 },
        stats,
        sched,
    };
    Ok((stages, failures))
}
