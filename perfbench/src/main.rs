//! Whole-mapping-run benchmark for the neuromap pipeline.
//!
//! One invocation runs one workload in one process:
//!
//! 1. set-up: generate the spike graph from the seed and build the
//!    `MappingPipeline` (topology + distance table);
//! 2. one untimed `MappingPipeline::run` whose `Report` is the reference;
//! 3. timed `run` calls until `--seconds` have passed, each report checked
//!    identical to the reference. Before each, the set-up is timed again;
//!    after each, the host's speed is probed (see `host.rs`);
//! 4. the correctness gate: the same run on the cycle-driven oracle engine
//!    must return an identical report, and the report must satisfy the
//!    pipeline's invariants;
//! 5. with `--trace 1`, one traced run (see `trace.rs`).
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`.
//!
//! Usage: `perfbench --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>]`

mod host;
mod trace;
mod workload;

use neuromap_core::eval::SwarmKernel;
use neuromap_core::pipeline::{MappingPipeline, TrafficMode};
use neuromap_core::pso::{PsoConfig, PsoPartitioner};
use neuromap_core::{CoreError, Report, SpikeGraph};
use neuromap_noc::sim::EngineKind;
use std::hint::black_box;
use std::time::Instant;
use trace::{Spans, Stages};
use workload::Workload;

const USAGE: &str =
    "usage: perfbench --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>]";

/// Timed runs made even when one run outlasts the `--seconds` window.
const MIN_RUNS: usize = 3;

/// Where the traced run's spans are written, relative to the working
/// directory.
const SPAN_DIR: &str = ".perfbench_out";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

impl Args {
    fn parse(mut args: impl Iterator<Item = String>) -> Result<Self, String> {
        let mut workload = None;
        let mut seed = 2018;
        let mut seconds: f64 = 10.0;
        let mut trace = false;
        while let Some(flag) = args.next() {
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = || format!("bad value {value:?} for {flag}");
            match flag.as_str() {
                "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
                "--seed" => seed = value.parse().map_err(|_| bad())?,
                "--seconds" => {
                    seconds = value.parse().map_err(|_| bad())?;
                    if !(seconds.is_finite() && seconds >= 0.0) {
                        return Err(bad());
                    }
                }
                "--trace" => {
                    trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad()),
                    }
                }
                _ => return Err(format!("unknown flag {flag:?}")),
            }
        }
        Ok(Self {
            workload: workload.ok_or("--workload is required")?,
            seed,
            seconds,
            trace,
        })
    }
}

/// One metric of the result line.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Median of one quantity over the timed runs.
fn median_of(samples: &[Sample], f: impl Fn(&Sample) -> f64) -> f64 {
    median(&samples.iter().map(f).collect::<Vec<f64>>())
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Peak resident set size of this process in MB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_owned())
}

/// Unicast destinations the mapping's traffic must deliver, counted from
/// the graph and mapping alone: per spike, every remote target synapse
/// (per-synapse traffic) or every distinct remote crossbar (per-crossbar
/// traffic).
fn expected_deliveries(graph: &SpikeGraph, report: &Report, mode: TrafficMode) -> u64 {
    let mapping = &report.mapping;
    let mut total = 0u64;
    let mut remote: Vec<u32> = Vec::new();
    for i in 0..graph.num_neurons() {
        let home = mapping.crossbar_of(i);
        remote.clear();
        remote.extend(
            graph
                .targets(i)
                .iter()
                .map(|&j| mapping.crossbar_of(j))
                .filter(|&c| c != home),
        );
        if mode == TrafficMode::PerCrossbar {
            remote.sort_unstable();
            remote.dedup();
        }
        total += u64::from(graph.count(i)) * remote.len() as u64;
    }
    total
}

/// The correctness gate: the oracle engine must reproduce the report
/// exactly, and the report must satisfy the pipeline's invariants.
/// Returns the failed checks.
fn gate(
    graph: &SpikeGraph,
    pipeline: &MappingPipeline,
    partitioner: &PsoPartitioner,
    reference: &Report,
) -> Vec<String> {
    let mut failures = Vec::new();
    let config = pipeline
        .config()
        .clone()
        .with_engine(EngineKind::CycleOracle);
    match MappingPipeline::new(config).run(graph, partitioner) {
        Ok(oracle) if oracle == *reference => {}
        Ok(oracle) => failures.push(format!(
            "oracle report differs from the event engine's (cut {} vs {}, delivered {} vs {})",
            oracle.cut_spikes, reference.cut_spikes, oracle.noc.delivered, reference.noc.delivered
        )),
        Err(e) => failures.push(format!("oracle run failed: {e}")),
    }
    let total = graph.total_synaptic_events();
    if reference.local_events + reference.cut_spikes != total {
        failures.push(format!(
            "local_events {} + cut_spikes {} != total synaptic events {total}",
            reference.local_events, reference.cut_spikes
        ));
    }
    let expected = expected_deliveries(graph, reference, pipeline.config().traffic);
    if reference.noc.delivered != expected {
        failures.push(format!(
            "delivered {} != unicast destination count {expected}",
            reference.noc.delivered
        ));
    }
    if reference.total_energy_pj != reference.local_energy_pj + reference.global_energy_pj {
        failures.push("total_energy_pj != local_energy_pj + global_energy_pj".to_owned());
    }
    failures
}

/// Generates the graph and builds the pipeline, returning them with the
/// seconds each took.
fn set_up(
    w: Workload,
    graph_seed: u64,
    spans: &mut Spans,
) -> Result<(SpikeGraph, MappingPipeline, PsoConfig, f64, f64), CoreError> {
    let (graph, graph_s) = spans.time("snn.graph", None, || w.spike_graph(graph_seed));
    let graph = graph?;
    let (config, pso) = w.config(&graph)?;
    let (pipeline, new_s) = spans.time("pipeline.new", None, || MappingPipeline::new(config));
    Ok((graph, pipeline, pso, graph_s, new_s))
}

/// One timed run with the set-up repetition before it and the host
/// probes around it, all in seconds.
struct Sample {
    graph_s: f64,
    new_s: f64,
    run_s: f64,
    probe_before: f64,
    probe_after: f64,
}

impl Sample {
    /// The run's time at the nominal host speed.
    fn map_s(&self) -> f64 {
        self.run_s * host::NOMINAL_S / ((self.probe_before + self.probe_after) / 2.0)
    }

    /// The set-up's time at the nominal host speed. The set-up ran just
    /// before `probe_before`.
    fn setup_s(&self) -> f64 {
        (self.graph_s + self.new_s) * host::NOMINAL_S / self.probe_before
    }
}

/// Tallies runs and the correctness failures among them.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn record(&mut self, what: &str, failures: &[String]) {
        self.attempted += 1;
        if !failures.is_empty() {
            self.failed += 1;
            for f in failures {
                eprintln!("perfbench: FAILED {what}: {f}");
            }
        }
    }
}

fn run(args: &Args) -> Result<String, String> {
    let w = args.workload;
    let err = |e: CoreError| format!("{}: {e}", w.name());
    let mut spans = Spans::new();
    let mut probe = host::Probe::new();
    let (graph_seed, tried) = w.generator_seed(args.seed).map_err(err)?;
    eprintln!(
        "perfbench: {} seed {}: generator seed {graph_seed} (candidate {tried})",
        w.name(),
        args.seed
    );

    // 1. set-up; repetitions are timed beside the runs, below
    let (graph, pipeline, pso, _, _) = set_up(w, graph_seed, &mut spans).map_err(err)?;
    let partitioner = PsoPartitioner::new(pso);
    let mut tally = Tally::default();

    // 2. the reference run
    let reference = pipeline.run(&graph, &partitioner).map_err(err)?;
    tally.record("reference run", &[]);

    // 3. timed runs
    let mut samples = Vec::new();
    let mut probe_before = probe.time();
    let window = Instant::now();
    while samples.len() < MIN_RUNS || window.elapsed().as_secs_f64() < args.seconds {
        let (.., graph_s, new_s) = set_up(w, graph_seed, &mut spans).map_err(err)?;
        let start = Instant::now();
        let result = pipeline.run(black_box(&graph), &partitioner);
        let run_s = start.elapsed().as_secs_f64();
        let failures = match black_box(result) {
            Ok(report) if report == reference => vec![],
            Ok(_) => vec!["report differs from the reference run".to_owned()],
            Err(e) => vec![format!("run failed: {e}")],
        };
        tally.record("timed run", &failures);
        let probe_after = probe.time();
        samples.push(Sample {
            graph_s,
            new_s,
            run_s,
            probe_before,
            probe_after,
        });
        probe_before = probe_after;
    }
    let peak_rss = peak_rss_mb()?;
    let map_s = median_of(&samples, Sample::map_s);
    let setup_s = median_of(&samples, Sample::setup_s);
    let listed = |f: fn(&Sample) -> f64| {
        let v: Vec<String> = samples.iter().map(|s| format!("{:.3}", f(s))).collect();
        v.join(" ")
    };
    eprintln!(
        "perfbench: {} runs; map_s median {map_s:.4} s [{}]; wall median {:.4} s [{}]; setup_s median {setup_s:.4} s",
        samples.len(),
        listed(Sample::map_s),
        median_of(&samples, |s| s.run_s),
        listed(|s| s.run_s),
    );

    // 4. correctness gate
    tally.record(
        "oracle gate",
        &gate(&graph, &pipeline, &partitioner, &reference),
    );

    let metrics = if args.trace {
        // 5. traced run
        let (stages, failures) =
            trace::traced_run(&graph, &pipeline, &partitioner, &reference, &mut spans)
                .map_err(err)?;
        tally.record("traced run", &failures);
        let kernel = SwarmKernel::for_crossbars(pipeline.config().arch.num_crossbars()).name();
        write_spans(args, kernel, &spans)?;
        print_breakdown(&stages);
        let evals = (pso.swarm_size as u64 * u64::from(pso.iterations)) as f64;
        layer_metrics(&stages, evals, &samples)
    } else {
        end_to_end_metrics(&reference, map_s, setup_s, peak_rss)
    };
    result_line(&tally, &metrics)
}

fn end_to_end_metrics(r: &Report, map_s: f64, setup_s: f64, peak_rss: f64) -> Vec<Metric> {
    vec![
        metric("map_s", map_s, "s"),
        metric("setup_s", setup_s, "s"),
        metric("peak_rss_mb", peak_rss, "MB"),
        metric("cut_spikes", r.cut_spikes as f64, "events"),
        metric("global_energy_pj", r.global_energy_pj, "pJ"),
        metric(
            "hop_weighted_packets",
            r.hop_weighted_packets as f64,
            "packet-hops",
        ),
        metric("sim_cycles", r.noc.total_cycles as f64, "cycles"),
    ]
}

/// The per-layer metrics. Times are raw, not scaled to the nominal host
/// speed.
fn layer_metrics(s: &Stages, evals: f64, samples: &[Sample]) -> Vec<Metric> {
    let c = &s.stats.counters;
    let deliveries = s.stats.delivered as f64;
    let map_wall_s = median_of(samples, |x| x.run_s);
    vec![
        metric("host.map_runs", samples.len() as f64, "count"),
        metric("host.map_wall_s", map_wall_s, "s"),
        metric("host.probe_s", median_of(samples, |x| x.probe_after), "s"),
        metric("snn.graph_s", median_of(samples, |x| x.graph_s), "s"),
        metric("pipeline.new_s", median_of(samples, |x| x.new_s), "s"),
        metric("partition.s", s.partition_s, "s"),
        metric("partition.evals", evals, "count"),
        metric("partition.evals_per_s", evals / s.partition_s, "1/s"),
        metric("place.s", s.place_s, "s"),
        metric("packetize.s", s.packetize_s, "s"),
        metric("packetize.flows", s.flows as f64, "count"),
        metric("packetize.dests", s.dests as f64, "count"),
        metric(
            "packetize.dests_per_s",
            s.dests as f64 / s.packetize_s,
            "1/s",
        ),
        metric("hop_metrics.s", s.hop_metrics_s, "s"),
        metric("hop_metrics.tree_routes", s.tree_routes as f64, "count"),
        metric("noc.simulate_s", s.simulate_s, "s"),
        metric("noc.stats_s", s.stats_s, "s"),
        metric("noc.engine_s", s.simulate_s - s.stats_s, "s"),
        metric("noc.ns_per_delivery", s.simulate_s * 1e9 / deliveries, "ns"),
        metric("report.check_s", s.check_s, "s"),
        metric("noc.packets_injected", c.packets_injected as f64, "count"),
        metric("noc.deliveries", c.deliveries as f64, "count"),
        metric("noc.router_traversals", c.router_traversals as f64, "count"),
        metric("noc.link_flits", c.link_flits as f64, "count"),
        metric("noc.port_wakes", s.sched.port_wakes as f64, "count"),
        metric("noc.router_visits", s.sched.router_visits as f64, "count"),
        metric("noc.head_updates", s.sched.head_updates as f64, "count"),
        metric("noc.peak_wake_heap", s.sched.peak_wake_heap as f64, "count"),
        metric(
            "noc.avg_latency_cycles",
            s.stats.avg_latency_cycles,
            "cycles",
        ),
        metric(
            "noc.p99_latency_cycles",
            s.stats.p99_latency_cycles as f64,
            "cycles",
        ),
        metric(
            "noc.isi_distortion_cycles",
            s.stats.avg_isi_distortion_cycles,
            "cycles",
        ),
        metric(
            "noc.disorder_fraction",
            s.stats.disorder_fraction,
            "fraction",
        ),
        metric("trace.coverage", s.coverage, "fraction"),
        metric("trace.overhead", s.wall_s / map_wall_s, "ratio"),
    ]
}

/// Prints each stage's share of the traced run's wall time.
fn print_breakdown(s: &Stages) {
    let rows = [
        ("partition", s.partition_s),
        ("place", s.place_s),
        ("report.check", s.check_s),
        ("packetize", s.packetize_s),
        ("hop_metrics", s.hop_metrics_s),
        ("noc.simulate", s.simulate_s),
        ("  of which noc.stats", s.stats_s),
    ];
    for (name, secs) in rows {
        eprintln!(
            "perfbench:   {name:<22} {secs:>9.4} s  {:>5.1}%",
            100.0 * secs / s.wall_s
        );
    }
    eprintln!(
        "perfbench:   traced wall {:.4} s, coverage {:.4}",
        s.wall_s, s.coverage
    );
}

fn write_spans(args: &Args, kernel: &str, spans: &Spans) -> Result<(), String> {
    let path = format!(
        "{SPAN_DIR}/{}-seed{}.spans.json",
        args.workload.name(),
        args.seed
    );
    let body = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"swarm_kernel\": \"{kernel}\", \"spans\": {}}}\n",
        args.workload.name(),
        args.seed,
        spans.to_json()
    );
    std::fs::create_dir_all(SPAN_DIR)
        .and_then(|()| std::fs::write(&path, body))
        .map_err(|e| format!("writing {path}: {e}"))?;
    eprintln!("perfbench: swarm kernel {kernel}; spans written to {path}");
    Ok(())
}

fn result_line(tally: &Tally, metrics: &[Metric]) -> Result<String, String> {
    if let Some(m) = metrics.iter().find(|m| !m.value.is_finite()) {
        return Err(format!("metric {} is not finite ({})", m.name, m.value));
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0,
        tally.attempted,
        tally.failed,
        body.join(", ")
    ))
}

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
