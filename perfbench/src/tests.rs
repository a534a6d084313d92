//! Self-tests: the benchmark's workloads reproduce the committed
//! EXPERIMENTS.md, its traced run agrees with the engine, and its declared
//! metrics match `BENCHMARK.json`.

use snitch_bench::geomean;
use snitch_engine::Engine;
use snitch_kernels::Variant;

use crate::manifest::Workload;
use crate::paper::{fidelity, FIG2};
use crate::pass::{fill_cache, makespan, pass, Best, Pass, Sinks};
use crate::traced::traced_run;
use crate::{end_to_end, per_layer};

fn experiments_md() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../EXPERIMENTS.md");
    std::fs::read_to_string(path).expect("EXPERIMENTS.md is readable")
}

/// The body rows of the first table under the `## {heading}` section, as
/// trimmed cells.
fn table<'a>(md: &'a str, heading: &str) -> Vec<Vec<&'a str>> {
    let section = md
        .split("\n## ")
        .find(|s| s.starts_with(heading))
        .unwrap_or_else(|| panic!("EXPERIMENTS.md has no `## {heading}` section"));
    section
        .lines()
        .skip_while(|l| !l.starts_with('|'))
        .take_while(|l| l.starts_with('|'))
        .skip(2)
        .map(|l| l.trim_matches('|').split('|').map(str::trim).collect())
        .collect()
}

/// The number printed as `**{value}×**` right after `prefix`.
fn bold_ratio(md: &str, prefix: &str) -> f64 {
    let rest = &md[md.find(prefix).unwrap_or_else(|| panic!("no `{prefix}`")) + prefix.len()..];
    let value = rest.trim_start_matches(" **").split('×').next().expect("a ratio follows");
    value.parse().unwrap_or_else(|_| panic!("`{value}` after `{prefix}` is not a number"))
}

fn f(cell: &str) -> f64 {
    cell.parse().unwrap_or_else(|_| panic!("`{cell}` is not a number"))
}

fn two_places(x: f64) -> String {
    format!("{x:.2}")
}

#[test]
fn paper_references_match_the_experiments_tables() {
    let md = experiments_md();
    let ipc = table(&md, "Figure 2a");
    let gains = table(&md, "Figure 2c");
    assert_eq!((ipc.len(), gains.len()), (FIG2.len(), FIG2.len()));
    for ((p, i), g) in FIG2.iter().zip(&ipc).zip(&gains) {
        assert_eq!((i[0], g[0]), (p.kernel, p.kernel));
        assert_eq!((f(i[1]), f(i[3])), (p.ipc_base, p.ipc_copift), "{} IPC", p.kernel);
        assert_eq!((f(g[1]), f(g[3])), (p.speedup, p.energy), "{} gains", p.kernel);
    }
}

#[test]
fn paper_fig2_reproduces_experiments_md() {
    let md = experiments_md();
    let records = Engine::new(2).run(&Workload::PaperFig2.jobs().expect("manifest"));
    let fid = fidelity(&records).expect("every Figure 2 job validates");
    let speedups: Vec<f64> = fid.rows.iter().map(snitch_bench::Fig2Row::speedup).collect();
    let energy: Vec<f64> = fid.rows.iter().map(snitch_bench::Fig2Row::energy_improvement).collect();
    assert_eq!(two_places(geomean(&speedups)), two_places(bold_ratio(&md, "Geomean speedup")));
    assert_eq!(
        two_places(geomean(&energy)),
        two_places(bold_ratio(&md, "geomean energy improvement"))
    );
    assert_eq!(two_places(geomean(&speedups)), "1.43");
    assert_eq!(two_places(geomean(&energy)), "1.31");
    // Every "ours" cell of Figures 2a and 2c, `log`'s 1.28× speedup
    // included.
    let ipc = table(&md, "Figure 2a");
    let gains = table(&md, "Figure 2c");
    for ((row, i), g) in fid.rows.iter().zip(&ipc).zip(&gains) {
        assert_eq!(two_places(row.base.ipc), i[2], "{} base IPC", i[0]);
        assert_eq!(two_places(row.copift.ipc), i[4], "{} COPIFT IPC", i[0]);
        assert_eq!(two_places(row.speedup()), g[2], "{} speedup", g[0]);
        assert_eq!(two_places(row.energy_improvement()), g[4], "{} energy", g[0]);
    }
    let log = gains.iter().find(|g| g[0] == "log").expect("log row");
    assert_eq!(log[2], "1.28");
    // The fidelity metrics are the mean distances between those columns.
    let mean_err = |ours: usize, paper: usize| {
        100.0 * gains.iter().map(|g| (f(g[ours]) - f(g[paper])).abs() / f(g[paper])).sum::<f64>()
            / gains.len() as f64
    };
    assert!((fid.speedup_err_pct - mean_err(2, 1)).abs() < 0.5, "{fid:?}");
    assert!((fid.energy_err_pct - mean_err(4, 3)).abs() < 0.5, "{fid:?}");
}

#[test]
fn grid_multicluster_reproduces_experiments_md() {
    let md = experiments_md();
    let rows = table(&md, "Cores × clusters");
    let records = Engine::default().run(&Workload::GridMulticluster.jobs().expect("manifest"));
    assert_eq!(records.len(), 24);
    for r in &records {
        assert!(r.ok, "{}: {:?}", r.job.label(), r.error);
        let variant = if r.job.variant == Variant::Baseline { "base" } else { "copift" };
        let row = rows
            .iter()
            .find(|row| row[1] == variant && row[2] == r.job.config.clusters.to_string().as_str())
            .unwrap_or_else(|| panic!("no table row for {}", r.job.label()));
        let column = 3 + [1, 2, 4, 8]
            .iter()
            .position(|&c| c == r.job.config.cluster.cores)
            .expect("cores is one of 1, 2, 4, 8");
        assert_eq!(r.cycles.to_string(), row[column], "{}", r.job.label());
    }
    let corner = records
        .iter()
        .find(|r| r.job.label() == "gemm_tiled/copift/n64/b0/c8/x4")
        .expect("the 8-core, 4-cluster cell is pinned");
    assert_eq!(corner.cycles, 43952);
}

#[test]
fn traced_run_matches_the_engine_and_splits_every_job_exactly() {
    let jobs = Workload::GridMulticluster.jobs().expect("manifest");
    let engine = Engine::new(2);
    fill_cache(&engine, &jobs).expect("every program verifies");
    let pooled = pass(&engine, &jobs).expect("pass");
    let t = traced_run(&jobs).expect("traced run");
    assert_eq!(t.sinks, pooled.sinks, "traced-run sinks equal the engine's");
    for (traced, engine) in t.records.iter().zip(&pooled.records) {
        assert_eq!(traced.cycles, engine.cycles, "{}", traced.job.label());
        assert_eq!(traced.block_replayed_cycles, engine.block_replayed_cycles);
    }
    for (r, regime) in t.records.iter().zip(&t.regimes) {
        assert!(regime.sums_exactly(), "{}: {regime:?}", r.job.label());
        let clusters = r.job.config.clusters as u64;
        assert!(regime.cluster_cycles >= r.cycles && regime.cluster_cycles <= clusters * r.cycles);
    }
    // A single-hart x4 job bursts on every cluster: over the system's
    // cycles (the maximum over clusters) its burst share reads near 400%,
    // over the summed cluster cycles it is a true fraction.
    let (r, regime) = t
        .records
        .iter()
        .zip(&t.regimes)
        .find(|(r, _)| r.job.label() == "gemm_tiled/base/n64/b0/x4")
        .expect("the 1-core, 4-cluster cell is pinned");
    assert!(regime.burst > 3 * r.cycles, "{regime:?} vs {} system cycles", r.cycles);
    assert!(regime.burst <= regime.cluster_cycles);
}

#[test]
fn observe_paper_traced_run_is_covered_by_its_layers() {
    let t = traced_run(&Workload::ObservePaper.jobs().expect("manifest")).expect("traced run");
    assert!(t.coverage >= crate::MIN_SPAN_COVERAGE, "coverage {}", t.coverage);
    assert!(t.observed.trace_events > 0 && t.observed.chrome_bytes > 0);
    assert!(t.observed.profile_bytes > 0);
    for layer in ["trace.chrome.render", "trace.chrome.validate", "profile.render", "sim.run"] {
        assert!(t.layer(layer).calls > 0, "{layer} was never called");
    }
    assert_eq!(t.layer("kernels.build").calls, 12, "traced and profiled jobs share programs");
    assert_eq!(t.layer("engine.warm").calls, 2, "one warm-up per observation mode");
    assert!(t.regimes.iter().all(crate::traced::Regime::sums_exactly));
}

#[test]
fn benchmark_json_declares_exactly_these_metrics() {
    let json = include_str!("../../BENCHMARK.json");
    let metrics: Vec<crate::Metric> = end_to_end().into_iter().chain(per_layer()).collect();
    for m in &metrics {
        let entry = format!(
            "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
            m.name, m.unit, m.better
        );
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    let names = json.matches("\"name\":").count();
    assert_eq!(names, Workload::ALL.len() + metrics.len(), "no undeclared names");
    for w in Workload::ALL {
        assert!(json.contains(&format!("{{\"name\": \"{}\", \"why\":", w.name())));
    }
}

#[test]
fn makespan_gives_each_job_to_the_first_free_worker_in_order() {
    assert_eq!(makespan(&[3.0, 1.0, 1.0, 1.0], 1), 6.0);
    assert_eq!(makespan(&[3.0, 1.0, 1.0, 1.0], 2), 3.0);
    assert_eq!(makespan(&[1.0, 1.0, 3.0], 2), 4.0);
    assert_eq!(makespan(&[], 2), 0.0);
}

#[test]
fn best_pass_adds_up_the_fastest_time_of_each_piece() {
    let piece_times = |jobs: [f64; 3], engine_s: f64, serial: [f64; 2]| Pass {
        seconds: engine_s + serial.iter().sum::<f64>(),
        jobs: jobs.to_vec(),
        engine_s,
        serial: serial.to_vec(),
        records: Vec::new(),
        sinks: Sinks { digest: 0, bytes: 0 },
        observed: Default::default(),
    };
    let mut best = Best::new(2);
    // Makespans 4 and 3.5, so the rest of `Engine::run` is 0.5 and 0.25.
    best.add(&piece_times([1.0, 1.0, 3.0], 4.5, [0.5, 2.0]));
    best.add(&piece_times([2.0, 0.5, 3.0], 3.75, [1.0, 1.0]));
    // Fastest jobs [1, 0.5, 3] on two workers: makespan 3.5.
    assert_eq!(best.seconds(), 3.5 + 0.25 + 0.5 + 1.0);
}
