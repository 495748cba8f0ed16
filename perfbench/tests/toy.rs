//! The benchmark's own tests: every workload at toy size emits every metric
//! it names, with its unit; `BENCHMARK.json` lists exactly the catalog; and
//! forced failures are counted while the run still ends.

use perfbench::catalog::{self, Def};
use perfbench::{net, result_json, Ctx, Workload};
use std::path::PathBuf;
use std::time::{Duration, Instant};

#[global_allocator]
static ALLOC: perfbench::sys::CountingAlloc = perfbench::sys::CountingAlloc;

fn ctx(workload: Workload, trace: bool) -> Ctx {
    Ctx {
        seed: 3,
        seconds: 0.5,
        trace,
        toy: true,
        out_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!(
            "{}-{}",
            workload.name(),
            u8::from(trace)
        )),
    }
}

/// Run `workload` at toy size and check its result line.
fn emits_every_metric(workload: Workload, trace: bool) {
    let ctx = ctx(workload, trace);
    let out = perfbench::run(workload, &ctx).expect("toy run completes");
    assert!(
        out.check_failures.is_empty(),
        "{} (trace {trace}) failed its checks: {:#?}",
        workload.name(),
        out.check_failures
    );
    assert!(out.attempted > 0);
    assert_eq!(out.failed, 0);
    let line = result_json(&ctx, &out);
    assert!(
        line.starts_with("{\"correct\": true, \"attempted\": "),
        "{line}"
    );
    let list: &[Def] = if trace {
        catalog::PER_LAYER
    } else {
        catalog::END_TO_END
    };
    for def in list {
        let entry = format!("\"{}\": {{\"value\": ", def.name);
        let at = line
            .find(&entry)
            .unwrap_or_else(|| panic!("{} missing from {line}", def.name));
        let rest = &line[at + entry.len()..];
        let (value, rest) = rest.split_once(", ").expect("value then unit");
        let value: f64 = value.parse().expect("a JSON number");
        assert!(
            rest.starts_with(&format!("\"unit\": \"{}\"}}", def.unit)),
            "{} has the wrong unit: {rest}",
            def.name
        );
        if !trace {
            assert!(value > 0.0, "{} is {value}", def.name);
        }
        if def.on.contains(&workload) {
            assert!(
                out.metrics.get(def.name).is_some(),
                "{} not measured on {}",
                def.name,
                workload.name()
            );
        }
    }
}

#[test]
fn sim_emits_every_end_to_end_metric() {
    emits_every_metric(Workload::Sim, false);
}

#[test]
fn sim_emits_every_per_layer_metric() {
    emits_every_metric(Workload::Sim, true);
}

#[test]
fn analysis_emits_every_end_to_end_metric() {
    emits_every_metric(Workload::Analysis, false);
}

#[test]
fn analysis_emits_every_per_layer_metric() {
    emits_every_metric(Workload::Analysis, true);
}

#[test]
fn net_emits_every_end_to_end_metric() {
    emits_every_metric(Workload::Net, false);
}

#[test]
fn net_emits_every_per_layer_metric() {
    emits_every_metric(Workload::Net, true);
}

#[test]
fn cluster_emits_every_end_to_end_metric() {
    emits_every_metric(Workload::Cluster, false);
}

#[test]
fn cluster_emits_every_per_layer_metric() {
    emits_every_metric(Workload::Cluster, true);
}

#[test]
fn deadlines_shorter_than_a_hop_fail_every_acquire_and_the_run_ends() {
    let ctx = ctx(Workload::Net, false);
    let mut params = net::Params::for_ctx(&ctx);
    params.deadline = Duration::from_nanos(1);
    let t = Instant::now();
    let out = net::run_with(&ctx, &params).expect("the run ends");
    assert!(t.elapsed() < Duration::from_secs(60));
    assert!(out.attempted > 0);
    assert_eq!(
        out.failed, out.attempted,
        "every acquire missed its deadline"
    );
    // Late grants were still released, so every order validates.
    assert!(out.check_failures.is_empty(), "{:#?}", out.check_failures);
    let line = result_json(&ctx, &out);
    let counts = format!(
        "\"attempted\": {}, \"failed\": {}",
        out.attempted, out.attempted
    );
    assert!(line.contains(&counts), "{line}");
}

#[test]
fn benchmark_json_lists_the_catalog() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    for (key, list) in [
        ("\"end_to_end\"", catalog::END_TO_END),
        ("\"per_layer\"", catalog::PER_LAYER),
    ] {
        let section = &doc[doc.find(key).expect("section present")..];
        let mut at = 0;
        for def in list {
            let entry = format!(
                "\"name\": \"{}\",\n      \"unit\": \"{}\",\n      \"better\": \"{}\"",
                def.name,
                def.unit,
                catalog::better(def.name)
            );
            let found = section[at..]
                .find(&entry)
                .unwrap_or_else(|| panic!("{} missing or out of order in {key}", def.name));
            at += found + entry.len();
        }
        let listed = section[..at].matches("\"name\": ").count();
        assert_eq!(listed, list.len(), "{key} lists other metrics too");
    }
    for w in Workload::ALL {
        assert!(doc.contains(&format!("\"name\": \"{}\"", w.name())));
    }
}
