//! Smoke tests for the experiment harness: every figure-reproduction entry point runs
//! end to end at a reduced scale and reproduces the exact values it has always
//! produced, so a change to the simulator, the protocol or the analysis that moves a
//! paper figure fails here rather than in a manual diff of the binaries' output.
//! (The full sweeps are exercised by the binaries and Criterion benches.)

use arrow_bench::{async_vs_sync, figure_10, figure_11, figure_9, ratio_sweep, Table};

/// Equal up to floating-point noise (relative 1e-12): the recorded values are
/// deterministic, so anything beyond rounding is a behaviour change.
fn assert_close(got: f64, want: f64, what: &str) {
    assert!(
        (got - want).abs() <= 1e-12 * want.abs().max(1.0),
        "{what}: got {got:?}, recorded {want:?}"
    );
}

#[test]
fn figure_10_small_sweep_produces_monotone_system_sizes() {
    let rows = figure_10(&[2, 4, 8], 20, 0.2);
    // (processors, arrow makespan, centralized makespan, arrow mean latency,
    //  centralized mean latency)
    let recorded = [
        (2, 42.8, 52.0, 1.7399999999999998, 1.1999999999999997),
        (4, 32.8, 52.6, 0.9675000000000002, 1.8125000000000018),
        (8, 44.8, 53.8, 1.4550000000000007, 2.1412499999999977),
    ];
    assert_eq!(rows.len(), recorded.len());
    for (row, &(n, arrow, central, arrow_lat, central_lat)) in rows.iter().zip(&recorded) {
        assert_eq!(row.processors, n);
        assert_eq!(row.requests_per_node, 20);
        assert_close(row.arrow_makespan, arrow, "arrow makespan");
        assert_close(row.centralized_makespan, central, "centralized makespan");
        assert_close(row.arrow_mean_latency, arrow_lat, "arrow mean latency");
        assert_close(
            row.centralized_mean_latency,
            central_lat,
            "centralized mean latency",
        );
    }
}

#[test]
fn figure_11_hops_are_nonnegative_and_finite() {
    let rows = figure_11(&[2, 8], 20, 0.2);
    // (processors, arrow hops per request, centralized hops per request)
    let recorded = [(2, 0.725, 1.0), (8, 0.725, 1.75)];
    assert_eq!(rows.len(), recorded.len());
    for (row, &(n, arrow, central)) in rows.iter().zip(&recorded) {
        assert_eq!(row.processors, n);
        assert_close(row.arrow_hops_per_request, arrow, "arrow hops/request");
        assert_close(
            row.centralized_hops_per_request,
            central,
            "centralized hops/request",
        );
    }
}

#[test]
fn figure_9_small_instances_work() {
    let rows = figure_9(&[16]);
    assert_eq!(rows.len(), 1);
    let row = &rows[0];
    assert_eq!((row.diameter, row.layers, row.requests), (16, 4, 24));
    assert_close(row.predicted_arrow_cost, 64.0, "predicted arrow cost");
    assert_close(row.measured_arrow_cost, 34.0, "measured arrow cost");
    assert_close(row.opt_lower_bound, 16.0, "optimal lower bound");
    assert_close(row.ratio, 2.125, "ratio");
}

/// `ratio_sweep(9, 12, 7)`: (label, requests, arrow cost, optimal lower bound, ratio).
#[rustfmt::skip]
const RATIO_SWEEP: &[(&str, usize, f64, f64, f64)] = &[
    ("complete + balanced binary tree, one-shot burst", 9, 14.0, 8.0, 1.75),
    ("complete + balanced binary tree, uniform random", 12, 17.0, 8.0, 2.125),
    ("complete + balanced binary tree, hotspot", 12, 23.0, 8.0, 2.875),
    ("complete + balanced binary tree, sequential", 12, 27.0, 11.0, 2.4545454545454546),
    ("complete + star tree, one-shot burst", 9, 15.0, 8.0, 1.875),
    ("complete + star tree, uniform random", 12, 17.0, 9.0, 1.8888888888888888),
    ("complete + star tree, hotspot", 12, 13.0, 7.557746, 1.7200895610940088),
    ("complete + star tree, sequential", 12, 19.0, 11.0, 1.7272727272727273),
    ("grid + shortest-path tree, one-shot burst", 9, 14.0, 8.0, 1.75),
    ("grid + shortest-path tree, uniform random", 12, 18.0, 11.0, 1.6363636363636365),
    ("grid + shortest-path tree, hotspot", 12, 27.0, 13.230492, 2.040740435049581),
    ("grid + shortest-path tree, sequential", 12, 32.0, 16.0, 2.0),
    ("grid + minimum-communication tree, one-shot burst", 9, 15.0, 8.0, 1.875),
    ("grid + minimum-communication tree, uniform random", 12, 19.0, 13.0, 1.4615384615384615),
    ("grid + minimum-communication tree, hotspot", 12, 23.0, 12.812741, 1.7950881860485588),
    ("grid + minimum-communication tree, sequential", 12, 24.0, 14.0, 1.7142857142857142),
    ("cycle + shortest-path tree (max stretch), one-shot burst", 9, 12.0, 8.0, 1.5),
    ("cycle + shortest-path tree (max stretch), uniform random", 12, 22.0, 17.062687, 1.2893631583349094),
    ("cycle + shortest-path tree (max stretch), hotspot", 12, 16.0, 12.776347999999999, 1.252314041539883),
    ("cycle + shortest-path tree (max stretch), sequential", 12, 18.0, 11.0, 1.6363636363636365),
];

#[test]
fn ratio_sweep_and_async_comparison_run() {
    let rows = ratio_sweep(9, 12, 7);
    assert_eq!(rows.len(), RATIO_SWEEP.len());
    for (row, &(label, requests, arrow, opt, ratio)) in rows.iter().zip(RATIO_SWEEP) {
        assert_eq!(row.label, label);
        assert_eq!(row.report.requests, requests, "{label}");
        assert_close(row.report.arrow_cost, arrow, label);
        assert_close(row.report.opt_lower_bound, opt, label);
        assert_close(row.report.ratio, ratio, label);
        assert!(row.report.certifies_bound(), "{label}");
    }

    let sync_async = async_vs_sync(6, 10, &[3]);
    assert_eq!(sync_async.len(), 1);
    let row = &sync_async[0];
    assert_eq!(row.label, "uniform random, seed 3");
    assert_close(row.sync_cost, 16.0, "sync cost");
    assert_close(row.async_cost, 9.002511, "async cost");
    assert_close(row.sync_ratio, 2.2857142857142856, "sync ratio");
    assert_close(row.async_ratio, 1.286073, "async ratio");
}

#[test]
fn tables_render_experiment_rows() {
    let rows = figure_10(&[2, 4], 10, 0.2);
    let recorded = [(2, 14.8, 26.0), (4, 17.2, 26.4)];
    let mut table = Table::new(&["n", "arrow", "central"]);
    for (r, &(n, arrow, central)) in rows.iter().zip(&recorded) {
        assert_eq!(r.processors, n);
        assert_close(r.arrow_makespan, arrow, "arrow makespan");
        assert_close(r.centralized_makespan, central, "centralized makespan");
        table.push(vec![
            r.processors.to_string(),
            format!("{:.2}", r.arrow_makespan),
            format!("{:.2}", r.centralized_makespan),
        ]);
    }
    let rendered = table.render();
    assert!(rendered.contains("arrow"));
    assert!(rendered.contains("14.80"));
    assert!(rendered.lines().count() >= 4);
}
