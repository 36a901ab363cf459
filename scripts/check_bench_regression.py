#!/usr/bin/env python3
"""Compare a fresh bench JSON against the committed baseline.

Usage:
    check_bench_regression.py <current.json> <baseline.json> [--threshold 0.20]

Handles the three bench formats, keyed by their "bench" field:

* ``hotpath`` (BENCH_hotpath.json) — wall-clock metrics only, including
  the random-forest fit rows (median ms per d and n) and the DDPG
  Observe rows (median ms per d).
* ``batch`` (BENCH_batch.json) — per-(optimizer, batch size) series:
  sample-efficiency metrics (``mean_evals_to_fallback_best``, lower is
  better — deterministic for fixed seeds, so any drift is a real
  behavior change) and optimizer wall-clock (noisy). Metric names embed
  the run configuration, so a baseline generated with different
  iterations/seeds simply fails to intersect instead of comparing
  incomparable numbers.
* ``largen`` (BENCH_largen.json) — per-n exact/sparse suggest-loop
  wall-clock (noisy) plus the deterministic sparse-quality metric
  ``sparse_evals_to_98pct`` (evals for the sparse arm's mean curve to
  reach 98% of the exact arm's final best on the fixed-seed grid;
  names embed the grid configuration like ``batch``). A baseline from
  a full run (n up to 2000) still intersects a smoke run capped at a
  smaller --max-n: missing n entries are skipped, not flagged.
* ``service`` (BENCH_service.json) — wire front-end load driver:
  per-session lifecycle wall-clock and ask round-trip latency over
  real sockets. All compared metrics are lower-is-better seconds
  (noisy); the headline ``sessions_per_sec`` is higher-is-better and
  deliberately not compared. Metric names embed the run configuration
  so mismatched settings fail to intersect instead of comparing
  incomparable numbers.

Wall-clock metrics are compared only between runs on the same number
of cores. When the current run's ``hardware_cores`` differs from the
baseline's, those rows are reported as "not comparable" instead of
judged; deterministic metrics are compared regardless. A baseline row
may carry its own ``hardware_cores`` (rows added later, measured on
other hardware than the rest of the file); it overrides the file's.

Surfaces regressions beyond the threshold in the GitHub Actions job
summary ($GITHUB_STEP_SUMMARY) and as ::warning:: annotations. Always
exits 0: CI runners have noisy wall clocks, so the check reports trends
rather than gating merges — a sustained >20% regression across commits
is the signal to investigate.
"""

import argparse
import json
import os
import sys


def load(path):
    with open(path) as f:
        return json.load(f)


def collect_hotpath_metrics(doc):
    """Flattens the wall-clock fields of BENCH_hotpath.json into
    {metric_name: (value, cores)}: seconds or ms, and the row's own
    hardware_cores if it records one, else the file's."""
    cores = doc.get("hardware_cores")
    metrics = {}
    for entry in doc.get("fit_predict", []):
        n = entry.get("n")
        for field in ("fast_per_iter_seconds", "fast_pooled_per_iter_seconds"):
            if field in entry:
                metrics[f"{field}[n={n}]"] = entry[field]
    scaling = doc.get("update_scaling", {})
    for field in ("incremental_update_seconds_lo",
                  "incremental_update_seconds_hi"):
        if field in scaling:
            metrics[f"update_scaling.{field}"] = scaling[field]
    batch = doc.get("batch", {})
    for field in ("batch1_seconds", "batch8_seconds"):
        if field in batch:
            metrics[f"batch.{field}"] = batch[field]
    metrics = {name: (value, cores) for name, value in metrics.items()}
    for entry in doc.get("forest_fit", []):
        if "fit_ms" in entry:
            metrics[f"forest_fit.fit_ms[d={entry.get('d')},"
                    f"n={entry.get('n')}]"] = (
                entry["fit_ms"], entry.get("hardware_cores", cores))
    for entry in doc.get("ddpg_observe", []):
        if "observe_ms" in entry:
            metrics[f"ddpg_observe.observe_ms[d={entry.get('d')}]"] = (
                entry["observe_ms"], entry.get("hardware_cores", cores))
    return metrics


# Threshold applied to metrics that are deterministic for fixed seeds
# (evals-to-target): any drift beyond float formatting is a real
# behavior change, not clock noise, so it is flagged immediately
# instead of hiding under the wall-clock threshold.
DETERMINISTIC_THRESHOLD = 0.001


def collect_batch_metrics(doc):
    """Flattens BENCH_batch.json series into
    {metric_name: (value, deterministic)}.

    All collected metrics are lower-is-better, matching the shared
    ratio check: evals-to-target counts evaluations (deterministic for
    fixed seeds), *_seconds counts wall-clock (noisy)."""
    config = doc.get("config", {})
    suffix = (f"iters={config.get('iterations')},"
              f"seeds={config.get('seeds')}")
    metrics = {}
    for entry in doc.get("series", []):
        key = (f"{entry.get('optimizer')},q={entry.get('batch_size')},"
               f"{suffix}")
        if "mean_evals_to_fallback_best" in entry:
            metrics[f"mean_evals_to_fallback_best[{key}]"] = (
                entry["mean_evals_to_fallback_best"], True)
        if "mean_optimizer_seconds" in entry:
            metrics[f"mean_optimizer_seconds[{key}]"] = (
                entry["mean_optimizer_seconds"], False)
    return metrics


def collect_largen_metrics(doc):
    """Flattens BENCH_largen.json into {metric_name: (value,
    deterministic)}.

    Per-n suggest-loop seconds are wall-clock (noisy); the sparse
    quality metric (evals for the sparse arm to reach 98% of the exact
    arm's best on the fixed-seed grid) is deterministic. All collected
    metrics are lower-is-better."""
    config = doc.get("config", {})
    metrics = {}
    for entry in doc.get("scaling", []):
        n = entry.get("n")
        for field in ("exact_per_iter_seconds", "sparse_per_iter_seconds"):
            if field in entry:
                metrics[f"{field}[n={n}]"] = (entry[field], False)
    quality = doc.get("quality", {})
    if "sparse_evals_to_98pct" in quality:
        key = (f"iters={config.get('grid_iterations')},"
               f"seeds={config.get('grid_seeds')}")
        metrics[f"sparse_evals_to_98pct[{key}]"] = (
            quality["sparse_evals_to_98pct"], True)
    return metrics


def collect_service_metrics(doc):
    """Flattens BENCH_service.json into {metric_name: (value,
    deterministic)}.

    All collected metrics are lower-is-better wall-clock seconds
    (noisy). ``sessions_per_sec`` is higher-is-better, so it is
    reported in the JSON for humans but never compared here."""
    config = doc.get("config", {})
    key = (f"sessions={config.get('sessions')},"
           f"iters={config.get('iterations')},"
           f"clients={config.get('clients')}")
    metrics = {}
    if "per_session_seconds" in doc:
        metrics[f"per_session_seconds[{key}]"] = (
            doc["per_session_seconds"], False)
    ask = doc.get("ask_seconds", {})
    for field in ("p50", "p99"):
        if field in ask:
            metrics[f"ask_seconds.{field}[{key}]"] = (ask[field], False)
    # Overload phase: admitted-ask latency under 4x saturation plus its
    # ratio to the unloaded p99 — the load-shedding contract ("admitted
    # work stays fast because the queue is bounded"). The shed/hint
    # counters stay human-only: their magnitude tracks scheduling luck,
    # not a lower-is-better cost.
    overload = doc.get("overload", {})
    ov_key = f"{key},ov_clients={overload.get('clients')}"
    admitted = overload.get("admitted_ask_seconds", {})
    for field in ("p50", "p99"):
        if field in admitted:
            metrics[f"overload.admitted_ask_seconds.{field}[{ov_key}]"] = (
                admitted[field], False)
    if "admitted_p99_over_unloaded_p99" in overload:
        metrics[f"overload.admitted_p99_over_unloaded_p99[{ov_key}]"] = (
            overload["admitted_p99_over_unloaded_p99"], False)
    return metrics


def collect_racing_metrics(doc):
    """Flattens BENCH_racing.json into {metric_name: (value,
    deterministic)}.

    Both summary metrics are lower-is-better ratios and bit-for-bit
    deterministic for fixed seeds (the DES grid is seeded), so any
    drift is a real behavior change in the racing stage. Metric names
    embed the run configuration so mismatched settings fail to
    intersect instead of comparing incomparable numbers."""
    config = doc.get("config", {})
    key = (f"seeds={config.get('seeds')},fixed={config.get('fixed_iters')},"
           f"races={config.get('races')},cohort={config.get('cohort')},"
           f"rungs={config.get('rungs')},minfid={config.get('min_fidelity')}")
    metrics = {}
    summary = doc.get("summary", {})
    for field in ("work_ratio", "fixed_over_racing_best"):
        if field in summary:
            metrics[f"{field}[{key}]"] = (summary[field], True)
    return metrics


def collect_metrics(doc):
    """Returns {metric_name: (value, deterministic, cores)}; cores is
    None when the bench does not record it."""
    collectors = {
        "batch": collect_batch_metrics,
        "racing": collect_racing_metrics,
        "largen": collect_largen_metrics,
        "service": collect_service_metrics,
    }
    collector = collectors.get(doc.get("bench"))
    if collector is None:
        return {name: (value, False, cores) for name, (value, cores)
                in collect_hotpath_metrics(doc).items()}
    cores = doc.get("hardware_cores")
    return {name: (value, deterministic, cores)
            for name, (value, deterministic) in collector(doc).items()}


def main():
    parser = argparse.ArgumentParser(
        description="Compare a bench JSON against the committed baseline "
                    "and surface regressions.")
    parser.add_argument("current", help="freshly generated bench JSON")
    parser.add_argument("baseline", help="committed baseline JSON")
    parser.add_argument("--threshold", type=float, default=0.20,
                        help="relative regression threshold (default 0.20)")
    args = parser.parse_args()
    threshold = args.threshold

    current_doc = load(args.current)
    baseline_doc = load(args.baseline)
    bench = current_doc.get("bench", "hotpath")
    if baseline_doc.get("bench", "hotpath") != bench:
        print(f"::warning title=bench mismatch::current is '{bench}', "
              f"baseline is '{baseline_doc.get('bench')}' — nothing compared")
        return 0

    current = collect_metrics(current_doc)
    baseline = collect_metrics(baseline_doc)

    rows = []
    regressions = []
    not_comparable = 0
    for name, (base_value, deterministic, base_cores) in \
            sorted(baseline.items()):
        cur_entry = current.get(name)
        if cur_entry is None or base_value <= 0:
            continue
        cur_value, _, cur_cores = cur_entry
        ratio = cur_value / base_value
        # Deterministic metrics tolerate only float-formatting jitter;
        # wall-clock metrics use the (noisy-CI) threshold, and only on
        # the same core count: other hardware is not a regression.
        limit = DETERMINISTIC_THRESHOLD if deterministic else threshold
        flag = ""
        if (not deterministic and base_cores is not None
                and cur_cores is not None and base_cores != cur_cores):
            flag = (f"not comparable (baseline {base_cores} cores, "
                    f"current {cur_cores})")
            not_comparable += 1
        elif ratio > 1.0 + limit:
            flag = "REGRESSION (deterministic)" if deterministic \
                else "REGRESSION"
            regressions.append((name, base_value, cur_value, ratio))
        elif ratio < 1.0 - limit:
            flag = "improved"
        rows.append((name, base_value, cur_value, ratio, flag))

    lines = []
    lines.append(f"## bm_{bench} vs committed baseline")
    lines.append("")
    if not rows:
        lines.append("No comparable metrics found (baseline generated with "
                     "different settings?).")
    elif regressions:
        lines.append(
            f"**{len(regressions)} metric(s) regressed more than "
            f"{threshold:.0%}** (wall-clock metrics are noisy on CI; "
            "evals-to-target metrics are deterministic — treat any drift "
            "there as a real behavior change):")
    else:
        lines.append(
            f"No metric regressed more than {threshold:.0%} "
            "against the committed baseline.")
    if not_comparable:
        lines.append("")
        lines.append(f"{not_comparable} wall-clock metric(s) were measured "
                     "on a different core count than the baseline and are "
                     "not compared.")
    lines.append("")
    lines.append("| metric | baseline | current | ratio | |")
    lines.append("|---|---|---|---|---|")
    for name, base_value, cur_value, ratio, flag in rows:
        lines.append(f"| `{name}` | {base_value:.3e} | {cur_value:.3e} "
                     f"| {ratio:.2f}x | {flag} |")
    summary = "\n".join(lines) + "\n"

    print(summary)
    summary_path = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary_path:
        with open(summary_path, "a") as f:
            f.write(summary)
    for name, base_value, cur_value, ratio in regressions:
        print(f"::warning title=bm_{bench} regression::{name} "
              f"{base_value:.3e} -> {cur_value:.3e} ({ratio:.2f}x)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
