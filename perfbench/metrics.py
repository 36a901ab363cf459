"""Turns the driver's raw samples into the benchmark's metrics.

Pure functions only, so perfbench/tests/test_metrics.py can pin them.
"""

import json
import math
import statistics

# A tail percentile is reported only when at least this many samples lie
# beyond it; the median is always reported.
MIN_TAIL_SAMPLES = 10


class InsufficientSamples(ValueError):
    """A percentile was asked of too few samples to support it."""


def samples_beyond(n, q):
    """Samples strictly above the q-th percentile rank of n samples."""
    return n - math.ceil(q / 100.0 * n)


def percentile(values, q):
    """The q-th percentile (0-100) by linear interpolation between
    closest ranks. Raises InsufficientSamples for a tail percentile
    (q > 50) with fewer than MIN_TAIL_SAMPLES samples beyond it, and for
    an empty sample."""
    if not values:
        raise InsufficientSamples("no samples")
    if q > 50 and samples_beyond(len(values), q) < MIN_TAIL_SAMPLES:
        raise InsufficientSamples(
            "p%g of %d samples has %d beyond it (need %d)"
            % (q, len(values), samples_beyond(len(values), q),
               MIN_TAIL_SAMPLES))
    ordered = sorted(values)
    rank = q / 100.0 * (len(ordered) - 1)
    lo = int(math.floor(rank))
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def median(values):
    if not values:
        raise InsufficientSamples("no samples")
    return statistics.median(values)


def p90(values):
    return percentile(values, 90)


def iterations_per_second(phase):
    """Iterations completed in the measured window per wall second."""
    return phase["window_iterations"] / phase["window_s"]


def setup_seconds(setups):
    """The fastest of a run's set-ups. Interference from the rest of a
    shared host only slows a set-up down, so the least-disturbed one is
    the repeatable figure: on a 4-core VM with two CPU hogs and a fsync
    loop beside it, the minimum of 41 moved by 1% where the median moved
    by 23%. A change to the program's set-up path moves every set-up."""
    if not setups:
        raise InsufficientSamples("no set-ups")
    return min(setups)


def failed_share(attempted, failed):
    """Failed, shed or retried requests over requests attempted."""
    if attempted < 1:
        raise ValueError("no requests attempted")
    if failed < 0 or failed > attempted:
        raise ValueError("failed must lie in [0, attempted]")
    return failed / attempted


def first_reaching(objectives, target):
    """1-based iteration at which the running best first reaches
    `target`, or None."""
    for i, value in enumerate(objectives):
        if value >= target:
            return i + 1
    return None


def vanilla_speedup(pairs):
    """Iterations vanilla needed to reach its best over the iterations
    the same-seed LlamaTune session needed to reach that value, summed
    over `pairs` of (vanilla objectives, llamatune objectives).

    A LlamaTune session that never reaches vanilla's best is censored at
    its budget plus one, so the figure is an upper bound for that pair.
    Returns (speedup, censored pair count)."""
    if not pairs:
        raise ValueError("no session pairs")
    vanilla_total = 0
    llamatune_total = 0
    censored = 0
    for vanilla, llamatune in pairs:
        if not vanilla or not llamatune:
            raise ValueError("empty session in pair")
        best = max(vanilla)
        vanilla_total += first_reaching(vanilla, best)
        reached = first_reaching(llamatune, best)
        if reached is None:
            censored += 1
            reached = len(llamatune) + 1
        llamatune_total += reached
    return vanilla_total / llamatune_total, censored


def vanilla_gain_pct(pairs):
    """Mean over pairs of LlamaTune's best over vanilla's best, as a
    percentage gain."""
    if not pairs:
        raise ValueError("no session pairs")
    ratios = [max(l) / max(v) for v, l in pairs]
    return 100.0 * (statistics.fmean(ratios) - 1.0)


def result_line(correct, attempted, failed, metrics):
    """The benchmark's last output line. `metrics` maps a name to a
    (value, unit) pair."""
    if int(attempted) != attempted or int(failed) != failed:
        raise ValueError("attempted and failed must be whole numbers")
    if attempted < 1:
        raise ValueError("attempted must be at least 1")
    body = {}
    for name, (value, unit) in metrics.items():
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ValueError("metric %s is not a number" % name)
        if not math.isfinite(value):
            raise ValueError("metric %s is not finite" % name)
        body[name] = {"value": value, "unit": unit}
    return json.dumps({"correct": bool(correct), "attempted": int(attempted),
                       "failed": int(failed), "metrics": body},
                      separators=(", ", ": "))


def quality_sessions(phase, workload_def):
    """The fixed, seed-determined session set the quality figures use:
    every tenant's first quality_sessions sessions, all complete."""
    limit = workload_def["quality_sessions"]
    return [q for q in phase["quality"] if q["index"] < limit and q["complete"]]


def session_pairs(phase, workload_def):
    """(vanilla, llamatune) objective sequences of same-seed sessions
    among the quality sessions."""
    tenants = workload_def["tenants"]
    by_key = {(q["tenant"], q["index"]): q
              for q in quality_sessions(phase, workload_def)
              if "objectives" in q}
    pairs = []
    for v_index, v_tenant in enumerate(tenants):
        if not v_tenant["vanilla"]:
            continue
        partner = next(i for i, t in enumerate(tenants)
                       if not t["vanilla"]
                       and t["seed_slot"] == v_tenant["seed_slot"])
        for (tenant, index), q in sorted(by_key.items()):
            if tenant != v_index or (partner, index) not in by_key:
                continue
            pairs.append((q["objectives"], by_key[(partner, index)]["objectives"]))
    return pairs


def end_to_end(phase, workload_def):
    """Gated end-to-end metrics of an untraced phase: the ones whose
    run-to-run spread stays inside a 25% bound on a shared host.
    {name: (value, unit)}."""
    quality = quality_sessions(phase, workload_def)
    if len(quality) < workload_def["quality_sessions"] * len(
            workload_def["tenants"]):
        raise InsufficientSamples("quality sessions did not all complete")
    return {
        "setup_s": (setup_seconds(phase["setup_s"]), "s"),
        "server_cpu_ms_per_iter": (
            1000.0 * phase["server_cpu_s"] / phase["served_iterations"], "ms"),
        "peak_rss_mb": (phase["peak_rss_kb"] / 1024.0, "MB"),
        "best_over_default": (
            statistics.fmean(q["best"] / q["default"] for q in quality),
            "ratio"),
    }


def extra_end_to_end(phase, workload_def):
    """End-to-end figures printed but not gated: the wall-clock throughput
    and latencies, whose run-to-run spread swings past any admissible
    bound when the rest of a shared host gets busy; failed_share, which
    is 0 on a healthy run; and the vanilla comparison, which exists only
    where a workload has a vanilla tenant."""
    extra = {
        "iters_per_s": (iterations_per_second(phase), "1/s"),
        "session_s_p50": (median(phase["session_s"]), "s"),
        "ask_ms_p50": (median(phase["ask_ms"]), "ms"),
        "tell_ms_p50": (median(phase["tell_ms"]), "ms"),
        "ask_ms_p90": (p90(phase["ask_ms"]), "ms"),
        "tell_ms_p90": (p90(phase["tell_ms"]), "ms"),
        "failed_share": (failed_share(phase["attempted"], phase["failed"]),
                         "ratio"),
    }
    pairs = session_pairs(phase, workload_def)
    if pairs:
        speedup, censored = vanilla_speedup(pairs)
        extra["vanilla_speedup"] = (speedup, "x")
        extra["vanilla_censored_pairs"] = (censored, "count")
        extra["vanilla_pairs"] = (len(pairs), "count")
        extra["vanilla_gain_pct"] = (vanilla_gain_pct(pairs), "%")
    return extra


def coverage(layer_ms, wire_ms):
    """Share of the wire round-trip time that the in-process layer calls
    mirroring them took. The two come from different executions, so the
    share can exceed 1; see METRICS.md."""
    total = sum(wire_ms)
    if total <= 0:
        raise InsufficientSamples("no wire round trips")
    return sum(layer_ms) / total


def per_layer(untraced, traced):
    """Per-layer metrics of a traced run: {name: (value, unit)}."""
    r = traced["replay"]
    stats = traced["server_stats"]
    iterations = r["iterations"]
    wal_iterations = r["wal_iterations"]
    if wal_iterations < 1:
        raise InsufficientSamples("no iteration's WAL records were read back")
    # A server that writes no WAL record has no append to time.
    wal_append = median(r["wal_append_ms"]) if r["wal_append_ms"] else 0.0
    ask_overhead = [w - l for w, l in zip(r["ask_wire_ms"], r["ask_layer_ms"])]
    tell_overhead = [w - l for w, l in zip(r["tell_wire_ms"], r["tell_layer_ms"])]
    untraced_ips = iterations_per_second(untraced)
    traced_ips = iterations_per_second(traced)
    return {
        "dbsim.eval_ms_p50": (median(traced["eval_ms"]), "ms"),
        "dbsim.crashed_share": (traced["crashed"] / len(traced["eval_ms"]),
                                "ratio"),
        "optimizer.suggest_ms_p50": (median(r["suggest_ms"]), "ms"),
        "optimizer.suggest_ms_p90": (percentile(r["suggest_ms"], 90), "ms"),
        "optimizer.observe_ms_p50": (median(r["observe_ms"]), "ms"),
        "optimizer.observe_ms_p90": (percentile(r["observe_ms"], 90), "ms"),
        "core.project_us_p50": (1000.0 * median(r["project_ms"]), "us"),
        "core.project_calls_per_iter": (len(r["project_ms"]) / iterations,
                                        "count"),
        "core.session_ask_ms_p50": (median(r["session_ask_ms"]), "ms"),
        "core.session_tell_ms_p50": (median(r["session_tell_ms"]), "ms"),
        "service.ask_ms_p50": (median(r["service_ask_ms"]), "ms"),
        "service.tell_ms_p50": (median(r["service_tell_ms"]), "ms"),
        "service.wal_append_ms_p50": (wal_append, "ms"),
        "service.wal_records_per_iter": (r["wal_records"] / wal_iterations,
                                         "count"),
        "service.wal_bytes_per_iter": (r["wal_bytes"] / wal_iterations,
                                       "bytes"),
        "service.checkpoint_ms_p50": (median(r["checkpoint_ms"]), "ms"),
        "service.checkpoint_bytes": (median(r["checkpoint_bytes"]), "bytes"),
        "net.ask_overhead_ms_p50": (median(ask_overhead), "ms"),
        "net.tell_overhead_ms_p50": (median(tell_overhead), "ms"),
        "net.msg_codec_us": (r["msg_codec_us"], "us"),
        "net.frame_codec_us": (r["frame_codec_us"], "us"),
        "net.create_request_bytes": (r["create_request_bytes"], "bytes"),
        "net.ask_reply_bytes": (r["ask_reply_bytes"], "bytes"),
        "net.tell_request_bytes": (r["tell_request_bytes"], "bytes"),
        "net.autosaves_written": (stats["autosaves_written"], "count"),
        "net.busy_rejections": (stats["busy_rejections"], "count"),
        "net.shed_overload": (stats["shed_overload"], "count"),
        "trace.overhead_pct": (100.0 * (untraced_ips - traced_ips)
                               / untraced_ips, "%"),
        "trace.ask_coverage": (coverage(r["ask_layer_ms"], r["ask_wire_ms"]),
                               "ratio"),
        "trace.tell_coverage": (coverage(r["tell_layer_ms"],
                                         r["tell_wire_ms"]), "ratio"),
    }


def extra_per_layer(traced, des_transactions):
    """Per-layer figures that exist on some workloads only."""
    extra = {}
    if des_transactions:
        seconds = sum(traced["eval_ms"]) / 1000.0
        extra["dbsim.des_txn_per_s"] = (
            des_transactions * len(traced["eval_ms"]) / seconds, "1/s")
    vanilla = traced["replay"]["vanilla_suggest_ms"]
    if vanilla:
        extra["optimizer.vanilla_suggest_ms_p50"] = (median(vanilla), "ms")
    return extra
