"""Printing results, comparing two result files, the calibration table."""

from __future__ import annotations

from typing import Any, Iterable

from .layers import PER_LAYER
from .runner import END_TO_END


def _number(value: float) -> str:
    return f"{value:,.4f}" if abs(value) < 100 else f"{value:,.1f}"


def timed_lines(result: dict[str, Any]) -> Iterable[str]:
    """One workload's end-to-end metrics, each by name with its unit."""
    name = result["workload"]
    yield (f"== {name}  seed {result['seed']}  {result['seconds']:g} s  "
           f"inputs sha256 {result['inputs_sha256'][:16]}")
    for metric, entry in {**result["metrics"], **result["ungated"]}.items():
        if not entry.get("applies", True):
            continue  # reported over all operations; not this workload's class
        detail = ""
        if "min" in entry:
            detail += f"  windows min {_number(entry['min'])} max {_number(entry['max'])}"
        if "samples" in entry:
            detail += f"  n={entry['samples']}"
        yield f"  {metric:<20} {_number(entry['value']):>14} {entry['unit']:<6}{detail}"
    yield (f"  {'error_rate':<20} {result['error_rate']:>14.6f}        "
           f"{result['failed']} failed of {result['attempted']} attempted")
    if "open_lateness_ms" in result:
        late = result["open_lateness_ms"]
        yield (f"  open-loop generator lateness: p50 {late['p50']:.3f} ms, "
               f"p99 {late['p99']:.3f} ms over {late['samples']} requests")
    for phase, kinds in result["kinds"].items():
        for kind, row in kinds.items():
            yield (f"    {phase:<6} {kind:<15} n={row['samples']:<7} "
                   f"p50 {row['p50_ms']:.4f} ms  p{row['tail_percentile']:g} "
                   f"{row['tail_ms']:.4f} ms")
    for line in result["mismatches"]:
        yield f"  MISMATCH {line}"
    if result["mis_sized"]:
        yield f"  MIS-SIZED {result['mis_sized']}"


def traced_lines(result: dict[str, Any]) -> Iterable[str]:
    yield (f"== {result['workload']}  traced pass  request "
           f"{result['request_us']:.1f} us inside the program  "
           f"{result['spans_written']} spans written")
    for name, _, _ in PER_LAYER:
        entry = result["metrics"][name]
        yield f"  {name:<44} {_number(entry['value']):>14} {entry['unit']}"
    yield from profile_lines(result)
    for line in result["mismatches"]:
        yield f"  MISMATCH {line}"


def profile_lines(traced: dict[str, Any]) -> Iterable[str]:
    """Where a request's time goes, layer group by layer group, and the
    share of the groups this workload was built to stress."""
    profile = traced["profile_us"]
    total = sum(profile.values()) or 1.0
    ranked = sorted(profile.items(), key=lambda item: -item[1])
    yield "  profile (self time per request, all threads): " + ", ".join(
        f"{group} {value:.1f} us ({value / total:.0%})"
        for group, value in ranked if value / total >= 0.01)
    groups, target = traced["intended"]
    held = sum(profile.get(group, 0.0) for group in groups) / total
    goal = f" (intended >= {target:.0%})" if target else ""
    yield f"  intended dominant layers {' + '.join(groups)}: {held:.0%}{goal}"
    unattributed = traced["metrics"]["unattributed_us"]["value"]
    yield (f"  unattributed: {unattributed:.1f} us = "
           f"{unattributed / (traced['request_us'] + unattributed):.1%} of the "
           "request cycle (intended <= 15%)")


# -- compare ---------------------------------------------------------------------


def compare(a: dict[str, Any], b: dict[str, Any]) -> tuple[list[str], bool]:
    """Apply the per-metric bounds to two result sets (``b`` against
    ``a``); one row per (workload, metric): ok / regressed / unresolved.

    A window-median metric is *unresolved* when either side's min–max
    spread is wider than its bound.
    """
    lines, clean = [], True
    for workload, before in a["timed"].items():
        after = b["timed"].get(workload)
        if after is None:
            lines.append(f"{workload:<16} missing from the second file")
            clean = False
            continue
        for metric, _, better, bound in END_TO_END:
            old, new = before["metrics"][metric], after["metrics"][metric]
            if not old.get("applies", True):
                continue
            change = (new["value"] - old["value"]) / old["value"]
            worse = change if better == "lower" else -change
            spread = max(
                (e["max"] - e["min"]) / e["value"] if "min" in e else 0.0
                for e in (old, new))
            if worse > bound:
                verdict, clean = "regressed", False
            elif spread > bound and metric != "setup_s":
                verdict, clean = "unresolved", False
            else:
                verdict = "ok"
            lines.append(
                f"{workload:<16} {metric:<18} {_number(old['value']):>12} -> "
                f"{_number(new['value']):>12} {new['unit']:<6} {change:+7.1%} "
                f"(bound {bound:.0%}, spread {spread:.1%})  {verdict}")
        if after["failed"] or before["failed"]:
            lines.append(f"{workload:<16} error_rate above 0  regressed")
            clean = False
    return lines, clean


# -- calibration -------------------------------------------------------------------


def calibration_lines(traced: dict[str, dict[str, Any]]) -> Iterable[str]:
    """``LatencyModel`` constants beside their measured counterparts
    (report only: the model is not edited)."""
    from repro.bench.latency import LatencyModel

    model = LatencyModel()

    def metric(workload: str, name: str) -> float:
        return traced[workload]["metrics"][name]["value"]

    def ratio_of(workload: str, seconds: str, count: str) -> float:
        cal = traced[workload]["calibration"]
        return cal[seconds] / cal[count] * 1e6 if cal[count] else float("nan")

    rows = []
    if "snapshot_reads" in traced:
        rows.append(("auth_check", model.auth_check, "one computed decision, its "
                     "visibility and identity helpers included, store reads not "
                     "(auth self time / evaluations, snapshot_reads)",
                     ratio_of("snapshot_reads", "auth_self_seconds", "evaluations")))
        rows.append(("db_scan_row", model.db_scan_row, "one scanned row "
                     "(SQLite scan time / rows, snapshot_reads)",
                     ratio_of("snapshot_reads", "scan_self_seconds", "scan_rows")))
    if "resolve_hot" in traced:
        rows.append(("cache_probe", model.cache_probe, "one cached name resolution "
                     "(kernel.resolve self time / calls, resolve_hot)",
                     ratio_of("resolve_hot", "resolve_self_seconds", "resolve_calls")))
        rows.append(("sts_mint", model.sts_mint, "one vend that mints "
                     "(vending self time / minted, resolve_hot warm-up)",
                     ratio_of("resolve_hot", "vend_seconds_warm", "minted_warm")))
    any_traced = next(iter(traced.values()), None)
    if any_traced is not None:
        name = any_traced["workload"]
        rows.append(("db_point_read", model.db_point_read,
                     "persistence.sqlite.get_us",
                     metric(name, "persistence.sqlite.get_us")))
        rows.append(("db_multi_get", model.db_multi_get,
                     "persistence.sqlite.multi_get8_us",
                     metric(name, "persistence.sqlite.multi_get8_us")))
    if "http_serving" in traced:
        rows.append(("network_rtt", model.network_rtt, "http_server.self_us "
                     "(loopback round trip minus handle, http_serving)",
                     metric("http_serving", "http_server.self_us")))
    yield "== calibration: LatencyModel constant vs measured here (report only)"
    yield f"  {'constant':<15} {'model us':>10} {'measured us':>12} {'ratio':>8}  measured as"
    for constant, modelled, how, measured in rows:
        yield (f"  {constant:<15} {modelled * 1e6:>10.2f} {measured:>12.3f} "
               f"{measured / (modelled * 1e6):>8.3f}  {how}")
