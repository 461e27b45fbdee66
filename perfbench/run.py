"""End-to-end benchmark of the semantic NIDS: pcap bytes on disk to
delivered alerts, with a per-layer self-time breakdown on request.

Usage (from the repository root)::

    python3 perfbench/run.py --workload worm-sweep --seed 1 --seconds 40 \
        --trace 0

One invocation generates the workload's capture from ``--seed`` (not
timed), computes the reference alert stream with the serial batch engine
(not timed), then runs measured passes for ``--seconds`` seconds.  Each
pass is a fresh process (``passrun.py``) that sets the sensor up the way
``repro-sensord`` does and runs the whole capture through it.  Every
pass is checked against the reference and the generator's labels.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics, the
self-time table with its ``unattributed`` row, the tracing overhead and
a cross-check against the registry's own stage timers.  The last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  The full result, with host facts, is also
written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from passrun import SEGMENT  # noqa: E402
from samples import quantile  # noqa: E402
from tracing import LAYERS  # noqa: E402
from workloads import TEMPLATE_SET, WORKLOADS, Workload, generate  # noqa: E402

#: end-to-end metrics in the JSON line (name, unit); see run_metrics
END_TO_END = (
    ("pkts_per_s", "packets/s"),
    ("cpu_ms_per_kpkt", "ms"),
    ("packet_latency_p50_us", "us"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

#: printed end-to-end metrics that are not in the JSON line.  Alert
#: latency does not exist on a workload that raises no alert.  The p99
#: packet latency sits on a cliff: the few batches delayed by cold
#: start-up work or a full garbage collection hold about 1% of packets,
#: so whether p99 reads ~10 ms or ~19 ms on worm-sweep depends on the
#: capture, a spread no run length removes.
PRINTED_ONLY = (
    ("packet_latency_p99_us", "us"),
    ("alert_latency_p50_ms", "ms"),
    ("alert_latency_p90_ms", "ms"),
)

#: per-layer metrics of the traced run (name, unit)
PER_LAYER = (
    ("net.pcap.calls", "count"), ("net.pcap.self_s", "s"),
    ("net.defrag.calls", "count"), ("net.defrag.self_s", "s"),
    ("net.defrag.datagrams_completed", "count"),
    ("classify.calls", "count"), ("classify.self_s", "s"),
    ("classify.forward_ratio", "ratio"),
    ("net.flow.calls", "count"), ("net.flow.self_s", "s"),
    ("net.flow.streams_peak", "count"),
    ("extract.calls", "count"), ("extract.self_s", "s"),
    ("extract.bytes_in", "bytes"), ("extract.frames_out", "count"),
    ("fastpath.calls", "count"), ("fastpath.self_s", "s"),
    ("fastpath.skip_ratio", "ratio"),
    ("core.analyzer.calls", "count"), ("core.analyzer.self_s", "s"),
    ("core.analyzer.frame_cache_hit_ratio", "ratio"),
    ("core.analyzer.ir_cache_hit_ratio", "ratio"),
    ("x86.disasm.calls", "count"), ("x86.disasm.self_s", "s"),
    ("ir.calls", "count"), ("ir.self_s", "s"), ("ir.instructions", "count"),
    ("core.matchplan.calls", "count"), ("core.matchplan.self_s", "s"),
    ("core.matchplan.match_ratio", "ratio"),
    ("nids.pipeline.self_s", "s"),
    ("nids.daemon.ring_wait_p50_us", "us"),
    ("nids.daemon.ring_depth_max", "count"), ("nids.daemon.self_s", "s"),
    ("resilience.journal.appends", "count"),
    ("resilience.journal.fsyncs", "count"),
    ("resilience.journal.self_s", "s"),
    ("resilience.delivery.calls", "count"),
    ("resilience.delivery.self_s", "s"),
    ("resilience.delivery.retries", "count"),
    ("resilience.checkpoint.calls", "count"),
    ("resilience.checkpoint.self_s", "s"),
    ("resilience.checkpoint.bytes", "bytes"),
    ("unattributed.self_s", "s"),
)

#: per-layer metrics printed for the fleet workload only: on a serial
#: engine the fleet layer never runs and each reads 0
FLEET_LAYER = (
    ("nids.fleet.dispatch_self_s", "s"), ("nids.fleet.flush_wait_s", "s"),
    ("nids.fleet.ship_bytes", "bytes"), ("nids.fleet.batches", "count"),
)

#: p90 needs at least ten samples beyond it
MIN_P90_SAMPLES = 100
#: every pass, set-up included, must finish within this
PASS_TIMEOUT_S = 150
#: stop starting passes once this much of the 180 s budget is gone
TOTAL_BUDGET_S = 160
MIN_ROUNDS = 3


# -- inputs ---------------------------------------------------------------


def host_facts(state_dir: Path) -> dict:
    import numpy

    facts = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "state_fs": _fs_type(state_dir),
        "commit": _commit(),
        "src_sha256": _tree_digest(ROOT / "src"),
    }
    return facts


def host_probe_ms() -> float:
    """Median wall milliseconds of a fixed pure-Python loop.  Taken before
    and after the passes, it shows how fast the host ran during the run,
    so host drift is visible next to the metrics it moves."""
    times = []
    for _ in range(5):
        t = time.perf_counter()
        x = 0
        for i in range(300_000):
            x += i
        times.append((time.perf_counter() - t) * 1e3)
    return statistics.median(times)


def _fs_type(path: Path) -> str:
    try:
        out = subprocess.run(["stat", "-f", "-c", "%T", str(path)],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def _commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "not a git checkout"


def _tree_digest(top: Path) -> str:
    """sha256 over the relative paths and bytes of every source file, so
    a result names the code it measured even outside git."""
    h = hashlib.sha256()
    for path in sorted(top.rglob("*.py")):
        h.update(str(path.relative_to(top)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def prepare(workload: Workload, seed: int, scale: float, work: Path) -> dict:
    """Write the capture and compute the reference (neither is timed)."""
    from repro.net.pcap import read_pcap, write_pcap
    from repro.nids import SemanticNids
    from repro.nids.parallel import resolve_template_set

    capture = generate(workload, seed, scale)
    path = work / "capture.pcap"
    write_pcap(path, capture.packets)
    nids = SemanticNids(templates=resolve_template_set(TEMPLATE_SET),
                        **workload.nids_options())
    reference = [a.format() for a in nids.process_trace(read_pcap(path))]
    return {
        "path": path,
        "packets": len(capture.packets),
        "bytes": path.stat().st_size,
        "attackers": sorted(capture.attackers),
        "reference": reference,
    }


# -- passes ---------------------------------------------------------------


def run_pass(workload: Workload, prepared: dict, work: Path, index: int,
             trace: bool, spans_out: Path | None = None) -> dict:
    """Run one pass in a fresh process and return its result document."""
    state = work / f"state-{index}"
    shutil.rmtree(state, ignore_errors=True)
    state.mkdir()
    out = work / f"pass-{index}.json"
    cmd = [sys.executable, str(HERE / "passrun.py"),
           "--workload", workload.name, "--capture", str(prepared["path"]),
           "--state-dir", str(state), "--out", str(out)]
    if trace:
        cmd.append("--trace")
        if spans_out is not None:
            cmd += ["--spans-out", str(spans_out)]
    spawned = time.monotonic()
    # Own session, so a pass that must be stopped takes its fleet workers
    # with it.
    proc = subprocess.Popen(cmd + ["--spawned-at", repr(spawned)],
                            cwd=ROOT, stdout=subprocess.DEVNULL,
                            start_new_session=True)
    try:
        code = proc.wait(timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"pass {index} exceeded {PASS_TIMEOUT_S}s")
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if code != 0:
        raise RuntimeError(f"pass {index} exited with code {code}")
    result = json.loads(out.read_text())
    shutil.rmtree(state, ignore_errors=True)
    out.unlink()
    result["traced"] = trace
    return result


# -- correctness gate -----------------------------------------------------


def gate(result: dict, prepared: dict, workload: Workload) -> dict:
    """Check one pass.  Returns ``attempted``/``failed`` counts, whether
    the program's own output was correct, and the findings.

    Operations are the offered packets plus the expected alert
    deliveries.  A failure is a packet that was shed, lost or contained
    as a stage fault; an expected alert that was not delivered; a
    delivered alert that is not in the reference; or an alert that
    contradicts the generator's labels (an attacker without an alert, an
    alert from a benign source).  ``correct`` additionally requires the
    engine's alert stream to equal the serial batch reference exactly and
    the daemon's accounting identity to hold.
    """
    reference = prepared["reference"]
    findings: list[str] = []
    correct = True
    acct = result["accounting"]
    offered = prepared["packets"]
    if (acct["ingested"] != acct["processed"] + acct["shed"] + acct["queued"]
            or acct["uncounted_drops"] != 0):
        correct = False
        findings.append(f"accounting identity broken: {acct}")
    lost = offered - acct["processed"] - acct["shed"]
    packet_failures = acct["shed"] + max(0, lost) + int(result["faults"])
    if packet_failures:
        findings.append(f"packets failed: shed={acct['shed']} lost={lost} "
                        f"contained_faults={int(result['faults'])}")
    if result["engine_lines"] != reference:
        correct = False
        engine = Counter(result["engine_lines"])
        ref = Counter(reference)
        findings.append(
            "engine alert stream differs from the serial batch reference: "
            + (f"{sum((ref - engine).values())} missing, "
               f"{sum((engine - ref).values())} extra" if engine != ref
               else "same alerts in another order"))
    delivered = Counter(result["sink_lines"])
    ref = Counter(reference)
    undelivered = sum((ref - delivered).values())
    spurious = sum((delivered - ref).values())
    if spurious:
        correct = False
        findings.append(f"{spurious} delivered alert(s) not in the reference")
    if undelivered:
        findings.append(f"{undelivered} of {len(reference)} expected alerts "
                        "never reached the sink")
        if (workload.engine == "fleet"
                and result["engine_lines"] == reference):
            findings.append(
                "DEFECT fleet-delivery: SensorFleet merges packet alerts into "
                "SensorFleet.alerts at barrier checkpoints "
                f"({result['journaled']} journaled), but SensorDaemon "
                "delivers only what SensorFleet.flush() returns, so they "
                "never reach on_alert")
    attackers = set(prepared["attackers"])
    sources = Counter(result["engine_sources"])
    silent = sorted(attackers - set(sources))
    benign = {s: n for s, n in sources.items() if s not in attackers}
    label_failures = len(silent) + sum(benign.values())
    if silent:
        findings.append(f"{len(silent)} attacker source(s) raised no alert: "
                        f"{', '.join(silent[:5])}")
    if benign:
        findings.append(
            f"{sum(benign.values())} alert(s) from benign source(s): "
            + ", ".join(f"{s} x{n}" for s, n in sorted(benign.items())[:5]))
    return {
        "attempted": offered + len(reference),
        "failed": packet_failures + undelivered + spurious + label_failures,
        "correct": correct,
        "findings": findings,
    }


# -- reduction ------------------------------------------------------------


def pass_metrics(result: dict) -> dict:
    """End-to-end metrics of one untraced pass."""
    lat = result["packet_latency_s"]
    out = {
        "pkts_per_s": result["packets"] / result["wall_s"],
        "cpu_ms_per_kpkt": result["cpu_s"] * 1e3 / (result["packets"] / 1e3),
        "packet_latency_p50_us": quantile(lat, 0.50) * 1e6,
        "packet_latency_p99_us": quantile(lat, 0.99) * 1e6,
        "setup_s": result["setup_s"],
        "peak_rss_mb": result["peak_rss_mb"],
    }
    alerts = result["alert_latency_s"]
    out["alert_samples"] = len(alerts)
    if alerts:
        out["alert_latency_p50_ms"] = quantile(alerts, 0.50) * 1e3
    if len(alerts) >= MIN_P90_SAMPLES:
        out["alert_latency_p90_ms"] = quantile(alerts, 0.90) * 1e3
    return out


def run_metrics(untraced: list[dict]) -> dict:
    """End-to-end metrics of a run, from all its untraced passes.

    Every pass runs the same packets in the same order, so passes are
    combined piece by piece.  The wall and CPU time of the capture are
    sums over segments of ``passrun.SEGMENT`` packets (the last segment
    runs to the final flush) of each segment's fastest time over the
    passes, and a packet's latency is its lowest over the passes before
    the quantile over packets is taken.  On a shared host, interference
    from other tenants only ever adds time, and it comes and goes within
    a pass, so the fastest time of each piece is the steadiest estimate
    of what the program itself costs; a median over whole passes moves
    with how busy the host was during the run.  ``setup_s`` and
    ``peak_rss_mb`` are medians over passes.
    """
    import numpy

    packets = untraced[0]["packets"]
    cumulative = numpy.array([r["timeline"] for r in untraced])
    segments = numpy.diff(cumulative, axis=1,
                          prepend=numpy.zeros((len(untraced), 1, 2)))
    wall, cpu = segments.min(axis=0).sum(axis=0)
    latency = numpy.array([r["packet_latency_s"] for r in untraced])
    latency = latency.min(axis=0).tolist()
    return {
        "pkts_per_s": packets / wall,
        "cpu_ms_per_kpkt": cpu * 1e3 / (packets / 1e3),
        "packet_latency_p50_us": quantile(latency, 0.50) * 1e6,
        "packet_latency_p99_us": quantile(latency, 0.99) * 1e6,
        "setup_s": statistics.median(r["setup_s"] for r in untraced),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in untraced),
    }


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def report_end_to_end(workload: Workload, run: dict, per_pass: list[dict],
                      untraced: list[dict], attempted: int,
                      failed: int) -> None:
    print(f"end-to-end ({len(per_pass)} passes, fastest time of each "
          f"{SEGMENT}-packet segment; [q1 .. q3] of the single passes):")
    serial = workload.engine == "serial"
    for name, unit in END_TO_END + PRINTED_ONLY:
        values = [m[name] for m in per_pass if name in m]
        note = ""
        if name.startswith("packet_latency"):
            n = min(len(r["packet_latency_s"]) for r in untraced)
            note = f"  (n={n} packets per pass"
            note += ")" if serial else "; fleet: returns at dispatch)"
        elif name.startswith("alert_latency"):
            n = min(m["alert_samples"] for m in per_pass)
            if not values:
                need = ("" if name.endswith("p50_ms")
                        else f"; p90 needs >= {MIN_P90_SAMPLES}")
                print(f"  {name:24s} n/a {unit}  (n={n} delivered alerts "
                      f"per pass{need})")
                continue
            note = f"  (n={n} delivered alerts per pass)"
        if len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = f" [{_fmt(q1)} .. {_fmt(q3)}]"
        else:
            spread = ""
        value = _fmt(run.get(name, statistics.median(values)))
        print(f"  {name:24s} {value} {unit}{spread}{note}")
    print(f"  {'failed_share':24s} {_fmt(failed / attempted)} ratio  "
          f"({failed} of {attempted} operations of the capture)")


def report_layers(workload: Workload, traced: list[dict],
                  untraced: list[dict]) -> None:
    walls = [r["wall_s"] for r in traced]
    mid = sorted(traced, key=lambda r: r["wall_s"])[len(traced) // 2]
    wall = mid["wall_s"]
    print(f"per-layer self time (traced pass with the median wall, "
          f"{wall:.4f} s; {len(traced)} traced passes):")
    print(f"  {'layer':24s} {'self_s':>10s} {'share':>7s}")
    total = 0.0
    for layer in LAYERS:
        s = mid["layer_self"][layer]
        total += s
        print(f"  {layer:24s} {s:10.4f} {s / wall:7.1%}")
    rest = mid["layers"]["unattributed.self_s"]
    total += rest
    print(f"  {'unattributed':24s} {rest:10.4f} {rest / wall:7.1%}")
    print(f"  {'sum':24s} {total:10.4f} (wall {wall:.4f} s)")
    overhead = (statistics.median(walls)
                / statistics.median([r["wall_s"] for r in untraced]))
    print(f"tracing overhead: traced wall / untraced wall = {overhead:.3f} "
          f"(medians of {len(traced)} and {len(untraced)} passes)")
    if workload.engine == "fleet":
        print("fleet dispatcher (traced pass with the median wall):")
        for name, unit in FLEET_LAYER:
            print(f"  {name:28s} {_fmt(mid['layers'][name])} {unit}")
    print("stage-timer cross-check (wrapped inclusive vs registry "
          "StageTimer, same pass):")
    for row in mid["crosscheck"]:
        verdict = _crosscheck_verdict(row, workload.engine == "fleet")
        print(f"  {row['stage']:12s} wrapped {row['wrapped_calls']:7d} calls "
              f"{row['wrapped_s']:9.4f} s | registry "
              f"{row['registry_calls']:7d} calls {row['registry_s']:9.4f} s"
              f"  {verdict}")


def _crosscheck_verdict(row: dict, fleet: bool) -> str:
    if fleet:
        return ("worker-side: the registry folds worker timers, the "
                "wrappers see the dispatcher only")
    if row["wrapped_calls"] != row["registry_calls"]:
        return "DISAGREE (call counts differ)"
    # The wrapper encloses the timer's own bookkeeping (a few us a call).
    slack = 0.25 * row["registry_s"] + 10e-6 * row["registry_calls"]
    if abs(row["wrapped_s"] - row["registry_s"]) > slack:
        return "DISAGREE (seconds differ)"
    return "agree"


# -- main -----------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="End-to-end and per-layer benchmark of the semantic "
                    "NIDS over generated captures.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measure for this long (whole passes)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink every workload (smoke tests only; "
                             "results are not comparable)")
    args = parser.parse_args(argv)
    started = time.monotonic()
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no sensor source under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    workload = WORKLOADS[args.workload]
    work = HERE / ".work" / f"{workload.name}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return _run(args, workload, work, started)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(args, workload: Workload, work: Path, started: float) -> int:
    facts = host_facts(work)
    prepared = prepare(workload, args.seed, args.scale, work)
    facts.update(workload=workload.name, seed=args.seed, scale=args.scale,
                 packets=prepared["packets"],
                 capture_bytes=prepared["bytes"],
                 reference_alerts=len(prepared["reference"]))
    facts["probe_ms_before"] = host_probe_ms()
    print("host: " + " ".join(f"{k}={v}" for k, v in facts.items()))
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    spans_path = out_dir / f"spans-{workload.name}.jsonl"

    untraced: list[dict] = []
    traced: list[dict] = []
    t0 = time.monotonic()
    index = 0
    rounds: list[float] = []  # wall seconds of each round of passes
    while True:
        now = time.monotonic()
        if rounds:
            # Start a round only if it fits: a run measures for about
            # --seconds and never runs past the overall budget.
            if (len(rounds) >= MIN_ROUNDS
                    and now - t0 + statistics.median(rounds)
                    > args.seconds):
                break
            if now - started + max(rounds) > TOTAL_BUDGET_S:
                break
        for trace in ([False, True] if args.trace else [False]):
            first_traced = trace and not traced
            result = run_pass(workload, prepared, work, index, trace,
                              spans_path if first_traced else None)
            index += 1
            (traced if trace else untraced).append(result)
        rounds.append(time.monotonic() - now)

    facts["probe_ms_after"] = host_probe_ms()
    print(f"host probe: {facts['probe_ms_before']:.2f} ms before the passes, "
          f"{facts['probe_ms_after']:.2f} ms after (fixed loop; higher = "
          "slower host)")
    passes = untraced + traced
    verdicts = [gate(r, prepared, workload) for r in passes]
    correct = all(v["correct"] for v in verdicts)
    # The operations are the capture's: every pass repeats them, so a
    # run counts them once (the same seed gives the same counts however
    # many passes fit), with the failures of its worst pass.
    attempted = verdicts[0]["attempted"]
    failed = max(v["failed"] for v in verdicts)
    findings = sorted({f for v in verdicts for f in v["findings"]})
    if len({v["failed"] for v in verdicts}) > 1:
        findings.append("failures differ between passes of the same "
                        "capture: " + ", ".join(
                            str(v["failed"]) for v in verdicts))
    per_pass = [pass_metrics(r) for r in untraced]
    run = run_metrics(untraced)

    print(f"workload {workload.name}: {workload.why}")
    print(f"engine: {workload.engine}, classification "
          f"{'on' if workload.classify else 'off'}; closed loop, ring "
          "policy block; seed generates the capture, generation untimed")
    report_end_to_end(workload, run, per_pass, untraced, attempted, failed)
    if args.trace:
        report_layers(workload, traced, untraced)
    print(f"correctness gate: {'PASS' if correct else 'FAIL'} "
          f"(reference: {len(prepared['reference'])} alerts from the serial "
          f"batch engine; {failed} of {attempted} operations failed)")
    for finding in findings:
        print(f"  {finding}")

    if args.trace:
        metrics = {name: {"value": statistics.median(
                              [r["layers"][name] for r in traced]),
                          "unit": unit}
                   for name, unit in PER_LAYER}
    else:
        metrics = {name: {"value": run[name], "unit": unit}
                   for name, unit in END_TO_END}
    full = {"host": facts, "correct": correct, "attempted": attempted,
            "failed": failed, "findings": findings, "metrics": metrics,
            "per_pass": per_pass}
    (out_dir / f"result-{workload.name}-trace{args.trace}.json").write_text(
        json.dumps(full, indent=1))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
