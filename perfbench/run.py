"""burstlink benchmark: host time per simulated frame, end to end and per layer.

Usage (from the root of a checkout):

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see workloads.py and BENCHMARK.json for why each was chosen):

  trial-impaired  back-to-back 50-frame trials, 16QAM lambda=4, impaired profile
  sweep-grid      ``burstlink sweep`` on configs/example_sweep.cfg, nproc workers
  report-replay   ``burstlink report`` on the event log that sweep-grid writes

``--trace 0`` measures the end-to-end metrics with no tracing. ``--trace 1``
measures the same loop untraced for S/2 seconds, then traced for S seconds,
and reports the per-layer metrics plus the ratio of the two frame rates (the
tracing overhead). sweep-grid is traced at one worker, because spans recorded
inside pool workers never reach the parent; its traced run also measures the
sweep at one and at nproc workers untraced, for the scaling efficiency.

Times are calibrated for host speed with a kernel timed next to every call
(see calibrate.py); the uncalibrated figures are printed and recorded too.

Every call's output is checked (SHA-256 digests for the default seed,
self-consistency for any seed); a call whose check fails counts as failed.
Human-readable lines go to standard output first, then one JSON line:
{"correct", "attempted", "failed", "metrics"}. Each run also leaves a record
with its provenance stamp (and, when traced, every span) in .perfbench_out/.
Exits 2 without a result when the checkout does not hold the program.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import pickle
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import workloads
from calibrate import Sampler, kernel_ns, speed_factor
from tracer import LAYERS, Tracer

OUT_DIR = os.path.join(workloads.ROOT, ".perfbench_out")
PROBE = os.path.join(workloads.BENCH_DIR, "setup_probe.py")
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 120

# Per-layer metrics from the traced run: (name, unit, how, span names).
#   us        inclusive microseconds per frame
#   self_us   self microseconds per frame
#   calls     calls per frame (computed count)
#   builds    calls that computed a result per frame; for a functools cache
#             only its misses (computed count)
#   ms        inclusive milliseconds per call
#   self_ms   self milliseconds per call
LAYER_SPANS = (
    ("waveform.agc_us_per_frame", "us", "us", ("waveform.agc",)),
    ("waveform.matched_filter_us_per_frame", "us", "us", ("waveform.matched_filter_downsample",)),
    ("waveform.matched_filter_calls_per_frame", "count", "calls", ("waveform.matched_filter_downsample",)),
    (
        "waveform.builder_calls_per_frame",
        "count",
        "builds",
        (
            "waveform.design_srrc",
            "waveform.build_constellation",
            "waveform.generate_golay_pair",
            "framing.default_tables",
        ),
    ),
    ("waveform.tx_shape_us_per_frame", "us", "us", ("waveform.shape_and_upsample",)),
    ("waveform.demap_us_per_frame", "us", "us", ("waveform.demap_symbols", "waveform.hard_decisions")),
    ("sync.receive_us_per_frame", "us", "us", ("sync.receive_frame",)),
    ("sync.receive_self_us_per_frame", "us", "self_us", ("sync.receive_frame",)),
    ("sync.training_detect_us_per_frame", "us", "us", ("sync._choose_training_phase",)),
    ("sync.golay_detect_us_per_frame", "us", "us", ("sync.golay_frame_detect",)),
    (
        "sync.fine_correction_us_per_frame",
        "us",
        "us",
        (
            "sync.nco_correct",
            "sync.estimate_channel",
            "sync.residual_offset",
            "sync._pilot_slope_hz",
            "sync.equalize_block",
        ),
    ),
    ("channel.apply_us_per_frame", "us", "us", ("channel.apply_channel",)),
    ("framing.assemble_us_per_frame", "us", "us", ("framing.assemble_frame",)),
    ("framing.parse_us_per_frame", "us", "us", ("framing.parse_frame", "framing.unpack_wire_bytes")),
    ("metrics.aggregate_us_per_frame", "us", "us", ("metrics.aggregate_events",)),
    ("harness.trial_self_us_per_frame", "us", "self_us", ("harness.run_trial_events",)),
    ("harness.csv_write_us_per_frame", "us", "us", ("harness.write_results_csv", "harness.write_events_csv")),
    ("harness.sigmf_write_us_per_frame", "us", "us", ("harness.emit_sigmf", "harness.write_sigmf")),
    ("harness.csv_read_us_per_frame", "us", "us", ("harness.read_events_csv",)),
    ("harness.reaggregate_us_per_frame", "us", "us", ("harness.results_from_event_rows",)),
    ("config.load_ms", "ms", "ms", ("config.load_sweep_config",)),
    ("cli.self_ms", "ms", "self_ms", ("cli.main",)),
)

# Per-layer metrics that are not span sums.
LAYER_EXTRA = (
    ("sync.detect_ratio", "ratio"),
    ("sync.crc_pass_ratio", "ratio"),
    ("harness.result_pickle_bytes_per_frame", "bytes"),
    ("harness.event_log_bytes_per_frame", "bytes"),
    ("harness.scaling_efficiency", "ratio"),
    ("trace.overhead_ratio", "ratio"),
)

LAYER_SELF = tuple((f"{layer}.self_us_per_frame", "us") for layer in LAYERS)

END_TO_END = (("frames_per_s", "1/s"), ("call_ms_p50", "ms"), ("peak_rss_mb", "MB"), ("setup_s", "s"))
PER_LAYER = tuple((name, unit) for name, unit, _, _ in LAYER_SPANS) + LAYER_SELF + LAYER_EXTRA

COMPUTED_COUNTS = {
    "waveform.matched_filter_calls_per_frame",
    "waveform.builder_calls_per_frame",
    "harness.result_pickle_bytes_per_frame",
    "harness.event_log_bytes_per_frame",
}


class Phase:
    """Top-level calls made back to back in one measured window."""

    def __init__(self, label: str, frames_per_call: int, parallel: bool) -> None:
        self.label = label
        self.frames_per_call = frames_per_call
        self.parallel = parallel
        self.durations_ns: list[int] = []
        self.kernel_ns: list[list[int]] = []
        self.failed = 0
        self.problems: list[str] = []
        self.checks: list = []
        self.wall_s = 0.0

    @property
    def calls(self) -> int:
        return len(self.durations_ns)

    @property
    def frames(self) -> int:
        return self.frames_per_call * self.calls

    @property
    def calibrated_ns(self) -> list[float]:
        """Call durations in nominal-host nanoseconds (see calibrate.py)."""
        return [
            d * speed_factor(k, self.parallel) for d, k in zip(self.durations_ns, self.kernel_ns)
        ]

    @property
    def speed(self) -> float:
        """Speed factor over the whole phase."""
        return speed_factor([ns for samples in self.kernel_ns for ns in samples], self.parallel)

    @property
    def frames_per_s(self) -> float:
        return self.frames * 1e9 / sum(self.calibrated_ns)

    @property
    def raw_frames_per_s(self) -> float:
        return self.frames * 1e9 / sum(self.durations_ns)


def run_phase(wl, label: str, seconds: float, tracer: Tracer | None = None) -> Phase:
    """Call ``wl`` back to back for ``seconds`` (at least once), checking each output."""
    phase = Phase(label, wl.frames_per_call, wl.pooled_calls)
    if tracer is not None:
        tracer.start_phase()
    start = time.perf_counter()
    k = 0
    while k == 0 or time.perf_counter() - start < seconds:
        error = None
        before = kernel_ns()
        with Sampler() if phase.parallel else contextlib.nullcontext() as sampler:
            t0 = time.perf_counter_ns()
            try:
                out = tracer.call(wl.call, k) if tracer is not None else wl.call(k)
            except Exception:  # a raising call is a failed call; keep measuring
                error = traceback.format_exc()
            t1 = time.perf_counter_ns()
        phase.durations_ns.append(t1 - t0)
        phase.kernel_ns.append([before, kernel_ns()] + (sampler.samples if sampler else []))
        if tracer is not None:
            tracer.recording = False
        if error is None:
            try:
                check = wl.check(k, out)
            except Exception:  # an output the check cannot read fails the call
                problems = [f"{label} call {k} output unreadable:\n{traceback.format_exc()}"]
            else:
                phase.checks.append(check)
                problems = check.problems
        else:
            problems = [f"{label} call {k} raised:\n{error}"]
        if tracer is not None:
            tracer.recording = True
        if problems:
            phase.failed += 1
            phase.problems.extend(problems)
        k += 1
    if tracer is not None:
        tracer.stop_phase()
    phase.wall_s = time.perf_counter() - start
    return phase


def percentile_with_tail(values: list[float], q: int) -> float | None:
    """The q-th percentile, or None when fewer than ten samples lie beyond it."""
    if len(values) < 2:
        return None
    value = statistics.quantiles(values, n=100)[q - 1]
    return value if sum(v > value for v in values) >= 10 else None


def peak_rss_mb(include_children: bool) -> float:
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        kb = max(kb, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def setup_probes(wl, seed: int, work_dir: str) -> tuple[list[float], list[str]]:
    argv = [sys.executable, PROBE, wl.name, str(seed), work_dir]
    if wl.name == "report-replay":
        argv.append(wl.events_path)
    times, problems = [], []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            argv, cwd=workloads.ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S
        )
        if proc.returncode != 0:
            problems.append(f"setup probe exited {proc.returncode}: {proc.stderr.strip()}")
            continue
        elapsed_s, kernel = proc.stdout.split()[-2:]
        times.append(float(elapsed_s) * speed_factor([int(kernel)]))
    return times, problems


def git_rev() -> str:
    if not os.path.isdir(os.path.join(workloads.ROOT, ".git")):
        return "unknown"
    try:
        proc = subprocess.run(
            ["git", "-C", workloads.ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def src_sha256() -> str:
    """Digest of every file under src/, so a record names the code it ran."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(workloads.SRC):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, workloads.SRC).encode() + b"\0")
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def make_workload(bl, name: str, seed: int, work_dir: str, expected: dict, workers: int):
    cls = {
        "trial-impaired": workloads.TrialImpaired,
        "sweep-grid": workloads.SweepGrid,
        "report-replay": workloads.ReportReplay,
    }[name]
    return cls(bl, seed, work_dir, expected, workers)


def outcome_totals(checks) -> dict:
    sent = sum(c.sent for c in checks)
    return {
        "sent": sent,
        "detected": sum(c.detected for c in checks),
        "passed": sum(c.passed for c in checks),
        "event_log_bytes": sum(c.event_log_bytes for c in checks),
        "pickle_bytes": sum(c.pickle_bytes for c in checks),
    }


def end_to_end(wl, phase: Phase, setup_s: float, rss_mb: float) -> tuple[dict, list[str]]:
    ms = [d / 1e6 for d in phase.calibrated_ns]
    metrics = {
        "frames_per_s": (phase.frames_per_s, "1/s"),
        "call_ms_p50": (statistics.median(ms), "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
        "setup_s": (setup_s, "s"),
    }
    notes = [f"calls = {phase.calls} ({phase.frames_per_call} frames each)"]
    p90 = percentile_with_tail(ms, 90)
    notes.append(
        f"call_ms_p90 = {p90!r} ms" if p90 is not None
        else "call_ms_p90 = n/a (fewer than 10 calls beyond it)"
    )
    notes.append(
        f"uncalibrated: frames_per_s = {phase.raw_frames_per_s!r}, call_ms_p50 = "
        f"{statistics.median(phase.durations_ns) / 1e6!r}; host speed factor {phase.speed!r}"
    )
    if wl.name != "report-replay":
        airtime = wl.bl.framing.FrameConfig(**workloads.TRIAL_CELL).total_symbols * 1e-6
        notes.append(f"real_time_factor = {phase.frames_per_s * airtime!r} (frames_per_s x {airtime!r} s airtime)")
    return metrics, notes


def self_ns_by_layer(totals: dict) -> dict:
    by_layer: dict[str, int] = {}
    for span, entry in totals.items():
        layer = span.split(".", 1)[0]
        by_layer[layer] = by_layer.get(layer, 0) + entry["self_ns"]
    return by_layer


def layer_metrics(tracer: Tracer, totals: dict, frames: int, speed: float) -> dict:
    """Span-derived metrics; times are scaled to the nominal host by ``speed``."""
    per_frame = 1.0 / frames if frames else 0.0
    out = {}
    for name, unit, how, spans in LAYER_SPANS:
        rows = [(span, totals.get(span, {"calls": 0, "ns": 0, "self_ns": 0})) for span in spans]
        calls = sum(r["calls"] for _, r in rows)
        if how == "us":
            value = sum(r["ns"] for _, r in rows) * speed / 1e3 * per_frame
        elif how == "self_us":
            value = sum(r["self_ns"] for _, r in rows) * speed / 1e3 * per_frame
        elif how == "calls":
            value = calls * per_frame
        elif how == "builds":
            value = sum(tracer.computed_calls(s, r["calls"]) for s, r in rows) * per_frame
        elif how == "ms":
            value = sum(r["ns"] for _, r in rows) * speed / 1e6 / calls if calls else 0.0
        else:  # self_ms
            value = sum(r["self_ns"] for _, r in rows) * speed / 1e6 / calls if calls else 0.0
        out[name] = (value, unit)
    by_layer = self_ns_by_layer(totals)
    for layer in LAYERS:
        out[f"{layer}.self_us_per_frame"] = (by_layer.get(layer, 0) * speed / 1e3 * per_frame, "us")
    return out


def traced_run(wl, args, nproc: int) -> tuple[dict, list[str], list[Phase]]:
    notes = []
    observed_sweeps: list = []
    half = args.seconds / 2.0
    phases = []
    scaling = 0.0
    if wl.name == "sweep-grid":
        wl.workers = 1
        reference = run_phase(wl, "untraced, 1 worker", half)
        wl.workers = nproc
        parallel = run_phase(wl, f"untraced, {nproc} workers", half)
        wl.workers = 1
        scaling = parallel.frames_per_s / (nproc * reference.frames_per_s)
        notes.append(
            f"scaling: {parallel.frames_per_s!r} frames/s at {nproc} workers, "
            f"{reference.frames_per_s!r} at 1 worker"
        )
        phases += [reference, parallel]
    else:
        reference = run_phase(wl, "untraced", half)
        phases.append(reference)
    tracer = Tracer(workloads.PACKAGE)
    tracer.install()
    tracer.observe("harness.run_sweep", observed_sweeps.append)
    try:
        traced = run_phase(wl, "traced", args.seconds, tracer)
    finally:
        tracer.uninstall()
    phases.append(traced)

    totals = tracer.totals()
    metrics = layer_metrics(tracer, totals, traced.frames, traced.speed)
    outcomes = outcome_totals(traced.checks)
    sent = outcomes["sent"]
    pickle_bytes = outcomes["pickle_bytes"]
    if observed_sweeps:
        pickle_bytes = sum(len(pickle.dumps(run)) for run in observed_sweeps[0])
        pickle_frames = sum(run.result.frames_sent for run in observed_sweeps[0])
    else:
        pickle_frames = traced.frames
    metrics["sync.detect_ratio"] = (outcomes["detected"] / sent if sent else 0.0, "ratio")
    metrics["sync.crc_pass_ratio"] = (outcomes["passed"] / sent if sent else 0.0, "ratio")
    metrics["harness.result_pickle_bytes_per_frame"] = (
        pickle_bytes / pickle_frames if pickle_frames else 0.0, "bytes"
    )
    metrics["harness.event_log_bytes_per_frame"] = (
        outcomes["event_log_bytes"] / traced.frames if traced.frames else 0.0, "bytes"
    )
    metrics["harness.scaling_efficiency"] = (scaling, "ratio")
    overhead = traced.frames_per_s / reference.frames_per_s if reference.frames_per_s else 0.0
    metrics["trace.overhead_ratio"] = (overhead, "ratio")

    notes.append(
        f"tracing overhead: traced {traced.frames_per_s!r} frames/s / untraced "
        f"{reference.frames_per_s!r} frames/s = {overhead!r}"
    )
    shares = sorted(self_ns_by_layer(totals).items(), key=lambda kv: -kv[1])
    notes.append(
        "self time share of traced wall time: "
        + ", ".join(f"{layer} {100.0 * ns / tracer.wall_ns:.1f}%" for layer, ns in shares)
    )
    if tracer.missing:
        notes.append("hooks not found (their metrics read 0): " + ", ".join(tracer.missing))
    spans_path = record_stem(args) + ".spans.json.gz"
    tracer.dump(spans_path)
    notes.append(f"spans: {os.path.relpath(spans_path, workloads.ROOT)} ({len(tracer.name_ix)} spans)")
    return metrics, notes, phases


def record_stem(args) -> str:
    return os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}")


def format_value(name: str, value: float, unit: str) -> str:
    tag = "  [computed count]" if name in COMPUTED_COUNTS else ""
    return f"{name} = {value!r} {unit}{tag}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    try:
        bl = workloads.import_program()
    except workloads.ProgramMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    nproc = len(os.sched_getaffinity(0))
    stamp = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_rev": git_rev(),
        "src_sha256": src_sha256(),
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": sys.modules["numpy"].__version__,
        "loadavg_start": list(os.getloadavg()),
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    work_dir = record_stem(args) + ".work"
    os.makedirs(work_dir, exist_ok=True)
    try:
        expected = workloads.load_expected()
        wl = make_workload(bl, args.workload, args.seed, work_dir, expected, nproc)
        stamp["pool_workers"] = wl.workers
        problems: list[str] = []
        extra_ops = 0

        before = kernel_ns()
        t0 = time.perf_counter()
        with Sampler() as sampler:
            problems += wl.prepare()
        prepare_s = (time.perf_counter() - t0) * speed_factor(
            [before, kernel_ns()] + sampler.samples, parallel=nproc > 1
        )
        if args.workload == "report-replay":
            extra_ops += 1
        wl.warm_up()

        if args.trace:
            if args.workload == "sweep-grid":
                stamp["pool_workers"] = [1, nproc, 1]
            metrics, notes, phases = traced_run(wl, args, nproc)
        else:
            phase = run_phase(wl, "untraced", args.seconds)
            phases = [phase]
            rss = peak_rss_mb(include_children=args.workload == "sweep-grid")
            probe_times, probe_problems = setup_probes(wl, args.seed, work_dir)
            problems += probe_problems
            extra_ops += SETUP_PROBES
            setup_s = statistics.median(probe_times) if probe_times else 0.0
            if args.workload == "report-replay":
                setup_s += prepare_s
            metrics, notes = end_to_end(wl, phase, setup_s, rss)
            notes.append(
                f"setup_s = median of {len(probe_times)} fresh-interpreter set-ups"
                + (f" + {prepare_s!r} s event-log sweep" if args.workload == "report-replay" else "")
                + f": {probe_times!r}"
            )
        stamp["loadavg_end"] = list(os.getloadavg())
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    expected_names = [name for name, _ in (PER_LAYER if args.trace else END_TO_END)]
    if list(metrics) != expected_names:
        raise RuntimeError(f"metric set {list(metrics)} is not {expected_names}")
    attempted = sum(p.calls for p in phases) + extra_ops
    failed = sum(p.failed for p in phases) + (1 if problems else 0)
    for p in phases:
        problems += p.problems
    correct = not problems

    print(f"# perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("# stamp " + json.dumps(stamp, sort_keys=True))
    for p in phases:
        print(
            f"# phase {p.label}: {p.calls} calls, {p.frames} frames, "
            f"{p.frames_per_s!r} frames/s, {p.failed} failed, {p.wall_s:.2f} s wall"
        )
    for note in notes:
        print(f"# {note}")
    print(f"# op_fail_ratio = {failed / attempted!r} ({failed} of {attempted})")
    for problem in problems[:20]:
        print(f"# FAILED: {problem}")
    for name, (value, unit) in metrics.items():
        print(format_value(name, value, unit))

    record = {
        "stamp": stamp,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "phases": [
            {
                "label": p.label,
                "calls": p.calls,
                "frames": p.frames,
                "durations_ns": p.durations_ns,
                "calibrated_ns": p.calibrated_ns,
                "kernel_ns": p.kernel_ns,
            }
            for p in phases
        ],
        "notes": notes,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    with open(record_stem(args) + ".json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
