"""In-memory span tracer that times the program's layers from outside.

The tracer wraps the layer-boundary functions listed in ``HOOKS`` at every
module attribute that binds them, because callers look a name up in their own
module: ``sync.receive_frame`` calls the ``agc`` bound in ``burstlink.sync``,
not the one in ``burstlink.waveform``. No file under ``src/`` changes.

Each span records its name, start, end and parent span; a root span opened by
the benchmark around each top-level call ties the spans of one call together.
Spans are kept in memory and written out when the run ends. A span's self time
is its duration minus the durations of its direct children (children nest
inside their parent on one thread, so they never overlap).
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from array import array

ROOT_SPAN = "bench.call"

# Layer-boundary functions, keyed by the module that defines them. A name that
# a later version of the program drops is reported as missing, and the
# metrics built on it read 0.
HOOKS = {
    "waveform": (
        "agc",
        "matched_filter_downsample",
        "shape_and_upsample",
        "design_srrc",
        "build_constellation",
        "generate_golay_pair",
        "map_bits",
        "demap_symbols",
        "hard_decisions",
    ),
    "framing": (
        "default_tables",
        "assemble_frame",
        "parse_frame",
        "unpack_wire_bytes",
        "crc_attach",
        "crc_check",
    ),
    "sync": (
        "receive_frame",
        "_choose_training_phase",
        "golay_frame_detect",
        "nco_correct",
        "estimate_channel",
        "residual_offset",
        "_pilot_slope_hz",
        "equalize_block",
    ),
    "channel": ("apply_channel",),
    "metrics": ("aggregate_events",),
    "harness": (
        "run_sweep",
        "run_trial_events",
        "generate_payload",
        "transmit_burst",
        "write_results_csv",
        "write_events_csv",
        "emit_sigmf",
        "write_sigmf",
        "read_events_csv",
        "results_from_event_rows",
        "results_to_csv",
    ),
    "config": ("load_sweep_config",),
    "cli": ("main",),
}

LAYERS = tuple(HOOKS)


class Tracer:
    """Wraps the hooked functions of one imported package and records spans."""

    def __init__(self, package: str) -> None:
        self.package = package
        self.names: list[str] = [ROOT_SPAN]
        self.name_ix = array("q")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.recording = False
        self.wall_ns = 0
        self.missing: list[str] = []
        self.observers: dict[str, list] = {}
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._cached: dict[str, object] = {}
        self._misses_at_start: dict[str, int] = {}
        self._phase_start = 0

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        wrappers: dict[int, tuple[object, object]] = {}
        for layer, funcs in HOOKS.items():
            module = sys.modules.get(f"{self.package}.{layer}")
            for func in funcs:
                name = f"{layer}.{func}"
                fn = getattr(module, func, None)
                if not callable(fn):
                    self.missing.append(name)
                    continue
                wrappers[id(fn)] = (fn, self._wrap(name, fn))
                if hasattr(fn, "cache_info"):
                    self._cached[name] = fn
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (
                mod_name == self.package or mod_name.startswith(self.package + ".")
            ):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._patches.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def _index(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _wrap(self, name: str, fn):
        ix = self._index(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            return tracer._span(ix, fn, args, kwargs)

        return traced

    # -- recording ----------------------------------------------------------

    def _span(self, ix: int, fn, args, kwargs):
        sid = len(self.name_ix)
        self.name_ix.append(ix)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(0)
        self.end.append(0)
        self._stack.append(sid)
        t0 = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter_ns()
            self._stack.pop()
            self.start[sid] = t0
            self.end[sid] = t1
        for observe in self.observers.get(self.names[ix], ()):
            observe(result)
        return result

    def call(self, fn, *args):
        """Run one top-level call under a root span."""
        return self._span(0, fn, args, {})

    def observe(self, name: str, callback) -> None:
        """Hand every return value of the hooked function ``name`` to ``callback``."""
        self.observers.setdefault(name, []).append(callback)

    def start_phase(self) -> None:
        self._misses_at_start = {n: f.cache_info().misses for n, f in self._cached.items()}
        self._phase_start = time.perf_counter_ns()
        self.recording = True

    def stop_phase(self) -> None:
        self.recording = False
        self.wall_ns += time.perf_counter_ns() - self._phase_start

    # -- analysis -----------------------------------------------------------

    def totals(self) -> dict[str, dict]:
        """Per span name: calls, inclusive ns and self ns.

        Inclusive time counts only spans with no ancestor of the same name, so
        recursion is not counted twice.
        """
        n = len(self.name_ix)
        self_ns = [self.end[i] - self.start[i] for i in range(n)]
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                self_ns[p] -= self.end[i] - self.start[i]
        out = {name: {"calls": 0, "ns": 0, "self_ns": 0} for name in self.names}
        for i in range(n):
            ix = self.name_ix[i]
            entry = out[self.names[ix]]
            entry["calls"] += 1
            entry["self_ns"] += self_ns[i]
            p = self.parent[i]
            while p >= 0 and self.name_ix[p] != ix:
                p = self.parent[p]
            if p < 0:
                entry["ns"] += self.end[i] - self.start[i]
        return out

    def computed_calls(self, name: str, calls: int) -> int:
        """Calls that did the work: cache misses for a ``functools`` cache."""
        fn = self._cached.get(name)
        if fn is None:
            return calls
        return fn.cache_info().misses - self._misses_at_start.get(name, 0)

    def dump(self, path: str) -> None:
        """Write every span as gzip-compressed JSON."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(
                {
                    "names": self.names,
                    "wall_ns": self.wall_ns,
                    "missing_hooks": self.missing,
                    "columns": ["name", "parent", "start_ns", "end_ns"],
                    "spans": [
                        [self.name_ix[i], self.parent[i], self.start[i], self.end[i]]
                        for i in range(len(self.name_ix))
                    ],
                },
                fh,
                separators=(",", ":"),
            )
