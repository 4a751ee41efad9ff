"""The benchmark's three workloads and their output checks.

Shared by ``run.py`` (the measured runs), ``setup_probe.py`` (set-up time in a
fresh interpreter) and ``record_digests.py`` (the default-seed digests). This
module imports only the standard library at load time, so the set-up probe can
time the program's own import.

Every workload is a closed loop from one process: the next top-level call
starts when the previous one returned. The program sees only inputs generated
from the workload seed.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
PACKAGE = "burstlink"
SWEEP_CONFIG = os.path.join(ROOT, "configs", "example_sweep.cfg")
DIGESTS_PATH = os.path.join(BENCH_DIR, "expected_digests.json")

WORKLOADS = ("trial-impaired", "sweep-grid", "report-replay")

# The seed whose outputs are pinned by recorded SHA-256 digests; it is also
# the example config's master_seed. Any other seed is checked for
# self-consistency only.
DEFAULT_SEED = 42

# trial-impaired: the `sim` default of 50 frames per trial, in the 16QAM,
# lambda = 4 cell on the README's impaired profile. Trial k of a run uses
# seed * TRIAL_CYCLE + k % TRIAL_CYCLE, so the default seed pins a finite set
# of result rows.
TRIAL_FRAMES = 50
TRIAL_CYCLE = 64
TRIAL_CELL = {"modulation": 16, "pilot_reps": 4}
IMPAIRED_PROFILE = {
    "snr_db": 20.0,
    "delta_f_hz": 1500.0,
    "drift_hz_per_s": 100.0,
    "coherence_symbols": 128,
    "fading": "block-rician",
    "rician_k": 10.0,
}


class ProgramMissing(RuntimeError):
    """The checkout does not hold the program's sources."""


def import_program():
    """Import the package from this checkout's ``src/`` and nowhere else."""
    package_dir = os.path.join(SRC, PACKAGE)
    for path in (os.path.join(package_dir, "__init__.py"), SWEEP_CONFIG):
        if not os.path.isfile(path):
            raise ProgramMissing(f"{os.path.relpath(path, ROOT)} not found under {ROOT}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import burstlink
    import burstlink.cli  # noqa: F401  (loads every layer module)

    origin = os.path.dirname(os.path.abspath(burstlink.__file__))
    if origin != package_dir:
        raise ProgramMissing(f"{PACKAGE} was imported from {origin}, not {package_dir}")
    return burstlink


def load_expected() -> dict:
    with open(DIGESTS_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh)


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return sha256_bytes(fh.read())


def sha256_dir(path: str) -> str:
    """Digest of every file's name and bytes, in sorted name order."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(path)):
        h.update(name.encode() + b"\0")
        with open(os.path.join(path, name), "rb") as fh:
            h.update(fh.read())
        h.update(b"\0")
    return h.hexdigest()


def outcome_counts(results_csv: str) -> tuple[int, int, int]:
    """(frames sent, frames detected, CRC passes) summed over a results CSV."""
    lines = results_csv.splitlines()
    header = lines[0].split(",")
    cols = [header.index(c) for c in ("frames_sent", "frames_detected", "crc_pass")]
    sent = detected = passed = 0
    for line in lines[1:]:
        if not line:
            continue
        cells = line.split(",")
        sent += int(cells[cols[0]])
        detected += int(cells[cols[1]])
        passed += int(cells[cols[2]])
    return sent, detected, passed


def trial_seed(seed: int, k: int) -> int:
    return seed * TRIAL_CYCLE + k % TRIAL_CYCLE


def run_trial(bl, seed: int, k: int):
    """One ``trial-impaired`` top-level call."""
    cfg = bl.framing.FrameConfig(**TRIAL_CELL)
    profile = bl.channel.ChannelProfile(**IMPAIRED_PROFILE)
    return bl.harness.run_trial_events(cfg, profile, TRIAL_FRAMES, trial_seed(seed, k))


def trial_row_text(bl, run) -> str:
    return bl.harness.results_to_csv([run.result])


def sweep_argv(seed: int, workers: int, out_dir: str) -> list[str]:
    return [
        "sweep",
        "--config", SWEEP_CONFIG,
        "--seed", str(seed),
        "--workers", str(workers),
        "--out", os.path.join(out_dir, "results.csv"),
        "--events-out", os.path.join(out_dir, "events.csv"),
        "--sigmf-out", os.path.join(out_dir, "sigmf"),
    ]


def report_argv(events_path: str, out_path: str) -> list[str]:
    return ["report", events_path, "--out", out_path]


def sweep_digests(out_dir: str) -> dict:
    return {
        "results_csv": sha256_file(os.path.join(out_dir, "results.csv")),
        "events_csv": sha256_file(os.path.join(out_dir, "events.csv")),
        "sigmf": sha256_dir(os.path.join(out_dir, "sigmf")),
    }


class Check:
    """What one top-level call's output check found."""

    def __init__(self) -> None:
        self.problems: list[str] = []
        self.sent = self.detected = self.passed = 0
        self.event_log_bytes = 0
        self.pickle_bytes = 0

    def expect(self, ok: bool, problem: str) -> None:
        if not ok:
            self.problems.append(problem)


class TrialImpaired:
    """Back-to-back ``harness.run_trial_events`` calls on one core, no pool."""

    name = "trial-impaired"
    frames_per_call = TRIAL_FRAMES
    pooled_calls = False

    def __init__(self, bl, seed: int, work_dir: str, expected: dict, workers: int = 0) -> None:
        self.bl = bl
        self.seed = seed
        self.work_dir = work_dir
        self.workers = 0
        self.expected = expected.get(self.name, {}).get("result_rows")
        self._seen: dict[int, str] = {}

    def prepare(self) -> list[str]:
        return []

    def warm_up(self) -> None:
        run_trial(self.bl, self.seed, 0)

    def call(self, k: int):
        return run_trial(self.bl, self.seed, k)

    def check(self, k: int, run) -> Check:
        bl = self.bl
        c = Check()
        text = trial_row_text(bl, run)
        digest = sha256_bytes(text.encode())
        slot = k % TRIAL_CYCLE
        c.expect(self._seen.setdefault(slot, digest) == digest, f"trial {k}: not deterministic")
        if self.seed == DEFAULT_SEED:
            c.expect(
                self.expected is not None and digest == self.expected[slot],
                f"trial {k}: result row digest differs from the recorded one",
            )
        # Self-consistency: the event log re-aggregates to the same row.
        events_path = os.path.join(self.work_dir, "trial-events.csv")
        bl.harness.write_events_csv([run], events_path)
        replayed = bl.harness.results_to_csv(
            bl.harness.results_from_event_rows(bl.harness.read_events_csv(events_path))
        )
        c.expect(replayed == text, f"trial {k}: event log does not reproduce the result row")
        c.sent, c.detected, c.passed = outcome_counts(text)
        c.event_log_bytes = os.path.getsize(events_path)
        c.pickle_bytes = len(pickle.dumps(run))
        return c


class SweepGrid:
    """In-process ``burstlink sweep`` over the example config's 20 cells."""

    name = "sweep-grid"

    def __init__(self, bl, seed: int, work_dir: str, expected: dict, workers: int) -> None:
        self.bl = bl
        self.seed = seed
        self.work_dir = work_dir
        self.workers = workers
        self.expected = expected.get(self.name)
        self._first: dict | None = None
        self.spec = bl.config.load_sweep_config(SWEEP_CONFIG)
        self.frames_per_call = self.spec.cell_count * self.spec.frames_per_trial

    @property
    def pooled_calls(self) -> bool:
        return self.workers > 1

    def prepare(self) -> list[str]:
        return []

    def warm_up(self) -> None:
        """One trial of the grid's first cell, in process."""
        spec = self.spec
        cfg = spec.frame_config(spec.lambda_list[0], spec.modulations[0])
        self.bl.harness.run_trial_events(
            cfg, spec.profiles[0], spec.frames_per_trial, self.seed,
            spec.detector, spec.pulse, spec.symbol_period_s,
        )

    def call(self, k: int):
        return self.bl.cli.main(sweep_argv(self.seed, self.workers, self.work_dir))

    def check(self, k: int, status) -> Check:
        c = Check()
        c.expect(status == 0, f"sweep {k}: exit status {status}")
        if status != 0:
            return c
        digests = sweep_digests(self.work_dir)
        if self._first is None:
            self._first = digests
        c.expect(digests == self._first, f"sweep {k}: outputs differ from this run's first sweep")
        if self.seed == DEFAULT_SEED:
            c.expect(digests == self.expected, f"sweep {k}: output digests differ from the recorded ones")
        results_path = os.path.join(self.work_dir, "results.csv")
        events_path = os.path.join(self.work_dir, "events.csv")
        replay_path = os.path.join(self.work_dir, "replayed.csv")
        status = self.bl.cli.main(report_argv(events_path, replay_path))
        c.expect(
            status == 0 and sha256_file(replay_path) == digests["results_csv"],
            f"sweep {k}: report does not reproduce the results CSV",
        )
        with open(results_path, "r", encoding="utf-8") as fh:
            c.sent, c.detected, c.passed = outcome_counts(fh.read())
        c.event_log_bytes = os.path.getsize(events_path)
        return c


class ReportReplay:
    """Repeated in-process ``burstlink report`` on the sweep's event log."""

    name = "report-replay"
    pooled_calls = False

    def __init__(self, bl, seed: int, work_dir: str, expected: dict, workers: int) -> None:
        self.bl = bl
        self.seed = seed
        self.work_dir = work_dir
        self.workers = workers
        self.expected = expected.get(self.name)
        self.expected_sweep = expected.get("sweep-grid")
        self.events_path = os.path.join(work_dir, "events.csv")
        self.out_path = os.path.join(work_dir, "report.csv")
        self.frames_per_call = 0
        self._results = b""

    def prepare(self) -> list[str]:
        """Write the event log with ``burstlink sweep``; returns problems found."""
        problems = []
        status = self.bl.cli.main(sweep_argv(self.seed, self.workers, self.work_dir))
        if status != 0:
            return [f"event-log sweep: exit status {status}"]
        if self.seed == DEFAULT_SEED and sweep_digests(self.work_dir) != self.expected_sweep:
            problems.append("event-log sweep: output digests differ from the recorded ones")
        with open(os.path.join(self.work_dir, "results.csv"), "rb") as fh:
            self._results = fh.read()
        with open(self.events_path, "rb") as fh:
            self.frames_per_call = fh.read().count(b"\n") - 1
        return problems

    def warm_up(self) -> None:
        self.call(0)

    def call(self, k: int):
        return self.bl.cli.main(report_argv(self.events_path, self.out_path))

    def check(self, k: int, status) -> Check:
        c = Check()
        c.expect(status == 0, f"report {k}: exit status {status}")
        if status != 0:
            return c
        with open(self.out_path, "rb") as fh:
            out = fh.read()
        c.expect(out == self._results, f"report {k}: output differs from the sweep's results CSV")
        if self.seed == DEFAULT_SEED:
            c.expect(
                sha256_bytes(out) == self.expected["results_csv"],
                f"report {k}: output digest differs from the recorded one",
            )
        c.sent, c.detected, c.passed = outcome_counts(out.decode())
        c.event_log_bytes = os.path.getsize(self.events_path)
        return c
