"""Closed-loop runner: one fresh process, one caller, one worker.

Run by ``run.py`` as ``python3 bench/runner.py PLAN RESULT``.  The plan is a
JSON file with the workload's operations (``residualdep`` argument lists),
the measuring time and whether to trace.  The runner imports
``residualdep.cli`` (set-up, not timed), runs one untimed warm-up round, then
runs whole rounds through ``residualdep.cli.main`` until the time is up, and
writes per-round wall and CPU times, exit codes, output digests and its peak
resident memory to RESULT.

When tracing, rounds alternate between untraced and traced.  A traced round
wraps each public function of the package at the name through which its
calling module reaches it and records one span per call (name, start, end,
parent, whether it raised, and the kernel's k + 1 for ``eta_hat``).  Spans
are kept in memory and written to ``spans.npz`` next to RESULT when the run
ends; the per-layer sums of each traced round go into RESULT.
"""
from __future__ import annotations

import array
import hashlib
import json
import os
import resource
import sys
import time

import numpy as np

import residualdep.bias as bias
import residualdep.cli as cli
import residualdep.pseudo as pseudo
import residualdep.simulate as simulate

# (span name, [(module, attribute), ...]): every place a calling module
# reaches the function.  ``pseudo.from_sample`` is a classmethod, wrapped on
# the class itself, which every caller shares.
TRACED = (
    ("copulas.sample", [(simulate, "sample_copula")]),
    ("estimators.eta_hat", [(simulate, "eta_hat"), (cli, "eta_hat"), (bias, "eta_hat")]),
    ("bias.reduced_bias", [(simulate, "reduced_bias_eta"), (cli, "reduced_bias_eta")]),
    ("bias.second_order", [(simulate, "estimate_second_order"),
                           (cli, "estimate_second_order")]),
    ("simulate.run_study", [(cli, "run_study")]),
    ("simulate.emit", [(cli, "write_report")]),
    ("ingest.ingest", [(cli, "ingest")]),
)
SPAN_NAMES = ("cli.main", "pseudo.from_sample") + tuple(name for name, _ in TRACED)


class Tracer:
    """Spans of the traced rounds, in flat arrays indexed by span number."""

    def __init__(self):
        self.name = array.array("i")
        self.parent = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.raised = array.array("b")
        self.work = array.array("q")
        self._stack = []
        self._patched = []

    def wrap(self, name, fn, work=None):
        name_id = SPAN_NAMES.index(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name.append(name_id)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.raised.append(0)
            self.work.append(work(*args, **kwargs) if work else 0)
            self.end.append(0.0)
            self._stack.append(idx)
            self.start.append(clock())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                self.raised[idx] = 1
                raise
            finally:
                self.end[idx] = clock()
                self._stack.pop()
        return traced

    def install(self):
        def tail_values(*args, **kwargs):
            return int(args[1] if len(args) > 1 else kwargs["k"]) + 1

        for name, places in TRACED:
            for module, attr in places:
                original = getattr(module, attr)
                work = tail_values if name == "estimators.eta_hat" else None
                setattr(module, attr, self.wrap(name, original, work))
                self._patched.append((module, attr, original))
        from_sample = pseudo.PseudoSample.__dict__["from_sample"]
        pseudo.PseudoSample.from_sample = classmethod(
            self.wrap("pseudo.from_sample", from_sample.__func__))
        self._patched.append((pseudo.PseudoSample, "from_sample", from_sample))

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def layer_sums(self, lo: int, hi: int) -> dict:
        """Per span name: calls, total and self seconds, raised calls and
        work over spans lo..hi-1 (one round)."""
        names = np.frombuffer(self.name, dtype=np.int32)[lo:hi]
        parents = np.frombuffer(self.parent, dtype=np.int32)[lo:hi]
        dur = (np.frombuffer(self.end)[lo:hi] - np.frombuffer(self.start)[lo:hi])
        child = parents >= 0
        covered = np.bincount(parents[child] - lo, weights=dur[child], minlength=hi - lo)
        own = dur - covered
        m = len(SPAN_NAMES)
        sums = {
            "calls": np.bincount(names, minlength=m),
            "total_s": np.bincount(names, weights=dur, minlength=m),
            "self_s": np.bincount(names, weights=own, minlength=m),
            "raised": np.bincount(names, weights=np.frombuffer(self.raised, np.int8)[lo:hi],
                                  minlength=m),
            "work": np.bincount(names, weights=np.frombuffer(self.work, np.int64)[lo:hi],
                                minlength=m),
        }
        return {name: {key: float(v[i]) for key, v in sums.items()}
                for i, name in enumerate(SPAN_NAMES)}

    def save(self, path: str) -> None:
        np.savez_compressed(
            path, names=np.array(SPAN_NAMES), name=np.frombuffer(self.name, np.int32),
            parent=np.frombuffer(self.parent, np.int32), start=np.frombuffer(self.start),
            end=np.frombuffer(self.end), raised=np.frombuffer(self.raised, np.int8),
            work=np.frombuffer(self.work, np.int64))


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_kb() -> int:
    """This process's peak resident set size.

    Read from VmHWM, not from getrusage's ru_maxrss: Linux carries
    ru_maxrss across exec, so it would also count the peak of the parent
    that started this process.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def digest(paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        if os.path.exists(path):  # a failed operation may write nothing
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def _round(ops, main) -> dict:
    codes = []
    c0 = _cpu_seconds()
    t0 = time.perf_counter()
    for op in ops:
        codes.append(main(op["argv"]))
    wall = time.perf_counter() - t0
    cpu = _cpu_seconds() - c0
    return {"wall_s": wall, "cpu_s": cpu, "codes": codes,
            "sha256": digest(op["out"] for op in ops)}


def run(plan: dict) -> dict:
    ops = plan["ops"]
    _round(ops, cli.main)  # warm-up: first-call costs are not per-round work
    tracer = Tracer() if plan["trace"] else None
    traced_main = tracer.wrap("cli.main", cli.main) if tracer else None
    rounds = []
    deadline = time.perf_counter() + plan["seconds"]
    while True:
        traced = tracer is not None and len(rounds) % 2 == 1
        if traced:
            lo = len(tracer.start)
            tracer.install()
            try:
                record = _round(ops, traced_main)
            finally:
                tracer.uninstall()
            record["layers"] = tracer.layer_sums(lo, len(tracer.start))
        else:
            record = _round(ops, cli.main)
        record["traced"] = traced
        rounds.append(record)
        if time.perf_counter() >= deadline and (tracer is None or len(rounds) >= 2):
            break
    peak_kb = _peak_rss_kb()
    if tracer is not None:
        tracer.save(os.path.join(plan["dir"], "spans.npz"))
    return {"rounds": rounds, "peak_rss_mb": peak_kb / 1024.0}


def main(argv) -> int:
    plan_path, result_path = argv
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    result = run(plan)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
