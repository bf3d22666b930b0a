"""Spans around mdsat's layer functions, installed from outside the package.

mdsat carries no tracing code of its own.  The tracer replaces each traced
function by a wrapper that records one span per call: its name, start, end,
parent span and the run id of the benchmark item that caused it.  Spans stay
in memory until the run ends.

Most layer functions are imported by value (``from .statevec import
apply_check_unnormalized`` in both ``mdsat.solver`` and ``mdsat.phf``), so
every binding of the original function object in every loaded ``mdsat``
module is replaced, and installation fails if one is left behind.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# (module, attribute, span name).  The list is the layer boundaries named by
# the per-layer metrics.  Helpers inside a layer stay unwrapped so that their
# time counts as the self time of the layer that calls them: the check
# kernel's span covers apply_projector, and build_layers covers the PHF
# construction.
TRACED = (
    ("cli", "main", "cli"),
    ("formula", "generate", "formula.generate"),
    ("formula", "solution_indices", "formula.solution_indices"),
    ("formula", "propagate", "formula.propagate"),
    ("encoding", "hamiltonian_matrix", "encoding.hamiltonian_matrix"),
    ("encoding", "ground_space_projector", "encoding.ground_space_projector"),
    ("statevec", "apply_check_unnormalized", "statevec.apply_check"),
    ("statevec", "product_operator", "statevec.product_operator"),
    ("statevec", "prob_one", "statevec.prob_one"),
    ("statevec", "sample_basis", "statevec.sample_basis"),
    ("phf", "build_layers", "phf.build_layers"),
    ("phf", "noncommuting_degree", "phf.noncommuting_degree"),
    ("solver", "solve", "solver.solve"),
    ("solver", "resolve_mu", "solver.resolve_mu"),
    ("solver", "allpass_trajectory", "solver.allpass_trajectory"),
    ("solver", "Preparer.prepare", "solver.prepare"),
    ("solver", "readout_unique", "solver.readout_unique"),
    ("solver", "readout_multiple", "solver.readout_multiple"),
    ("spectral", "spectral_report", "spectral.spectral_report"),
    ("spectral", "spectral_gap", "spectral.spectral_gap"),
    ("spectral", "uniform_gap", "spectral.uniform_gap"),
    ("spectral", "convergence_rate", "spectral.convergence_rate"),
    ("spectral", "friedrichs_speed_slack", "spectral.friedrichs_speed_slack"),
)

SPAN_NAMES = tuple(name for _, _, name in TRACED)


class Tracer:
    """Records spans of the TRACED functions while installed."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, run id]
        self.run_id = ""
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1, self.run_id]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()

        return traced

    def install(self) -> None:
        modules = [m for k, m in sys.modules.items() if k == "mdsat" or k.startswith("mdsat.")]
        originals = []
        for modname, attr, name in TRACED:
            owner = sys.modules["mdsat." + modname]
            cls_name, _, attr = attr.rpartition(".")
            if cls_name:
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[attr]
                self._restore.append((cls, attr, orig))
                setattr(cls, attr, self._wrap(name, orig))
                continue
            orig = getattr(owner, attr)
            originals.append(orig)
            wrapped = self._wrap(name, orig)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._restore.append((mod, key, orig))
                        setattr(mod, key, wrapped)
        for mod in modules:
            for key, value in vars(mod).items():
                if any(value is orig for orig in originals):
                    self.uninstall()
                    raise RuntimeError(f"{mod.__name__}.{key} still bound to the untraced function")

    def uninstall(self) -> None:
        for obj, key, orig in reversed(self._restore):
            setattr(obj, key, orig)
        self._restore.clear()

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, inclusive time and self time (the span
        minus the part of it that its child spans cover)."""
        covered = [0.0] * len(self.spans)
        for _, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += t1 - t0
        out = {name: {"calls": 0, "incl_s": 0.0, "self_s": 0.0} for name in SPAN_NAMES}
        for i, (name, t0, t1, _, _) in enumerate(self.spans):
            entry = out[name]
            entry["calls"] += 1
            entry["incl_s"] += t1 - t0
            entry["self_s"] += t1 - t0 - covered[i]
        return out

    def write(self, path, header: dict) -> None:
        """One JSON line of run facts, then one line per span; times are
        seconds from the first span's start."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            for i, (name, t0, t1, parent, run) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {"id": i, "name": name, "start": round(t0 - origin, 9),
                         "end": round(t1 - origin, 9), "parent": parent, "run": run}
                    )
                    + "\n"
                )
