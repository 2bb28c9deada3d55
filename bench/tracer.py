"""Spans around the calls into each layer of the spinvibronic package.

The tracer wraps public functions from the benchmark's side: every module
attribute of the package that *is* the original function is replaced by the
wrapper, so early bindings such as ``from .eigensolver import solve_lowest``
inside ``spinvibronic.analysis`` are traced where their callers look them up.
A class is traced through its ``__init__``.  A name that no longer exists is
skipped and its layer reports zero calls.

Spans are kept in memory: name, start, end, parent index, operation id and a
few counts taken from the call's arguments and result.  Spans are recorded
only inside an operation (``tracer.operation``), so work the benchmark does
around an operation (checking, digests) never enters the per-layer numbers.
The bookkeeping done after a traced call (fingerprints, counts) runs inside a
``trace.annotate`` span, which keeps it out of every layer's self time.
"""

from __future__ import annotations

import hashlib
import importlib
import inspect
import json
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

# (module, public name) pairs wrapped by a traced run; metric names use the
# short module name, e.g. "eigensolver.solve_lowest"
TARGETS = (
    ("spinvibronic.oscillator", "build_operators"),
    ("spinvibronic.hamiltonian", "assemble"),
    ("spinvibronic.eigensolver", "solve_lowest"),
    ("spinvibronic.eigensolver", "converge_cutoff"),
    ("spinvibronic.symmetry", "SymmetryOperators"),
    ("spinvibronic.symmetry", "analyze_states"),
    ("spinvibronic.analysis", "solve_sector"),
    ("spinvibronic.analysis", "gamma_splitting"),
    ("spinvibronic.analysis", "reduction_factors"),
    ("spinvibronic.analysis", "soc_levels"),
    ("spinvibronic.analysis", "calibrate_soc"),
    ("spinvibronic.analysis", "converge_observable"),
    ("spinvibronic.params", "pes_to_couplings"),
    ("spinvibronic.pes", "adiabatic_surfaces"),
    ("spinvibronic.pes", "fit_pes"),
    ("spinvibronic.pes", "read_pes_csv"),
    ("spinvibronic.pes", "write_pes_csv"),
    ("spinvibronic.config", "parse_config"),
    ("spinvibronic.reports", "run_report"),
    ("spinvibronic.reports", "write_all"),
)

OP_SPAN = "op"
ANNOTATE_SPAN = "trace.annotate"
SOLVE = "eigensolver.solve_lowest"


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    op: int = -1
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder; install() wraps the package, uninstall() undoes it."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._op = -1
        self._seen: set[bytes] = set()  # CSR fingerprints solved in this operation
        self._undo: list[tuple[object, str, object]] = []

    # --- spans ---------------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), parent=parent, op=self._op))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def operation(self, op_id: int, key: str):
        """Root span of one benchmark operation; spans outside it are not kept."""
        self._op = op_id
        self._seen = set()
        idx = self._open(OP_SPAN)
        self.spans[idx].attrs["key"] = key
        try:
            yield
        finally:
            self._close(idx)
            self._op = -1

    # --- wrapping ------------------------------------------------------------

    def install(self) -> None:
        """Wrap every target that exists in the loaded package."""
        pkg = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "spinvibronic"]
        for mod_name, attr in TARGETS:
            try:
                module = importlib.import_module(mod_name)
            except ImportError:
                continue
            original = getattr(module, attr, None)
            if original is None:
                continue
            name = f"{mod_name.rsplit('.', 1)[1]}.{attr}"
            if inspect.isclass(original):
                init = original.__init__
                self._undo.append((original, "__init__", init))
                original.__init__ = self._wrap(name, init)
            else:
                wrapper = self._wrap(name, original)
                for m in pkg + [module]:
                    for key, value in list(vars(m).items()):
                        if value is original:
                            self._undo.append((m, key, value))
                            setattr(m, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._undo):
            setattr(owner, key, value)
        self._undo.clear()

    def _wrap(self, name: str, fn):
        tracer = self
        try:
            signature = inspect.signature(fn)
        except (TypeError, ValueError):
            signature = None

        def traced(*args, **kwargs):
            if tracer._op < 0:
                return fn(*args, **kwargs)
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            note = tracer._open(ANNOTATE_SPAN)
            try:
                tracer._annotate(tracer.spans[idx], signature, args, kwargs, result)
            except Exception as exc:  # a changed signature must not stop the run
                tracer.spans[idx].attrs["annotate_error"] = repr(exc)
            finally:
                tracer._close(note)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _annotate(self, span: Span, signature, args, kwargs, result) -> None:
        if span.name == SOLVE:
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            a = bound.arguments
            h = next(iter(a.values()))
            csr = getattr(h, "csr", h)
            dim = int(csr.shape[0])
            method = a.get("method", "auto")
            threshold = a.get("dense_threshold", 0)
            dense = method == "dense" or (method == "auto" and dim <= threshold)
            span.attrs.update(
                path="dense" if dense else "lanczos",
                dim=dim,
                complex=bool(np.iscomplexobj(csr.data)),
                residual_max=float(np.max(getattr(result, "residual_norms", [0.0]))),
                redundant=self._fingerprint_seen(csr),
            )
        elif span.name == "hamiltonian.assemble":
            csr = getattr(result, "csr", result)
            span.attrs.update(dim=int(csr.shape[0]), nnz=int(csr.nnz))
        elif span.name == "symmetry.analyze_states":
            span.attrs.update(
                states=len(result), labelled=sum(1 for s in result if s.irrep != "mixed")
            )
        elif span.name == "pes.fit_pes":
            span.attrs["nfev"] = len(result.cost_history)

    def _fingerprint_seen(self, csr) -> bool:
        """True when this matrix or its complex conjugate was already solved."""
        def digest(data):
            h = hashlib.sha1()
            # + 0.0 maps -0.0 to 0.0, which conj() produces from real entries
            for arr in (csr.indptr, csr.indices, data + 0.0):
                h.update(np.ascontiguousarray(arr).tobytes())
            return h.digest()

        own = digest(csr.data)
        repeat = own in self._seen
        if not repeat and np.iscomplexobj(csr.data):
            repeat = digest(np.conj(csr.data)) in self._seen
        self._seen.add(own)
        return repeat

    # --- aggregation ---------------------------------------------------------

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child[s.parent] += s.duration
        return [s.duration - c for s, c in zip(self.spans, child)]

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s.name, "start": s.start, "end": s.end,
                                     "parent": s.parent, "op": s.op, **s.attrs}) + "\n")


def _has_ancestor(spans: list[Span], idx: int, name: str) -> bool:
    p = spans[idx].parent
    while p >= 0:
        if spans[p].name == name:
            return True
        p = spans[p].parent
    return False


# per-layer metrics, with unit; values are per pass (totals / passes) except
# the maxima and ratios
PER_LAYER = {
    "eigensolver.solve_lowest.calls.dense": "count",
    "eigensolver.solve_lowest.calls.lanczos": "count",
    "eigensolver.solve_lowest.calls.complex": "count",
    "eigensolver.solve_lowest.self_s.dense": "s",
    "eigensolver.solve_lowest.self_s.lanczos": "s",
    "eigensolver.solve_lowest.dim_max": "count",
    "eigensolver.solve_lowest.residual_max": "meV",
    "eigensolver.converge_cutoff.self_s": "s",
    "analysis.redundant_solves": "count",
    "analysis.calibrate_soc.calls": "count",
    "analysis.calibrate_soc.self_s": "s",
    "analysis.calibrate_soc.solves": "count",
    "analysis.converge_observable.self_s": "s",
    "analysis.converge_observable.solves": "count",
    "analysis.soc_levels.self_s": "s",
    "analysis.soc_levels.solves": "count",
    "analysis.solve_sector.calls": "count",
    "analysis.solve_sector.self_s": "s",
    "analysis.gamma_splitting.self_s": "s",
    "analysis.reduction_factors.self_s": "s",
    "hamiltonian.assemble.calls": "count",
    "hamiltonian.assemble.self_s": "s",
    "hamiltonian.assemble.dim_max": "count",
    "hamiltonian.assemble.nnz_sum": "count",
    "oscillator.build_operators.self_s": "s",
    "symmetry.SymmetryOperators.self_s": "s",
    "symmetry.analyze_states.self_s": "s",
    "symmetry.labelled_ratio": "ratio",
    "params.pes_to_couplings.self_s": "s",
    "pes.fit_pes.calls": "count",
    "pes.fit_pes.self_s": "s",
    "pes.fit_pes.nfev": "count",
    "pes.adiabatic_surfaces.self_s": "s",
    "pes.csv_io.self_s": "s",
    "config.parse_config.self_s": "s",
    "reports.run_report.self_s": "s",
    "reports.write_all.self_s": "s",
    "reports.bytes_written": "B",
    "bench.op.self_s": "s",
    "trace.annotate_s": "s",
    "trace.spans": "count",
    "trace.self_s_sum": "s",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
}


def layer_metrics(tracer: Tracer, passes: int) -> dict[str, float]:
    """Per-pass per-layer numbers from the recorded spans."""
    spans = tracer.spans
    selfs = tracer.self_times()
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    for s, t in zip(spans, selfs):
        calls[s.name] = calls.get(s.name, 0) + 1
        self_s[s.name] = self_s.get(s.name, 0.0) + t

    solves = [i for i, s in enumerate(spans) if s.name == SOLVE]
    assembles = [s for s in spans if s.name == "hamiltonian.assemble"]
    analyzed = [s for s in spans if s.name == "symmetry.analyze_states"]
    fits = [s for s in spans if s.name == "pes.fit_pes"]
    n = max(passes, 1)
    m = {}
    for path in ("dense", "lanczos"):
        idx = [i for i in solves if spans[i].attrs.get("path") == path]
        m[f"{SOLVE}.calls.{path}"] = len(idx) / n
        m[f"{SOLVE}.self_s.{path}"] = sum(selfs[i] for i in idx) / n
    m[f"{SOLVE}.calls.complex"] = sum(1 for i in solves if spans[i].attrs.get("complex")) / n
    m[f"{SOLVE}.dim_max"] = max((spans[i].attrs.get("dim", 0) for i in solves), default=0)
    m[f"{SOLVE}.residual_max"] = max(
        (spans[i].attrs.get("residual_max", 0.0) for i in solves), default=0.0
    )
    m["analysis.redundant_solves"] = sum(1 for i in solves if spans[i].attrs.get("redundant")) / n
    for layer in ("calibrate_soc", "converge_observable", "soc_levels"):
        name = f"analysis.{layer}"
        m[f"{name}.solves"] = sum(1 for i in solves if _has_ancestor(spans, i, name)) / n
    m["analysis.calibrate_soc.calls"] = calls.get("analysis.calibrate_soc", 0) / n
    m["analysis.solve_sector.calls"] = calls.get("analysis.solve_sector", 0) / n
    m["hamiltonian.assemble.calls"] = len(assembles) / n
    m["hamiltonian.assemble.dim_max"] = max((s.attrs.get("dim", 0) for s in assembles), default=0)
    m["hamiltonian.assemble.nnz_sum"] = sum(s.attrs.get("nnz", 0) for s in assembles) / n
    states = sum(s.attrs.get("states", 0) for s in analyzed)
    m["symmetry.labelled_ratio"] = (
        sum(s.attrs.get("labelled", 0) for s in analyzed) / states if states else 1.0
    )
    m["pes.fit_pes.calls"] = len(fits) / n
    m["pes.fit_pes.nfev"] = sum(s.attrs.get("nfev", 0) for s in fits) / n
    m["pes.csv_io.self_s"] = (self_s.get("pes.read_pes_csv", 0.0)
                             + self_s.get("pes.write_pes_csv", 0.0)) / n
    m["bench.op.self_s"] = self_s.get(OP_SPAN, 0.0) / n
    for key in PER_LAYER:
        if key.endswith(".self_s") and key not in m:
            m[key] = self_s.get(key[: -len(".self_s")], 0.0) / n
    m["trace.annotate_s"] = self_s.get(ANNOTATE_SPAN, 0.0) / n
    m["trace.spans"] = len(spans) / n
    m["trace.self_s_sum"] = sum(selfs) / n
    return m
