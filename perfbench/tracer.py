"""Outside tracer: per-layer call counts and self times without touching
the package's source.

``install`` replaces every reference to a traced callable with a wrapper
that records a span (name, start, end, parent) in memory: module-level
functions are rebound under every name in every loaded ``entbridge``
module that refers to them (modules import each other's functions by
name), methods are replaced on their class, and ``jsonschema.validate``
is wrapped only as ``entbridge.cli`` sees it, through a proxy for its
``jsonschema`` global.  ``uninstall`` puts every original back.

The spans of one op are folded into per-name totals when the op ends,
so memory holds the spans of a single op.  A span's self time is its
duration minus the durations of its child spans; time spent computing
the extra counters is recorded as a child span of its own and so is
charged to no layer.  Times are integer nanoseconds, so self times are
exact and never negative.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
import types
from typing import Any, Callable, Iterator

# (metric prefix, module, attribute path inside the module)
LAYERS = (
    ("exactlinalg.hnf", "entbridge.exactlinalg", "hnf"),
    ("exactlinalg.kernel_basis", "entbridge.exactlinalg", "kernel_basis"),
    ("exactlinalg.preimage_lattice", "entbridge.exactlinalg", "preimage_lattice"),
    ("exactlinalg.snf", "entbridge.exactlinalg", "snf"),
    ("exactlinalg.matmul", "entbridge.exactlinalg", "IntMatrix.__matmul__"),
    ("exactlinalg.solve", "entbridge.exactlinalg", "HnfBasis.solve"),
    ("fingroup.GroupHom.new", "entbridge.fingroup", "GroupHom.__post_init__"),
    ("fingroup.SubgroupLattice.new", "entbridge.fingroup", "SubgroupLattice.__post_init__"),
    ("fingroup.image", "entbridge.fingroup", "image"),
    ("fingroup.preimage", "entbridge.fingroup", "preimage"),
    ("fingroup.kernel", "entbridge.fingroup", "kernel"),
    ("fingroup.intersect", "entbridge.fingroup", "SubgroupLattice.intersect"),
    ("fingroup.sum", "entbridge.fingroup", "SubgroupLattice.sum"),
    ("fingroup.index", "entbridge.fingroup", "index"),
    ("fingroup.is_surjective", "entbridge.fingroup", "is_surjective"),
    ("duality.annihilator", "entbridge.duality", "annihilator"),
    ("duality.dual_hom", "entbridge.duality", "dual_hom"),
    ("entropyseq.estimate_entropy", "entbridge.entropyseq", "estimate_entropy"),
    ("tdlca.full_shift_tower", "entbridge.tdlca", "full_shift_tower"),
    ("tdlca.project", "entbridge.tdlca", "Tower.project"),
    ("tdlca.iterate", "entbridge.tdlca", "TowerEndo.iterate"),
    ("tdlca.cotrajectory_indices", "entbridge.tdlca", "TowerEndo.cotrajectory_indices"),
    ("tdlca.trajectory_indices", "entbridge.tdlca", "TowerEndo.trajectory_indices"),
    ("padic.rational_matrix", "entbridge.padic", "rational_matrix"),
    ("padic.lattice_from_columns", "entbridge.padic", "lattice_from_columns"),
    ("padic.lattice_index", "entbridge.padic", "lattice_index"),
    ("padic.preimage", "entbridge.padic", "preimage"),
    ("padic.cotrajectory_indices", "entbridge.padic", "cotrajectory_indices"),
    ("padic.trajectory_indices", "entbridge.padic", "trajectory_indices"),
    ("padic.char_poly", "entbridge.padic", "char_poly"),
    ("padic.newton_entropy", "entbridge.padic", "newton_entropy"),
    ("realspace.topological_entropy", "entbridge.realspace", "topological_entropy"),
    ("realspace.algebraic_entropy", "entbridge.realspace", "algebraic_entropy"),
    ("bridge.finite_bridge", "entbridge.bridge", "finite_bridge"),
    ("bridge.shift_bridge", "entbridge.bridge", "shift_bridge"),
    ("bridge.qp_bridge", "entbridge.bridge", "qp_bridge"),
    ("bridge.real_bridge", "entbridge.bridge", "real_bridge"),
    ("cli.main", "entbridge.cli", "main"),
    ("cli.schema_validate", "entbridge.cli", "jsonschema.validate"),
    ("cli.load_schema", "entbridge.cli", "load_schema"),
    ("cli.canonical_json", "entbridge.cli", "canonical_json"),
    ("cli.render_text", "entbridge.cli", "render_text"),
)

MODULES = ("exactlinalg", "fingroup", "duality", "entropyseq", "tdlca", "padic", "realspace", "bridge", "cli")

ROOT = "op"
BOOKKEEPING = "trace.bookkeeping"


def metric_units() -> dict[str, str]:
    """Every per-layer metric name the tracer reports, with its unit."""
    units = {}
    for name, _, _ in LAYERS:
        units[f"{name}.calls"] = "calls/op"
        units[f"{name}.self_ms"] = "ms/op"
    units["exactlinalg.max_entry_bits"] = "bits"
    units["exactlinalg.hnf.cols_in"] = "cols/op"
    for module in MODULES:
        units[f"{module}.self_ms"] = "ms/op"
    units["other.self_ms"] = "ms/op"
    units["trace.overhead_frac"] = "fraction"
    return units


def _package_modules() -> list[types.ModuleType]:
    return [
        m
        for name, m in sorted(sys.modules.items())
        if m is not None and (name == "entbridge" or name.startswith("entbridge."))
    ]


class _ModuleProxy:
    """Stands in for a third-party module inside one package module."""

    def __init__(self, module: types.ModuleType) -> None:
        self._module = module

    def __getattr__(self, name: str) -> Any:
        return getattr(self._module, name)


def _max_bits(rows: tuple[tuple[int, ...], ...]) -> int:
    return max((abs(x).bit_length() for row in rows for x in row), default=0)


class Tracer:
    """Span recorder; one instance per traced pass."""

    def __init__(self) -> None:
        self._spans: list[Any] = []
        self._stack: list[int] = []
        self._patches: list[tuple[Any, str, Any]] = []
        self.missing: list[str] = []
        self.calls: dict[str, int] = {}
        self.self_ns: dict[str, int] = {}
        self.ops = 0
        self.op_ns = 0
        self.max_entry_bits = 0
        self.hnf_cols_in = 0

    # ---- patching ----------------------------------------------------------

    def _set(self, owner: Any, key: str, value: Any) -> None:
        self._patches.append((owner, key, vars(owner)[key]))
        setattr(owner, key, value)

    def install(self) -> None:
        """Wrap every traced callable of every loaded package module."""
        measures: dict[str, Callable[[tuple, Any], None]] = {
            "exactlinalg.hnf": self._measure_hnf,
            "exactlinalg.kernel_basis": self._measure_kernel,
        }
        modules = _package_modules()
        for name, modname, path in LAYERS:
            module = sys.modules.get(modname)
            if module is None:
                continue  # never imported by this workload, so never called
            owner_path, _, attr = path.rpartition(".")
            owner: Any = module
            for part in owner_path.split(".") if owner_path else ():
                owner = getattr(owner, part, None)
            if owner is None or not hasattr(owner, attr):
                self.missing.append(name)
                continue
            wrapper = self._wrap(name, getattr(owner, attr), measures.get(name))
            if isinstance(owner, type):
                self._set(owner, attr, wrapper)
            elif owner is not module:
                proxy = _ModuleProxy(owner)
                setattr(proxy, attr, wrapper)
                self._set(module, owner_path, proxy)
            else:
                original = getattr(module, attr)
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is original:
                            self._set(m, key, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    # ---- spans -------------------------------------------------------------

    def _wrap(self, name: str, fn: Callable, measure: Callable | None) -> Callable:
        spans, stack, clock = self._spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent)
            if measure is not None:
                measure(args, result)
                spans.append((BOOKKEEPING, end, clock(), parent))
            return result

        return traced

    def _measure_hnf(self, args: tuple, result: Any) -> None:
        self.hnf_cols_in += args[0].cols
        self.max_entry_bits = max(self.max_entry_bits, _max_bits(result.matrix.entries))

    def _measure_kernel(self, args: tuple, result: Any) -> None:
        self.max_entry_bits = max(self.max_entry_bits, _max_bits(result.entries))

    @contextlib.contextmanager
    def op(self) -> Iterator[None]:
        """Root span around one op; folds the op's spans when it ends."""
        if self._stack:
            raise RuntimeError("ops do not nest")
        spans = self._spans
        spans.append(None)
        self._stack.append(0)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            spans[0] = (ROOT, start, end, -1)
            self._fold()

    def _fold(self) -> None:
        spans = self._spans
        own = [end - start for _, start, end, _ in spans]
        for _, start, end, parent in spans:
            if parent >= 0:
                own[parent] -= end - start
        for (name, _, _, _), ns in zip(spans, own):
            if name != BOOKKEEPING:
                self.calls[name] = self.calls.get(name, 0) + 1
                self.self_ns[name] = self.self_ns.get(name, 0) + ns
        _, start, end, _ = spans[0]
        self.ops += 1
        self.op_ns += end - start
        spans.clear()

    # ---- results -----------------------------------------------------------

    def metrics(self, untraced_op_ns: int) -> dict[str, float]:
        """Per-op values of every name in :func:`metric_units`."""
        n = max(self.ops, 1)
        out: dict[str, float] = {}
        module_ns = dict.fromkeys(MODULES, 0)
        for name, _, _ in LAYERS:
            ns = self.self_ns.get(name, 0)
            out[f"{name}.calls"] = self.calls.get(name, 0) / n
            out[f"{name}.self_ms"] = ns / n / 1e6
            module_ns[name.split(".")[0]] += ns
        out["exactlinalg.max_entry_bits"] = self.max_entry_bits
        out["exactlinalg.hnf.cols_in"] = self.hnf_cols_in / n
        for module, ns in module_ns.items():
            out[f"{module}.self_ms"] = ns / n / 1e6
        out["other.self_ms"] = self.self_ns.get(ROOT, 0) / n / 1e6
        out["trace.overhead_frac"] = self.op_ns / untraced_op_ns - 1 if untraced_op_ns else 0.0
        return out
