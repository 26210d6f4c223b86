"""Span recorder that wraps eigb's public functions from outside the package.

`Tracer.install` replaces each listed function by a timing wrapper in every
loaded `eigb` module that holds a reference to it (for example
`hermitian_eig` is bound in `linalg`, `harness`, `bounds`, `cli` and the
package namespace), so calls made inside the package are seen too.
`Tracer.uninstall` puts the originals back.  Nothing in the package is
edited.

Each call becomes one span: layer name, start, end, parent span and the
operation id the benchmark set before the call.  Spans stay in memory (flat
arrays) and are written out once, at the end of a run.  Self time is the
span's duration minus the duration of its traced children, accumulated as
spans close.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from array import array

PACKAGE = "eigb"

# (module, function) pairs; the layer name is "module.function".
LAYERS = (
    ("matfile", "load_matrix"),
    ("linalg", "validate_hermitian"),
    ("linalg", "validate_psd"),
    ("linalg", "hermitian_eig"),
    ("linalg", "psd_sqrt"),
    ("linalg", "product_spectrum"),
    ("harness", "gen_hermitian"),
    ("harness", "gen_psd"),
    ("harness", "instance_spectra"),
    ("harness", "run_checks"),
    ("harness", "run_campaign"),
    ("bounds", "main_bounds"),
    ("bounds", "splitting_upper_bound"),
    ("bounds", "compare_split_vs_main"),
    ("bounds", "gap_bound"),
    ("bounds", "ostrowski_ratios"),
    ("bounds", "wielandt_sum_bounds"),
    ("cli", "main"),
)
LAYER_NAMES = tuple(f"{module}.{func}" for module, func in LAYERS)

# Layers whose spans are also tallied by matrix dimension (first argument's `.n`).
SIZED_LAYERS = frozenset({"linalg.hermitian_eig"})


class Tracer:
    def __init__(self) -> None:
        self.calls = [0] * len(LAYERS)
        self.self_s = [0.0] * len(LAYERS)
        # (layer index, n) -> [calls, self seconds]
        self.by_size: dict[tuple[int, int], list] = {}
        self.missing: set[str] = set()
        self.op_id = -1
        self._name = array("i")
        self._parent = array("i")
        self._op = array("i")
        self._start = array("d")
        self._end = array("d")
        # Open spans: [span index, start, seconds covered by children].
        self._stack: list[list] = []
        self._bindings: list[tuple[object, str, object]] = []

    @property
    def span_count(self) -> int:
        return len(self._name)

    def install(self) -> None:
        if self._bindings:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        for index, (module_name, func_name) in enumerate(LAYERS):
            module = sys.modules.get(f"{PACKAGE}.{module_name}")
            original = getattr(module, func_name, None)
            if not callable(original):
                self.missing.add(LAYER_NAMES[index])
                continue
            wrapper = self._wrap(index, original)
            for mod in modules:
                names = [attr for attr, value in vars(mod).items() if value is original]
                for attr in names:
                    setattr(mod, attr, wrapper)
                    self._bindings.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._bindings):
            setattr(mod, attr, original)
        self._bindings.clear()

    def _wrap(self, index: int, func):
        sized = LAYER_NAMES[index] in SIZED_LAYERS

        @functools.wraps(func)
        def traced(*args, **kwargs):
            n = getattr(args[0], "n", None) if sized and args else None
            self._open(index)
            try:
                return func(*args, **kwargs)
            finally:
                self._close(index, n)

        return traced

    def _open(self, index: int) -> None:
        span = len(self._name)
        self._name.append(index)
        self._parent.append(self._stack[-1][0] if self._stack else -1)
        self._op.append(self.op_id)
        self._end.append(0.0)
        start = time.perf_counter()
        self._start.append(start)
        self._stack.append([span, start, 0.0])

    def _close(self, index: int, n) -> None:
        end = time.perf_counter()
        span, start, children = self._stack.pop()
        self._end[span] = end
        duration = end - start
        own = duration - children
        if self._stack:
            self._stack[-1][2] += duration
        self.calls[index] += 1
        self.self_s[index] += own
        if n is not None:
            tally = self.by_size.setdefault((index, int(n)), [0, 0.0])
            tally[0] += 1
            tally[1] += own

    def write(self, path) -> None:
        """Write every span as gzip'd JSON lines: a header, then one row per span."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(json.dumps({"fields": ["name", "start", "end", "parent", "op"],
                                 "names": list(LAYER_NAMES)}) + "\n")
            for row in zip(self._name, self._start, self._end, self._parent, self._op):
                fh.write(json.dumps(row) + "\n")
