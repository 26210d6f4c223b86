"""Machine-speed reference for a shared, noisy host.

On a machine shared with other tenants the speed of one CPU drifts between
states tens of seconds long (about 1.8x apart on a shared 2-vCPU Intel Xeon
VM) while CPU steal stays near zero, so neither process CPU time nor longer
runs remove the drift.  The benchmark therefore times a fixed
reference kernel before the first operation and after every operation, and
scales each operation's wall time by `REFERENCE_S / local reference time`,
where the local reference time is the median of the reference samples taken
within `WINDOW_S` seconds of the operation.

An operation longer than `LONG_OP_S` would see the machine change speed
between its two neighbouring samples, so `InOpSampler` also takes samples
from a helper thread every `LONG_OP_EVERY_S` seconds while such an operation
runs (holding the interpreter lock for one burst, about 1 % of the
operation's time, which is subtracted from it).  Shorter operations are never
interrupted.

The kernel is a frozen copy of the kind of work eigb does today (cyclic
complex Jacobi sweeps with small numpy row and column updates) on a fixed
12x12 matrix.  It lives here, not in the package, so a change to eigb never
changes the reference.
"""

from __future__ import annotations

import bisect
import statistics
import threading
import time

import numpy as np

# Seconds one reference sample takes on a quiet 2-vCPU Intel Xeon VM
# (Python 3.11, numpy 2.4, one BLAS thread).  Scaled times are "seconds at
# that speed".
REFERENCE_S = 2.5e-3
# Reference samples within this many seconds of an operation set its scale.
WINDOW_S = 0.2
# Operations running longer than this are also sampled every LONG_OP_EVERY_S.
LONG_OP_S = 1.0
LONG_OP_EVERY_S = 0.25

_N = 12
_SWEEPS = 3


def _reference_matrix() -> np.ndarray:
    rng = np.random.default_rng(20190509)
    z = rng.standard_normal((_N, _N)) + 1j * rng.standard_normal((_N, _N))
    return (z + z.conj().T) / 2.0


_MATRIX = _reference_matrix()


def _sweep(a: np.ndarray) -> None:
    n = a.shape[0]
    for p in range(n - 1):
        for q in range(p + 1, n):
            apq = a[p, q]
            mag = abs(apq)
            if mag == 0.0:
                continue
            phase = apq / mag
            theta = (a[q, q].real - a[p, p].real) / (2.0 * mag)
            t = (1.0 if theta >= 0.0 else -1.0) / (abs(theta) + (theta * theta + 1.0) ** 0.5)
            c = 1.0 / (t * t + 1.0) ** 0.5
            s = t * c
            col_p = a[:, p].copy()
            col_q = a[:, q].copy()
            a[:, p] = c * col_p - s * np.conj(phase) * col_q
            a[:, q] = s * phase * col_p + c * col_q
            row_p = a[p, :].copy()
            row_q = a[q, :].copy()
            a[p, :] = c * row_p - s * phase * row_q
            a[q, :] = s * np.conj(phase) * row_p + c * row_q


def sample() -> float:
    """Time in seconds of one reference burst: three sweeps over the matrix."""
    a = _MATRIX.copy()
    start = time.perf_counter()
    for _ in range(_SWEEPS):
        _sweep(a)
    return time.perf_counter() - start


def local_reference(points: list[tuple[float, float]], start: float, end: float) -> float:
    """Median reference time of `points` ((timestamp, seconds), in time order)
    taken within WINDOW_S of [start, end]; the nearest point on each side is
    always included."""
    stamps = [t for t, _ in points]
    lo = bisect.bisect_left(stamps, start - WINDOW_S)
    hi = bisect.bisect_right(stamps, end + WINDOW_S)
    lo = min(lo, max(bisect.bisect_left(stamps, start) - 1, 0))
    hi = max(hi, min(bisect.bisect_left(stamps, end) + 1, len(points)))
    return statistics.median(r for _, r in points[lo:hi])


class InOpSampler:
    """Helper thread that samples the reference during long operations."""

    def __init__(self) -> None:
        self.points: list[tuple[float, float]] = []
        self._op_start: float | None = None
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, name="reference-sampler", daemon=True)

    def __enter__(self) -> "InOpSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def op_started(self) -> None:
        with self._lock:
            self._op_start = time.perf_counter()

    def op_finished(self) -> None:
        """Mark the operation done; waits for a sample in progress."""
        with self._lock:
            self._op_start = None

    def _loop(self) -> None:
        while not self._stop.wait(LONG_OP_EVERY_S):
            with self._lock:
                if self._op_start is not None and time.perf_counter() - self._op_start >= LONG_OP_S:
                    seconds = sample()
                    self.points.append((time.perf_counter(), seconds))
