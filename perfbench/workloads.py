"""Benchmark inputs, operations and output gates.

Every input is generated here with numpy from the workload seed and written
to EIGB1 matrix files before timing starts; the program only sees the files
and the command line.  An operation is one `eigb` CLI call.  Each operation
carries a gate that decides from the exit code and the captured stdout
whether the call's output is correct.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

# Spectra must agree with the numpy oracle to this relative accuracy (the
# criterion-10 bar of the acceptance suite).
SPECTRUM_RTOL = 1e-10

# campaign: dimensions covered, fuzz calls per dimension in a round, and
# instances per call.
CAMPAIGN_DIMS = range(2, 9)
CAMPAIGN_CALLS_PER_DIM = 3
CAMPAIGN_COUNT = 20
# verify_n10: (inertia of A, B singular) for each pair in a round; every
# kind appears twice so that no latency group rests on one input.
VERIFY_N = 10
VERIFY_KINDS = tuple((kind, singular) for kind in ("mixed", "psd", "nsd")
                     for singular in (False, True)) * 2
# solve_large: dimensions of one round, in call order.  Ten n = 32 calls keep
# op_p50_s and op_tail_s among the n = 32 calls for one to three rounds; the
# n = 64 and n = 128 calls weigh on ops_per_s.
SOLVE_SIZES = (32,) * 10 + (64,) * 2 + (128,)
# Extreme-scale probe: entries of A scaled to about 1e+200 and 1e-200.
PROBE_N = 32
PROBE_SCALES = (1e200, 1e-200)

Gate = Callable[[int, str], "str | None"]


@dataclass(frozen=True)
class Operation:
    """One CLI call: its argv, a label for reporting, and its output gate."""

    argv: tuple[str, ...]
    label: str
    gate: Gate


def _unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def _hermitian(rng: np.random.Generator, values: np.ndarray) -> np.ndarray:
    q = _unitary(rng, len(values))
    m = (q * values) @ q.conj().T
    m = (m + m.conj().T) / 2.0
    np.fill_diagonal(m, m.diagonal().real)
    return m


def _magnitudes(rng: np.random.Generator, count: int) -> np.ndarray:
    return rng.uniform(0.1, 10.0, size=count)


def _mixed_values(rng: np.random.Generator, n: int) -> np.ndarray:
    positive = int(rng.integers(1, n))
    return np.concatenate([_magnitudes(rng, positive), -_magnitudes(rng, n - positive)])


def _psd_values(rng: np.random.Generator, n: int, singular: bool) -> np.ndarray:
    values = _magnitudes(rng, n)
    if singular:
        values[-1] = 0.0
    return values


def write_matrix(path: Path, m: np.ndarray) -> str:
    """Write `m` in the EIGB1 text format; float repr round-trips exactly.

    Kept apart from eigb.matfile.write_matrix so that the inputs, and the
    parser they exercise, do not change when the package's writer does.
    """
    lines = ["# EIGB1", str(m.shape[0])]
    for row in m:
        lines.append(" ".join(f"({float(v.real)!r},{float(v.imag)!r})" for v in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def _descending(values) -> list[float]:
    return sorted((float(v) for v in values), reverse=True)


def oracle_spectra(a: np.ndarray, b: np.ndarray) -> dict[str, list[float]]:
    """Independent spectra of A, B (clamped at 0) and AB via numpy's B^(1/2)."""
    b_vals, b_vecs = np.linalg.eigh(b)
    b_vals = np.maximum(b_vals, 0.0)
    root = (b_vecs * np.sqrt(b_vals)) @ b_vecs.conj().T
    conjugated = root @ a @ root
    conjugated = (conjugated + conjugated.conj().T) / 2.0
    return {
        "spectrum_a": _descending(np.linalg.eigvalsh(a)),
        "spectrum_b": _descending(b_vals),
        "spectrum_ab": _descending(np.linalg.eigvalsh(conjugated)),
    }


def _spectrum_error(got, want) -> float:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return float("inf")
    scale = float(np.max(np.abs(want)))
    return float(np.max(np.abs(got - want))) / (scale if scale > 0.0 else 1.0)


def _json_payload(out: str):
    lines = out.strip().splitlines()
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return None


def _campaign_gate(rc: int, out: str):
    if rc != 0:
        return f"exit code {rc}"
    payload = _json_payload(out)
    if not isinstance(payload, dict) or payload.get("version") != "EIGB1":
        return "no EIGB1 JSON on stdout"
    if payload.get("total", 0) < 1:
        return "campaign checked no selection"
    if payload.get("failed") != 0:
        return f"campaign reports failed={payload.get('failed')}"
    return None


def _verify_gate(selections: int) -> Gate:
    banner = f"checking all {selections} selections"

    def gate(rc: int, out: str):
        if rc != 0:
            return f"exit code {rc}"
        if banner not in out:
            return f"missing {banner!r}"
        if "all inequalities hold" not in out:
            return "missing 'all inequalities hold'"
        return None

    return gate


def _spectrum_gate(oracle: dict[str, list[float]]) -> Gate:
    def gate(rc: int, out: str):
        if rc != 0:
            return f"exit code {rc}"
        payload = _json_payload(out)
        if not isinstance(payload, dict):
            return "no JSON on stdout"
        for key, want in oracle.items():
            err = _spectrum_error(payload.get(key, []), want)
            if not err <= SPECTRUM_RTOL:
                return f"{key} relative error {err:.3g} > {SPECTRUM_RTOL:g}"
        return None

    return gate


def _pair_files(workdir: Path, tag: str, a: np.ndarray, b: np.ndarray) -> tuple[str, str]:
    return (write_matrix(workdir / f"{tag}-a.mat", a),
            write_matrix(workdir / f"{tag}-b.mat", b))


def campaign(rng: np.random.Generator, workdir: Path) -> list[Operation]:
    ops = []
    for n in CAMPAIGN_DIMS:
        for seed in rng.integers(0, 2**31, size=CAMPAIGN_CALLS_PER_DIM):
            ops.append(Operation(
                argv=("fuzz", "--count", str(CAMPAIGN_COUNT), "--seed", str(int(seed)),
                      "--n-min", str(n), "--n-max", str(n), "--json"),
                label=f"fuzz-n{n}-seed{int(seed)}",
                gate=_campaign_gate,
            ))
    return ops


def verify_n10(rng: np.random.Generator, workdir: Path) -> list[Operation]:
    n = VERIFY_N
    ops = []
    for i, (kind, singular) in enumerate(VERIFY_KINDS):
        if kind == "mixed":
            a_values = _mixed_values(rng, n)
        elif kind == "psd":
            a_values = _magnitudes(rng, n)
        else:
            a_values = -_magnitudes(rng, n)
        a = _hermitian(rng, a_values)
        b = _hermitian(rng, _psd_values(rng, n, singular))
        label = f"{kind}-{'singularB' if singular else 'pdB'}"
        pa, pb = _pair_files(workdir, f"verify{i}", a, b)
        ops.append(Operation(("verify", "--a", pa, "--b", pb), label,
                             _verify_gate(2**n - 1)))
    return ops


def _spectrum_op(workdir: Path, tag: str, a: np.ndarray, b: np.ndarray, label: str) -> Operation:
    pa, pb = _pair_files(workdir, tag, a, b)
    return Operation(("spectrum", "--a", pa, "--b", pb, "--json"), label,
                     _spectrum_gate(oracle_spectra(a, b)))


def solve_large(rng: np.random.Generator, workdir: Path) -> list[Operation]:
    ops = []
    for i, n in enumerate(SOLVE_SIZES):
        a = _hermitian(rng, _mixed_values(rng, n))
        b = _hermitian(rng, _psd_values(rng, n, singular=False))
        ops.append(_spectrum_op(workdir, f"solve{i}", a, b, f"n{n}"))
    return ops


def scale_probe(rng: np.random.Generator, workdir: Path) -> list[Operation]:
    """`spectrum` calls whose A has entries of about 1e+200 and 1e-200."""
    ops = []
    for i, scale in enumerate(PROBE_SCALES):
        a = _hermitian(rng, _mixed_values(rng, PROBE_N)) * scale
        b = _hermitian(rng, _psd_values(rng, PROBE_N, singular=False))
        ops.append(_spectrum_op(workdir, f"probe{i}", a, b, f"n{PROBE_N}-scale{scale:g}"))
    return ops


WORKLOADS = {
    "campaign": campaign,
    "verify_n10": verify_n10,
    "solve_large": solve_large,
}
