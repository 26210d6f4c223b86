"""Command-line front end.

Subcommands:
  bounds    evaluate every bound for one (A, B, selection)
  verify    check all (or sampled) selections for one (A, B), exit 1 on violation
  fuzz      run a randomized verification campaign
  example   built-in 3x3 regression case with integer-valued bounds
  spectrum  print spectra (and inertia) for A and optionally B, AB

Exit codes: 0 all checks pass, 1 a mathematical violation was found,
2 input or usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import bounds as bnd
from . import harness
from .errors import EigbError, NoSignChange, NotPositiveDefinite
from .linalg import Spectrum, hermitian_eig, product_spectrum, validate_hermitian, validate_psd
from .matfile import FORMAT_VERSION, load_matrix

# Built-in regression example: integer spectra (3,-1,-4), (3,2,1), (3,-3,-8).
EXAMPLE_A = [[1, 2, 0], [2, 1, 0], [0, 0, -4]]
EXAMPLE_B = [[2, -1, 0], [-1, 2, 0], [0, 0, 2]]
# (indices) -> (upper, actual, lower), all exact integers.
EXAMPLE_EXPECTED = {
    (1, 2): (8.0, 0.0, 0.0),
    (1, 3): (5.0, -5.0, -9.0),
    (2, 3): (-6.0, -11.0, -14.0),
}
_GOLDEN_TOL = 1e-9


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _fmt_seq(values) -> str:
    return " ".join(_fmt(v) for v in values)


def _default_tol_verify() -> float:
    text = os.environ.get("EIGB_TOL_VERIFY")
    if text is None:
        return bnd.TOL_VERIFY_BASE
    try:
        return float(text)
    except ValueError:
        raise EigbError(f"EIGB_TOL_VERIFY must be a number, got {text!r}") from None


def _add_common(parser: argparse.ArgumentParser, json_output: bool = True) -> None:
    parser.add_argument("--tol-class", type=float, default=bnd.TOL_CLASS,
                        help="relative threshold classifying eigenvalues as zero")
    parser.add_argument("--tol-verify", type=float, default=None,
                        help="base slack tolerance (env EIGB_TOL_VERIFY overrides the default)")
    parser.add_argument("--tol-herm", type=float, default=1e-9,
                        help="relative hermiticity acceptance tolerance")
    if json_output:
        parser.add_argument("--json", action="store_true", help="emit JSON instead of text")


def _parse_indices(text: str, n: int) -> bnd.IndexSequence:
    try:
        parts = tuple(int(p) for p in text.split(","))
    except ValueError:
        raise EigbError(f"indices must be a comma list of integers, got {text!r}") from None
    return bnd.IndexSequence(indices=parts, n=n)


def _check_tolerances(args) -> None:
    for name in ("tol_class", "tol_verify", "tol_herm"):
        value = getattr(args, name)
        # Written as "not >= 0" so that NaN fails too.
        if not value >= 0:
            raise EigbError(f"--{name.replace('_', '-')} must be nonnegative, got {value}")


def _tolerances(args) -> harness.Tolerances:
    return harness.Tolerances(tol_class=args.tol_class, verify_base=args.tol_verify)


def _load_pair(args):
    a = validate_hermitian(load_matrix(args.a), args.tol_herm)
    b = validate_psd(load_matrix(args.b), herm_tol=args.tol_herm)
    return a, b


def _spectra(a, b) -> tuple[Spectrum, Spectrum, Spectrum]:
    """The spectra of A, B (clamped) and AB, from the instance's SpectraStack."""
    sp = harness.instance_spectra(a, b)
    return tuple(Spectrum(s[0].tolist()) for s in (sp.spec_a, sp.spec_b, sp.spec_ab))


def cmd_bounds(args) -> int:
    a, b = _load_pair(args)
    spec_a, spec_b, spec_ab = _spectra(a, b)
    idx = _parse_indices(args.indices, a.n)
    report = bnd.main_bound_report(spec_a, spec_b, spec_ab, idx, args.tol_class)
    inertia = bnd.inertia_of(spec_a, args.tol_class)
    sums = bnd.selection_bounds(spec_a, spec_b, idx, args.tol_class)
    tau = bnd.verify_tolerance(spec_a, spec_b, idx.k, args.tol_verify)
    dominance_ok = sums.t1 <= sums.t2 + tau

    gap_section = None
    try:
        p, q, gap, cap = bnd.gap_bound(spec_a, spec_b, spec_ab, args.tol_class)
        gap_section = {"p": p, "q": q, "gap": gap, "bound": cap}
    except NoSignChange:
        pass
    ostrowski_section = None
    try:
        rep = bnd.ostrowski_ratios(spec_a, spec_ab, spec_b, args.tol_class)
        ostrowski_section = {
            "low": rep.low,
            "high": rep.high,
            "ratios": [{"t": t, "ratio": r} for t, r in rep.ratios],
        }
    except NotPositiveDefinite:
        pass

    if args.json:
        payload = {
            "version": FORMAT_VERSION,
            "spectrum_a": list(spec_a),
            "spectrum_b": list(spec_b),
            "spectrum_ab": list(spec_ab),
            "inertia_a": list(inertia.as_tuple()),
            "indices": list(idx.indices),
            "selected_nonneg": report.selected_nonneg,
            "branch": report.branch,
            "lower": report.lower,
            "actual": report.actual,
            "upper": report.upper,
            "lower_slack": report.lower_slack,
            "upper_slack": report.upper_slack,
            "splitting_upper": sums.split_upper,
            "t1": sums.t1,
            "t2": sums.t2,
            "dominance_ok": dominance_ok,
            "gap": gap_section,
            "ostrowski": ostrowski_section,
        }
        print(json.dumps(payload))
        return 0

    print(f"spectrum A:  {_fmt_seq(spec_a)}")
    print(f"spectrum B:  {_fmt_seq(spec_b)}")
    print(f"spectrum AB: {_fmt_seq(spec_ab)}")
    print(
        f"inertia A:   positive={inertia.positive} negative={inertia.negative} "
        f"zero={inertia.zero} (nonnegative={inertia.nonnegative})"
    )
    print(
        f"selection:   indices={','.join(map(str, idx.indices))} k={idx.k} "
        f"selected_nonneg={report.selected_nonneg} branch={report.branch}"
    )
    print(
        f"main bounds: lower={_fmt(report.lower)} actual={_fmt(report.actual)} "
        f"upper={_fmt(report.upper)}"
    )
    print(
        f"slacks:      lower={_fmt(report.lower_slack)} upper={_fmt(report.upper_slack)}"
    )
    print(
        f"splitting:   upper={_fmt(sums.split_upper)} T1={_fmt(sums.t1)} "
        f"T2={_fmt(sums.t2)} dominance_ok={dominance_ok}"
    )
    if gap_section is not None:
        print(
            f"gap:         p={gap_section['p']} q={gap_section['q']} "
            f"gap={_fmt(gap_section['gap'])} bound={_fmt(gap_section['bound'])}"
        )
    if ostrowski_section is not None:
        ratios = " ".join(
            f"{item['t']}:{_fmt(item['ratio'])}" for item in ostrowski_section["ratios"]
        )
        print(
            f"ostrowski:   range=[{_fmt(ostrowski_section['low'])}, "
            f"{_fmt(ostrowski_section['high'])}] ratios {ratios}"
        )
    return 0


_VERIFY_EXHAUSTIVE_MAX_N = 10
_VERIFY_SAMPLE_COUNT = 200


def cmd_verify(args) -> int:
    a, b = _load_pair(args)
    sp = harness.instance_spectra(a, b)
    n = a.n

    if args.indices is not None:
        selections = [_parse_indices(args.indices, n).indices]
        print(f"checking 1 selection on n={n}")
    elif n <= _VERIFY_EXHAUSTIVE_MAX_N:
        # Shared with every later call in this process, with its index.
        selections = harness._exhaustive(n)[0]
        print(f"checking all {len(selections)} selections on n={n}")
    else:
        seed = args.seed if args.seed is not None else 0
        selections = harness.sample_selections(seed, n, _VERIFY_SAMPLE_COUNT)
        print(f"checking {len(selections)} sampled selections on n={n}")

    violations = harness.check_selections(sp, selections, _tolerances(args)).failures
    if not violations:
        print("all inequalities hold")
        return 0
    print(f"{len(violations)} violating selections:")
    for record in violations:
        for c in record.checks:
            if not c.passed:
                print(
                    f"  indices={','.join(map(str, record.indices))} check={c.name} "
                    f"lower={c.lower} actual={_fmt(c.actual)} upper={c.upper} "
                    f"lower_slack={c.lower_slack} upper_slack={c.upper_slack} {c.detail}"
                )
    return 1


def cmd_fuzz(args) -> int:
    inertia = None
    if args.inertia is not None:
        try:
            parts = tuple(int(p) for p in args.inertia.split(","))
        except ValueError:
            raise EigbError(f"inertia must be p,m,z integers, got {args.inertia!r}") from None
        if len(parts) != 3:
            raise EigbError(f"inertia must have three components, got {args.inertia!r}")
        inertia = parts
    campaign = harness.CampaignConfig(
        n_min=args.n_min,
        n_max=args.n_max,
        inertia=inertia,
        tolerances=_tolerances(args),
    )
    report = harness.run_campaign(args.count, campaign, args.seed)

    if args.json:
        print(json.dumps(report.to_json_dict()))
    else:
        print(
            f"campaign: total={report.total} passed={report.passed} "
            f"failed={report.failed} wall_time={report.wall_time:.2f}s"
        )
        for st in report.checks:
            print(
                f"  {st.name}: evaluations={st.count} failed={st.failed} "
                f"min_slack={_fmt(st.min_slack)} mean_slack={_fmt(st.mean_slack)}"
            )
        for record in report.failures[:20]:
            print(
                f"  FAIL instance={record.instance_id} seed={record.seed} n={record.n} "
                f"indices={','.join(map(str, record.indices))}"
            )
    return 0 if report.failed == 0 else 1


def cmd_example(args) -> int:
    a = validate_hermitian(EXAMPLE_A, args.tol_herm)
    b = validate_psd(EXAMPLE_B, herm_tol=args.tol_herm)
    spec_a, spec_b, spec_ab = _spectra(a, b)

    rows = []
    worst = 0.0
    for label, indices in (("I", (1, 2)), ("II", (1, 3)), ("III", (2, 3))):
        idx = bnd.IndexSequence(indices=indices, n=3)
        report = bnd.main_bound_report(spec_a, spec_b, spec_ab, idx, args.tol_class)
        exp_upper, exp_actual, exp_lower = EXAMPLE_EXPECTED[indices]
        worst = max(
            worst,
            abs(report.upper - exp_upper),
            abs(report.actual - exp_actual),
            abs(report.lower - exp_lower),
        )
        rows.append((label, indices, report))

    if args.json:
        payload = {
            "version": FORMAT_VERSION,
            "cases": [
                {
                    "case": label,
                    "indices": list(indices),
                    "upper": r.upper,
                    "actual": r.actual,
                    "lower": r.lower,
                }
                for label, indices, r in rows
            ],
            "max_deviation": worst,
            "ok": worst <= _GOLDEN_TOL,
        }
        print(json.dumps(payload))
    else:
        print("case  indices  upper  actual  lower")
        for label, indices, r in rows:
            print(
                f"{label:<5} {','.join(map(str, indices)):<8} "
                f"{_fmt(r.upper):<6} {_fmt(r.actual):<7} {_fmt(r.lower)}"
            )
        print(f"max deviation from expected values: {worst:.3e}")
    return 0 if worst <= _GOLDEN_TOL else 1


def cmd_spectrum(args) -> int:
    a = validate_hermitian(load_matrix(args.a), args.tol_herm)
    spec_a = hermitian_eig(a).spectrum
    payload = {"version": FORMAT_VERSION, "spectrum_a": list(spec_a)}
    lines = [f"spectrum A:  {_fmt_seq(spec_a)}"]
    if args.b is not None:
        b = validate_psd(load_matrix(args.b), herm_tol=args.tol_herm)
        spec_ab = product_spectrum(a, b)
        inertia = bnd.inertia_of(spec_a, args.tol_class)
        payload["spectrum_b"] = list(b.spectrum)
        payload["spectrum_ab"] = list(spec_ab)
        payload["inertia_a"] = list(inertia.as_tuple())
        lines.append(f"spectrum B:  {_fmt_seq(b.spectrum)}")
        lines.append(f"spectrum AB: {_fmt_seq(spec_ab)}")
        lines.append(
            f"inertia A:   positive={inertia.positive} negative={inertia.negative} "
            f"zero={inertia.zero}"
        )
    if args.json:
        print(json.dumps(payload))
    else:
        print("\n".join(lines))
    return 0


@functools.cache
def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eigb",
        description="Eigenvalue-sum bounds for products of Hermitian and PSD matrices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_bounds = sub.add_parser("bounds", help="evaluate bounds for one selection")
    p_bounds.add_argument("--a", required=True, help="path to Hermitian matrix file")
    p_bounds.add_argument("--b", required=True, help="path to PSD matrix file")
    p_bounds.add_argument("--indices", required=True, help="comma list, e.g. 1,3")
    _add_common(p_bounds)
    p_bounds.set_defaults(func=cmd_bounds)

    p_verify = sub.add_parser("verify", help="verify inequalities for one instance")
    p_verify.add_argument("--a", required=True)
    p_verify.add_argument("--b", required=True)
    p_verify.add_argument("--indices", help="single selection; default checks all")
    p_verify.add_argument(
        "--seed", type=int, default=None, help="sampling seed for n > 10 (read mod 2^64)"
    )
    _add_common(p_verify, json_output=False)
    p_verify.set_defaults(func=cmd_verify)

    p_fuzz = sub.add_parser("fuzz", help="randomized verification campaign")
    p_fuzz.add_argument("--count", type=int, default=100, help="number of instances")
    p_fuzz.add_argument("--n-min", type=int, default=2)
    p_fuzz.add_argument("--n-max", type=int, default=8)
    p_fuzz.add_argument("--seed", type=int, default=0, help="campaign master seed (read mod 2^64)")
    p_fuzz.add_argument("--inertia", help="force inertia p,m,z for every instance")
    _add_common(p_fuzz)
    p_fuzz.set_defaults(func=cmd_fuzz)

    p_example = sub.add_parser("example", help="built-in integer-valued regression case")
    _add_common(p_example)
    p_example.set_defaults(func=cmd_example)

    p_spectrum = sub.add_parser("spectrum", help="print spectra and inertia")
    p_spectrum.add_argument("--a", required=True)
    p_spectrum.add_argument("--b")
    _add_common(p_spectrum)
    p_spectrum.set_defaults(func=cmd_spectrum)

    return parser


def main(argv=None) -> int:
    try:
        # The parser is built once, so the environment is read here on every
        # call; before parsing, so a bad value exits 2 whatever the arguments.
        tol_verify = _default_tol_verify()
        args = _parser().parse_args(argv)
        if args.tol_verify is None:
            args.tol_verify = tol_verify
        _check_tolerances(args)
        return args.func(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except (EigbError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
