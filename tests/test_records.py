"""The package's records: keyword and positional construction, defaults,
validation with its messages, and immutability.  Every record is a tuple
(a NamedTuple, or `Spectrum`, a tuple of floats) except the two a campaign
fills in as it runs, CheckStats and CampaignReport."""

import copy
import math
import pickle

import numpy as np
import pytest

from eigb.bounds import (
    TOL_CLASS,
    TOL_VERIFY_BASE,
    BoundReport,
    IndexSequence,
    Inertia,
    OstrowskiReport,
)
from eigb.errors import InvalidIndexSequence, InvalidSpec
from eigb.harness import (
    CampaignConfig,
    CampaignReport,
    CheckResult,
    CheckStats,
    GeneratorSpec,
    Tolerances,
    VerificationRecord,
)
from eigb.linalg import EigenDecomposition, HermitianMatrix, PSDMatrix, Spectrum

SPEC = Spectrum(values=(2.0, 1.0))
HERM = HermitianMatrix(matrix=np.eye(2), hermiticity_defect=0.0)
EIG = EigenDecomposition(spectrum=SPEC, vectors=np.eye(2))
CHECK = CheckResult(name="main-bounds", actual=1.0)

# (class, keyword arguments, the fields it reads back): every immutable record.
RECORDS = [
    (Spectrum, {"values": [2, np.float64(1.5)]}, {"values": (2.0, 1.5)}),
    (EigenDecomposition, {"spectrum": SPEC, "vectors": EIG.vectors}, {}),
    (HermitianMatrix, {"matrix": HERM.matrix, "hermiticity_defect": 0.5}, {}),
    (PSDMatrix, {"hermitian": HERM, "eig": EIG, "min_eigenvalue": 1.0}, {}),
    (Inertia, {"positive": 2, "negative": 1, "zero": 0}, {}),
    (IndexSequence, {"indices": [np.int64(1), 3], "n": 3}, {"indices": (1, 3)}),
    (
        BoundReport,
        {
            "lower": -1.0,
            "upper": 2.0,
            "actual": 0.5,
            "selected_nonneg": 1,
            "lower_slack": 1.5,
            "upper_slack": 1.5,
            "branch": "mixed",
        },
        {},
    ),
    (OstrowskiReport, {"ratios": ((1, 0.5),), "low": 0.25, "high": 4.0}, {}),
    (Tolerances, {"tol_class": 0.0, "verify_base": 1e-6}, {}),
    (CheckResult, {"name": "gap", "actual": 1.0, "lower": 0.0, "passed": False}, {}),
    (
        VerificationRecord,
        {
            "instance_id": 3,
            "seed": 7,
            "n": 2,
            "indices": (1,),
            "selected_nonneg": 1,
            "inertia": (1, 1, 0),
            "checks": (CHECK,),
        },
        {},
    ),
    (GeneratorSpec, {"n": 3, "seed": 5, "inertia_target": (1, 1, 1)}, {}),
    (CampaignConfig, {"n_min": 3, "n_max": 4, "tolerances": Tolerances(tol_class=0.0)}, {}),
]

# (class, keyword arguments, fields left to their defaults).
DEFAULTS = [
    (Tolerances, {}, {"tol_class": TOL_CLASS, "verify_base": TOL_VERIFY_BASE}),
    (
        CheckResult,
        {"name": "gap", "actual": 1.0},
        {
            "lower": None,
            "upper": None,
            "lower_slack": None,
            "upper_slack": None,
            "passed": True,
            "detail": "",
        },
    ),
    (GeneratorSpec, {"n": 3, "seed": 5}, {"eigenvalue_range": (0.1, 10.0), "inertia_target": None}),
    (CampaignConfig, {}, {"n_min": 2, "n_max": 8, "inertia": None, "tolerances": Tolerances()}),
    (CampaignConfig, {"n_max": 4}, {"n_min": 2}),
    (CampaignConfig, {"n_min": 5}, {"n_max": 8}),
    (CampaignConfig, {"inertia": (2, 1, 0)}, {"n_min": None, "n_max": None}),
    (
        CheckStats,
        {"name": "gap"},
        {"count": 0, "failed": 0, "min_slack": math.inf, "finite_sum": 0, "nonfinite_sum": 0.0},
    ),
]

# (class, keyword arguments, exception, message).
INVALID = [
    (Spectrum, {"values": ()}, ValueError, "spectrum must contain at least one value"),
    (Spectrum, {"values": (1.0, math.inf)}, ValueError, "spectrum values must be finite"),
    (Spectrum, {"values": (1.0, 2.0)}, ValueError, "spectrum values must be non-increasing"),
    (Inertia, {"positive": 1, "negative": -1, "zero": 0}, ValueError, "inertia counts must be nonnegative"),
    (
        IndexSequence,
        {"indices": (), "n": 3},
        InvalidIndexSequence,
        "index sequence must select at least one eigenvalue",
    ),
    (IndexSequence, {"indices": (0, 1), "n": 3}, InvalidIndexSequence, "indices must lie in [1, 3], got (0, 1)"),
    (IndexSequence, {"indices": (1, 4), "n": 3}, InvalidIndexSequence, "indices must lie in [1, 3], got (1, 4)"),
    (
        IndexSequence,
        {"indices": (2, 2), "n": 3},
        InvalidIndexSequence,
        "indices must be strictly increasing, got (2, 2)",
    ),
    (IndexSequence, {"indices": (1.0,), "n": 3}, InvalidIndexSequence, "indices must be integers, got (1.0,)"),
    (GeneratorSpec, {"n": 0, "seed": 1}, InvalidSpec, "dimension must be >= 1, got 0"),
    (
        GeneratorSpec,
        {"n": 3, "seed": 1, "eigenvalue_range": (-1.0, 2.0)},
        InvalidSpec,
        "need 0 <= lo <= hi magnitudes, got [-1.0, 2.0]",
    ),
    (
        GeneratorSpec,
        {"n": 3, "seed": 1, "inertia_target": (1, 1, 0)},
        InvalidSpec,
        "inertia target (1, 1, 0) does not sum to n=3",
    ),
    (
        Tolerances,
        {"tol_class": -1.0},
        InvalidSpec,
        "tol_class must be a nonnegative real number, got -1.0",
    ),
    (
        Tolerances,
        {"tol_class": math.nan},
        InvalidSpec,
        "tol_class must be a nonnegative real number, got nan",
    ),
    (
        Tolerances,
        {"verify_base": -1.0},
        InvalidSpec,
        "verify_base must be a nonnegative real number, got -1.0",
    ),
    (
        Tolerances,
        {"verify_base": np.float64(math.nan)},
        InvalidSpec,
        "verify_base must be a nonnegative real number, got " + repr(np.float64(math.nan)),
    ),
    (
        Tolerances,
        {"verify_base": "1e-8"},
        InvalidSpec,
        "verify_base must be a nonnegative real number, got '1e-8'",
    ),
    (CampaignConfig, {"n_min": 0}, InvalidSpec, "bad dimension range [0, 8]"),
    (CampaignConfig, {"n_min": 5, "n_max": 4}, InvalidSpec, "bad dimension range [5, 4]"),
    (CampaignConfig, {"inertia": (0, 0, 0)}, InvalidSpec, "bad inertia (0, 0, 0)"),
    (CampaignConfig, {"inertia": (-1, 2, 0)}, InvalidSpec, "bad inertia (-1, 2, 0)"),
    # Integer fields are not truncated, and a range must be finite.
    (GeneratorSpec, {"n": 2.5, "seed": 1}, InvalidSpec, "dimension must be an integer, got 2.5"),
    (GeneratorSpec, {"n": 3, "seed": 1.7}, InvalidSpec, "seed must be an integer, got 1.7"),
    (
        GeneratorSpec,
        {"n": 3, "seed": 1, "inertia_target": (1.0, 1, 1)},
        InvalidSpec,
        "inertia target counts must be integers, got (1.0, 1, 1)",
    ),
    (
        GeneratorSpec,
        {"n": 2, "seed": 1, "eigenvalue_range": (0.0, math.inf)},
        InvalidSpec,
        "magnitudes must be finite, got [0.0, inf]",
    ),
    (CampaignConfig, {"n_min": 2.5, "n_max": 3}, InvalidSpec, "n_min must be an integer, got 2.5"),
    (CampaignConfig, {"n_max": 3.0}, InvalidSpec, "n_max must be an integer, got 3.0"),
    (
        CampaignConfig,
        {"inertia": (1.0, 1, 0)},
        InvalidSpec,
        "inertia counts must be integers, got (1.0, 1, 0)",
    ),
    (
        CampaignConfig,
        {"inertia": (1, 2)},
        InvalidSpec,
        "inertia must have three counts (p, m, z), got (1, 2)",
    ),
]


def fields_of(record) -> dict:
    if isinstance(record, Spectrum):
        return {"values": record.values}
    return record._asdict()


@pytest.mark.parametrize("cls, kwargs, want", RECORDS, ids=lambda v: getattr(v, "__name__", ""))
class TestImmutableRecords:
    def test_keyword_construction(self, cls, kwargs, want):
        record = cls(**kwargs)
        got = fields_of(record)
        for name, value in {**kwargs, **want}.items():
            assert got[name] is value or got[name] == value, name

    def test_positional_construction(self, cls, kwargs, want):
        record = cls(**kwargs)
        assert cls(*fields_of(record).values()) == record

    def test_assignment_raises(self, cls, kwargs, want):
        record = cls(**kwargs)
        for name in fields_of(record):
            with pytest.raises(AttributeError):
                setattr(record, name, None)
        with pytest.raises(AttributeError):
            record.extra = None

    def test_copies_construct_again(self, cls, kwargs, want):
        # Pickle and copy rebuild a record from its fields through the class.
        record = cls(**kwargs)
        for again in (copy.copy(record), pickle.loads(pickle.dumps(record))):
            assert type(again) is cls
            assert repr(again) == repr(record)


def test_normalized_types():
    assert all(type(v) is float for v in Spectrum(values=[2, np.float64(1.5)]))
    assert all(type(i) is int for i in IndexSequence(indices=[np.int64(1), 3], n=3).indices)
    spec = GeneratorSpec(n=np.int64(3), seed=np.uint64(7), inertia_target=[np.int64(1), 1, 1])
    assert all(type(v) is int for v in (spec.n, spec.seed, *spec.inertia_target))
    config = CampaignConfig(n_min=np.int32(2), n_max=np.int64(4))
    assert all(type(v) is int for v in (config.n_min, config.n_max))
    assert CampaignConfig(inertia=[np.int64(1), 1, 0]).inertia == (1, 1, 0)


def test_spectrum_is_a_tuple_of_its_values():
    spec = Spectrum(values=(3.0, 1.0, -2.0))
    assert spec.values == tuple(spec) == (3.0, 1.0, -2.0)
    assert type(spec.values) is tuple
    assert (spec.n, len(spec), spec[1], spec[-1], spec.sum()) == (3, 3, 1.0, -2.0, 2.0)
    assert repr(spec) == "Spectrum(values=(3.0, 1.0, -2.0))"


@pytest.mark.parametrize("cls, kwargs, want", DEFAULTS, ids=lambda v: getattr(v, "__name__", ""))
def test_defaults(cls, kwargs, want):
    record = cls(**kwargs)
    for name, value in want.items():
        assert getattr(record, name) == value, name


@pytest.mark.parametrize("cls, kwargs, error, message", INVALID, ids=lambda v: getattr(v, "__name__", ""))
def test_validation_errors(cls, kwargs, error, message):
    with pytest.raises(error) as raised:
        cls(**kwargs)
    assert type(raised.value) is error
    assert str(raised.value) == message


@pytest.mark.parametrize(
    "record, change, error",
    [
        (Inertia(1, 1, 1), {"zero": -1}, ValueError),
        (IndexSequence((1, 2), 3), {"indices": (2, 1)}, InvalidIndexSequence),
        (GeneratorSpec(n=3, seed=1), {"n": 0}, InvalidSpec),
        (CampaignConfig(), {"inertia": (2, 1, 0)}, InvalidSpec),
        (Tolerances(), {"verify_base": -1.0}, InvalidSpec),
    ],
    ids=lambda v: type(v).__name__,
)
def test_replace_validates(record, change, error):
    with pytest.raises(error):
        record._replace(**change)


def test_replace_normalizes():
    idx = IndexSequence((1, 2), 3)._replace(indices=[np.int64(2)])
    assert type(idx) is IndexSequence and idx.indices == (2,) and type(idx.indices[0]) is int


class TestMutableRecords:
    def report(self, **change):
        fields = {
            "total": 3,
            "passed": 2,
            "failed": 1,
            "checks": [CheckStats(name="gap", count=3, failed=1, min_slack=-0.5)],
            "failures": [],
            "wall_time": 0.25,
        }
        return CampaignReport(**{**fields, **change})

    def test_fields_assign(self):
        stats = CheckStats("gap")
        stats.count += 2
        stats.min_slack = -1.0
        assert (stats.name, stats.count, stats.min_slack) == ("gap", 2, -1.0)
        report = self.report()
        report.failures.append(None)
        report.wall_time = 1.0
        assert (len(report.failures), report.wall_time) == (1, 1.0)
        with pytest.raises(AttributeError):
            stats.extra = None

    def test_equality_and_repr_by_field(self):
        assert self.report() == self.report()
        assert self.report() != self.report(wall_time=0.5)
        assert CheckStats("gap") != CheckStats("gap", count=1)
        assert CheckStats("gap") != ("gap", 0, 0, math.inf, 0, 0.0)
        assert repr(CheckStats("gap", failed=1)) == (
            "CheckStats(name='gap', count=0, failed=1, min_slack=inf, finite_sum=0, "
            "nonfinite_sum=0.0)"
        )
        assert repr(self.report(checks=[])) == (
            "CampaignReport(total=3, passed=2, failed=1, checks=[], failures=[], wall_time=0.25)"
        )

    def test_unhashable(self):
        for record in (CheckStats("gap"), self.report()):
            with pytest.raises(TypeError):
                hash(record)
