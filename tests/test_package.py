"""The package namespace: what `from eigb import *` exports, and what
starting the CLI loads."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np

import eigb
from eigb.matfile import save_matrix


def test_all_names_resolve():
    missing = [name for name in eigb.__all__ if not hasattr(eigb, name)]
    assert missing == []


def test_all_has_no_duplicates():
    assert len(set(eigb.__all__)) == len(eigb.__all__)


def test_star_import():
    namespace = {}
    exec("from eigb import *", namespace)
    assert set(eigb.__all__) <= set(namespace)


def test_dir_lists_all():
    assert set(eigb.__all__) <= set(dir(eigb))


def test_campaign_names_are_the_harness_objects():
    import eigb.harness

    assert eigb.run_campaign is eigb.harness.run_campaign
    assert eigb.CampaignConfig is eigb.harness.CampaignConfig


def test_unknown_attribute_raises():
    try:
        eigb.no_such_name
    except AttributeError as exc:
        assert "no_such_name" in str(exc)
    else:
        raise AssertionError("eigb.no_such_name did not raise")


def test_cli_start_loads_no_campaign_layer(tmp_path):
    # In a fresh interpreter: `import eigb.cli` loads neither the campaign
    # layer (eigb.harness) nor dataclasses; spectrum runs without harness,
    # and verify loads it.
    a, b = tmp_path / "a.mat", tmp_path / "b.mat"
    save_matrix(a, np.diag([2.0, -1.0]))
    save_matrix(b, np.eye(2))
    code = textwrap.dedent(
        """
        import contextlib, io, sys
        import eigb.cli

        def loaded():
            return [m for m in ("eigb.harness", "dataclasses") if m in sys.modules]

        print(loaded())
        for command in ("spectrum", "verify"):
            with contextlib.redirect_stdout(io.StringIO()):
                code = eigb.cli.main([command, "--a", sys.argv[1], "--b", sys.argv[2]])
            print(command, code, "eigb.harness" in sys.modules)
        """
    )
    src = str(Path(eigb.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    run = subprocess.run(
        [sys.executable, "-c", code, str(a), str(b)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines() == ["[]", "spectrum 0 False", "verify 0 True"]
