"""``python -m repro.service chaos-smoke`` without ``--dir`` cleans up.

The differential itself is stubbed: these tests only check what the
command does with its temporary work directory.
"""

import argparse
import pathlib
import tempfile

import pytest

from repro.service import __main__ as cli
from repro.service import chaos


def _args():
    return argparse.Namespace(
        dir=None, seed=7, victims="gdnpeu", schemes="unsafe", timeout=5.0
    )


def _stub(monkeypatch, tmp_path, identical):
    seen = []

    def chaos_differential(specs, workdir, *, seed, timeout):
        seen.append(workdir)
        (pathlib.Path(workdir) / "chaos-svc").mkdir()
        return {"identical": identical, "n_trials": len(specs), "daemon_incarnations": 1}

    monkeypatch.setattr(chaos, "chaos_differential", chaos_differential)
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    return seen


def _leftovers(tmp_path):
    return sorted(p.name for p in tmp_path.glob("repro-chaos-smoke-*"))


def test_passing_chaos_smoke_removes_its_temp_dir(monkeypatch, tmp_path):
    seen = _stub(monkeypatch, tmp_path, identical=True)
    assert cli._cmd_chaos_smoke(_args()) == 0
    assert len(seen) == 1
    assert _leftovers(tmp_path) == []


def test_failing_chaos_smoke_keeps_and_names_its_temp_dir(
    monkeypatch, tmp_path, capsys
):
    seen = _stub(monkeypatch, tmp_path, identical=False)
    assert cli._cmd_chaos_smoke(_args()) == 1
    assert len(_leftovers(tmp_path)) == 1
    assert seen[0] in capsys.readouterr().err


@pytest.mark.parametrize("identical", (True, False))
def test_chaos_smoke_leaves_a_given_dir_alone(monkeypatch, tmp_path, identical):
    _stub(monkeypatch, tmp_path, identical=identical)
    given = tmp_path / "work"
    given.mkdir()
    args = _args()
    args.dir = str(given)
    cli._cmd_chaos_smoke(args)
    assert (given / "chaos-svc").is_dir()
