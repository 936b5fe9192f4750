"""``repro solve`` reports the verified true residual on every path."""

import pytest

from repro.cli import main


@pytest.mark.parametrize("nrhs", [1, 2])
def test_dynamic_solve_prints_verified_residual(capsys, nrhs):
    """The residual is the one verified against the serially assembled
    dynamic operator (``beta K + alpha M``), one line per column."""
    rc = main(["solve", "--mesh", "1", "-p", "2", "--dynamic",
               "--nrhs", str(nrhs)])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.count("true relative residual: ") == nrhs
