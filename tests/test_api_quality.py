"""API quality meta-tests: every public item is documented and importable."""

import importlib
import inspect
import pkgutil

import pytest

import repro

MODULES = [
    name
    for _, name, _ in pkgutil.walk_packages(repro.__path__, prefix="repro.")
    if not name.rsplit(".", 1)[-1].startswith("_")
]


@pytest.mark.parametrize("modname", MODULES)
def test_module_importable_and_documented(modname):
    mod = importlib.import_module(modname)
    assert mod.__doc__, f"{modname} lacks a module docstring"


@pytest.mark.parametrize("modname", MODULES)
def test_public_callables_documented(modname):
    mod = importlib.import_module(modname)
    for name, obj in vars(mod).items():
        if name.startswith("_"):
            continue
        if not (inspect.isfunction(obj) or inspect.isclass(obj)):
            continue
        if getattr(obj, "__module__", None) != modname:
            continue  # re-export; documented at its home
        assert obj.__doc__, f"{modname}.{name} lacks a docstring"
        if inspect.isclass(obj):
            for mname, meth in vars(obj).items():
                if mname.startswith("_") or not inspect.isfunction(meth):
                    continue
                assert (
                    meth.__doc__
                ), f"{modname}.{name}.{mname} lacks a docstring"


def test_all_exports_resolve():
    for modname in MODULES + ["repro"]:
        mod = importlib.import_module(modname)
        for name in getattr(mod, "__all__", []):
            assert hasattr(mod, name), f"{modname}.__all__ lists missing {name}"


def test_api_reference_up_to_date():
    """docs/API.md is what ``tools/gen_api.py`` would generate — catches
    stale references.  ``--check`` compares without writing, so a stale
    doc fails here instead of being rewritten by the test run."""
    import pathlib
    import subprocess
    import sys

    repo = pathlib.Path(__file__).resolve().parent.parent
    before = (repo / "docs" / "API.md").read_bytes()
    proc = subprocess.run(
        [sys.executable, str(repo / "tools" / "gen_api.py"), "--check"],
        capture_output=True,
        text=True,
    )
    assert (repo / "docs" / "API.md").read_bytes() == before
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_gen_api_help_and_check_write_nothing(tmp_path, capsys):
    """``--help`` prints usage and ``--check`` reports a stale file with
    exit code 1; neither touches the file.  Without flags the tool
    writes it, after which ``--check`` passes."""
    import importlib.util
    import pathlib

    repo = pathlib.Path(__file__).resolve().parent.parent
    spec = importlib.util.spec_from_file_location(
        "gen_api", repo / "tools" / "gen_api.py"
    )
    gen_api = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen_api)
    gen_api.OUT = tmp_path / "API.md"
    gen_api.OUT.write_text("stale\n")

    with pytest.raises(SystemExit) as exc:
        gen_api.main(["--help"])
    assert exc.value.code == 0
    assert "--check" in capsys.readouterr().out
    assert gen_api.main(["--check"]) == 1
    assert gen_api.OUT.read_text() == "stale\n"
    assert gen_api.main([]) == 0
    assert gen_api.OUT.read_text().startswith("# API reference")
    assert gen_api.main(["--check"]) == 0


def test_no_vector_block_method_twins():
    """k is a shape, not a type: under the distributed data plane no
    public class offers both ``name`` and ``name_block`` — one method
    takes ``(n,)`` and ``(n, k)`` parts alike."""
    twins = []
    for modname in MODULES:
        if not modname.startswith(
            ("repro.core", "repro.parallel", "repro.precond")
        ):
            continue
        mod = importlib.import_module(modname)
        for cname, cls in vars(mod).items():
            if (
                cname.startswith("_")
                or not inspect.isclass(cls)
                or cls.__module__ != modname
            ):
                continue
            names = set(dir(cls))
            twins += [
                f"{modname}.{cname}.{n}"
                for n in sorted(names)
                if n.endswith("_block") and n[: -len("_block")] in names
            ]
    assert not twins, f"vector/block method twins: {twins}"


def test_three_comm_backends_and_thread_is_rejected(capsys):
    """Two data planes — inline and worker-resident — behind three
    registry names; the removed ``thread`` backend is refused on every
    surface with a message listing what exists."""
    from repro.api import SolverOptions
    from repro.cli import main
    from repro.parallel.comm import Comm, available_comm_backends

    backends = ("virtual", "process", "chaos")
    assert available_comm_backends() == backends
    with pytest.raises(ValueError) as exc:
        SolverOptions(comm_backend="thread")
    assert all(name in str(exc.value) for name in backends)
    with pytest.raises(SystemExit):
        main(["solve", "--mesh", "1", "--comm-backend", "thread"])
    err = capsys.readouterr().err
    assert "thread" in err and all(name in err for name in backends)
    assert "work" not in inspect.signature(Comm.run_ranks).parameters
