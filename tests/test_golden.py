"""Fixed-seed outputs against the golden files in tests/golden/.

The outputs are regenerated in-process:
  - `montecarlo --n 200 --seed 4242` of both cases: the results CSV and the
    printed table;
  - `reach` of both cases: the windows JSON;
  - `simulate --seed 6` of every case and strategy: the printed JSON, and the
    SHA-256 digest of the trajectory CSV;
  - `scripts/run_case_study.py --n 4`: the SHA-256 digest of every file.

tests/golden/environment.json records the Python, numpy and scipy versions
and the machine the golden files were made on.  In that environment every
output must hold its bytes.  Elsewhere, transcendental functions may round
differently, so the stored files are compared number by number within
RTOL/ATOL and the digests are not checked; the test prints which mode ran.

A documented change of the outputs regenerates the files with

    PYTHONPATH=src python tests/test_golden.py --write
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import json
import math
import platform
import re
import sys
from pathlib import Path

import numpy
import pytest
import scipy

from dfrto.cli import main as cli_main

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden"
CASE_STUDY = HERE.parent / "scripts" / "run_case_study.py"
CASES = ("limiting_flux", "generalized")
STRATEGIES = ("optimal", "nominal", "robust", "adaptive")
# the numeric tolerance outside the recorded environment
RTOL, ATOL = 1e-6, 1e-9


def environment() -> dict:
    cpu = platform.processor()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "machine": platform.machine(), "cpu": cpu}


def _cli(*argv: str) -> bytes:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli_main(list(argv)) == 0
    return out.getvalue().encode()


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def produce(work: Path) -> tuple[dict[str, bytes], dict[str, str]]:
    """(stored outputs by file name, SHA-256 digests by output name)."""
    files, digests = {}, {}
    for case in CASES:
        csv = work / f"montecarlo_{case}.csv"
        files[f"montecarlo_{case}.txt"] = _cli("montecarlo", "--n", "200", "--seed",
                                               "4242", "--case", case, "--out", str(csv))
        files[csv.name] = csv.read_bytes()
        windows = work / f"reach_{case}.json"
        _cli("reach", "--case", case, "--out", str(windows))
        files[windows.name] = windows.read_bytes()
        for strategy in STRATEGIES:
            name = f"simulate_{case}_{strategy}"
            traj = work / f"{name}_traj.csv"
            files[f"{name}.json"] = _cli("simulate", "--case", case, "--strategy",
                                         strategy, "--seed", "6", "--out", str(traj))
            digests[traj.name] = _digest(traj)
    spec = importlib.util.spec_from_file_location("run_case_study", CASE_STUDY)
    study = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(study)
    out = work / "case_study"
    out.mkdir()
    with contextlib.redirect_stdout(io.StringIO()):
        for case in CASES:
            study.run(case, out, 4, 20240801)
    for path in sorted(out.iterdir()):
        digests[f"case_study/{path.name}"] = _digest(path)
    return files, digests


def _stored() -> list[str]:
    return sorted(p.name for p in GOLDEN.glob("*")
                  if p.name not in ("environment.json", "digests.json"))


_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|[-+]?(?:nan|inf)")


def _same_within_tolerance(got: str, want: str) -> bool:
    """The texts agree outside their numbers, and number by number within
    RTOL/ATOL."""
    if _NUMBER.split(got) != _NUMBER.split(want):
        return False
    a, b = _NUMBER.findall(got), _NUMBER.findall(want)
    return len(a) == len(b) and all(
        math.isclose(float(x), float(y), rel_tol=RTOL, abs_tol=ATOL)
        or (math.isnan(float(x)) and math.isnan(float(y))) for x, y in zip(a, b))


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    exact = json.loads((GOLDEN / "environment.json").read_text()) == environment()
    mode = ("byte equality (recorded environment)" if exact else
            f"numeric tolerance rtol={RTOL}, atol={ATOL}; digests not checked")
    print(f"golden outputs: {mode}")
    return (exact, *produce(tmp_path_factory.mktemp("golden")))


@pytest.mark.parametrize("name", _stored())
def test_golden_file(outputs, name):
    exact, files, _ = outputs
    want = (GOLDEN / name).read_bytes()
    if exact:
        assert files[name] == want, f"{name} differs from tests/golden (byte mode)"
    else:
        assert _same_within_tolerance(files[name].decode(), want.decode()), \
            f"{name} differs from tests/golden beyond rtol={RTOL}, atol={ATOL}"


def test_golden_digests(outputs):
    exact, _, digests = outputs
    want = json.loads((GOLDEN / "digests.json").read_text())
    assert sorted(digests) == sorted(want)
    if not exact:
        pytest.skip("digests hold bytes only in the recorded environment")
    moved = sorted(name for name in want if digests[name] != want[name])
    assert not moved, f"outputs differ from tests/golden/digests.json: {moved}"


def _write() -> None:
    import tempfile
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        files, digests = produce(Path(tmp))
    for name, data in files.items():
        (GOLDEN / name).write_bytes(data)
    (GOLDEN / "digests.json").write_text(json.dumps(digests, indent=2) + "\n")
    (GOLDEN / "environment.json").write_text(json.dumps(environment(), indent=2) + "\n")
    print(f"wrote {len(files)} files and {len(digests)} digests to {GOLDEN}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit("usage: PYTHONPATH=src python tests/test_golden.py --write")
    _write()
