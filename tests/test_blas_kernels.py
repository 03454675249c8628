"""The golden digests hold on every BLAS kernel this numpy build offers.

A ``DYNAMIC_ARCH`` OpenBLAS picks its compute kernels for the CPU when it
loads, and ``OPENBLAS_CORETYPE`` forces another one for a single process.
Kernels sum in their own orders, so a statistic formed through BLAS can
differ in its last digit from one machine to the next. This test reruns
``tests/test_digests.py`` in child processes, one per distinct core, so a
digest that depends on the kernel fails here and names it.

Several requested core types run the same kernels (in OpenBLAS 0.3.31,
Zen runs Haswell's and Prescott Katmai's), so each candidate is first
confirmed in a small child through OpenBLAS's own ``get_corename`` and the
candidates are deduplicated by the reported name. The core this process
runs on is left out: ``tests/test_digests.py`` checks it in-process. The
test is skipped when numpy's BLAS is not a ``DYNAMIC_ARCH`` scipy-openblas,
where the variable does nothing.

Run as a script, ``python tests/test_blas_kernels.py`` prints the core
that numpy's OpenBLAS runs on.
"""

from __future__ import annotations

import ctypes
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]

#: Requested core types; an x86-64 DYNAMIC_ARCH build runs each on one of its kernels.
CANDIDATES = ("SkylakeX", "Haswell", "Zen", "Sandybridge", "Nehalem", "Prescott")

CORENAME = "scipy_openblas_get_corename64_"

def _openblas_library() -> Path | None:
    """numpy's bundled DYNAMIC_ARCH scipy-openblas, or None."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.25 prints only
        return None
    if blas.get("name") != "scipy-openblas" or "DYNAMIC_ARCH" not in blas.get("openblas configuration", ""):
        return None
    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas*"))
    return libs[0] if libs else None


def _core_name(library: Path) -> str:
    fn = getattr(ctypes.CDLL(str(library)), CORENAME)
    fn.argtypes = []
    fn.restype = ctypes.c_char_p
    return fn().decode()


def _run(args, core: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "OPENBLAS_CORETYPE": core, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run(args, cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)


def test_digests_hold_on_every_openblas_core():
    library = _openblas_library()
    if library is None:
        pytest.skip("numpy's BLAS is not a DYNAMIC_ARCH scipy-openblas")
    own = _core_name(library)
    probe = [sys.executable, __file__]
    digests = [
        sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-p", "no:hypothesispytest",
        "tests/test_digests.py",
    ]
    with ThreadPoolExecutor(max_workers=2) as pool:  # two children at a time
        cores: dict[str, str] = {}  # reported name -> a core type that selects it
        for core, run in zip(CANDIDATES, pool.map(lambda core: _run(probe, core), CANDIDATES)):
            if run.returncode < 0:  # killed by a signal: this CPU cannot run the core
                continue
            assert run.returncode == 0, run.stderr
            cores.setdefault(run.stdout.strip(), core)
        cores.pop(own, None)
        if not cores:
            pytest.skip(f"this CPU offers no OpenBLAS core besides {own}")
        runs = dict(zip(cores, pool.map(lambda core: _run(digests, core), cores.values())))
    failed = {name: run.stdout[-1500:] for name, run in runs.items() if run.returncode != 0}
    assert not failed, failed


if __name__ == "__main__":
    # prints this process's core; a small product first, so that a core this
    # CPU cannot run dies here, not in a digest
    np.ones((64, 64)) @ np.ones((64, 64))
    library = _openblas_library()
    print(_core_name(library) if library else "unknown (not a DYNAMIC_ARCH scipy-openblas)")
