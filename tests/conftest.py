import json

import numpy as np
import pytest

from otoclab.cli import main
from otoclab.evolution import diagonalize
from otoclab.fock import (
    Banded,
    FockDim,
    HihoParams,
    build_hiho,
    build_iho,
)

# the relative Hermiticity defect ``expect`` allows its operator
HERMITICITY_TOL = 1e-12

# Heavy diagonalizations are shared across the whole session.
_iho_cache = {}
_hiho_cache = {}


def dense(H: Banded) -> np.ndarray:
    """The full D x D matrix of a banded Hermitian operator."""
    D = H.shape[0]
    M = np.zeros((D, D), dtype=H.lower.dtype)
    for k, row in enumerate(H.lower):
        r = np.arange(D - k)
        M[r + k, r] = row[: D - k]
        M[r, r + k] = row[: D - k].conj()
    return M


def banded(M: np.ndarray) -> Banded:
    """Lower band of a Hermitian matrix, as wide as its farthest nonzero
    diagonal."""
    assert np.array_equal(M, M.conj().T), "banded() needs a Hermitian matrix"
    rows, cols = np.nonzero(M)
    u = int(np.max(np.abs(rows - cols), initial=0))
    D = M.shape[0]
    lower = np.zeros((u + 1, D), dtype=M.dtype)
    for k in range(u + 1):
        lower[k, : D - k] = np.diagonal(M, -k)
    return Banded(lower)


def hermiticity_defect(M: np.ndarray) -> float:
    """max |M - M^dag| relative to max |M| (0 for the zero matrix)."""
    scale = np.max(np.abs(M))
    if scale == 0.0:
        return 0.0
    return float(np.max(np.abs(M - M.conj().T)) / scale)


def expect(state: np.ndarray, M: np.ndarray) -> float:
    """Reference <psi|M|psi> for a dense Hermitian M; the (tiny) imaginary
    part is discarded."""
    assert state.shape[0] == M.shape[0], "state/operator dimension mismatch"
    assert hermiticity_defect(M) <= HERMITICITY_TOL, "expect() needs a Hermitian M"
    return float(np.vdot(state, M @ state).real)


def mean_photon(state: np.ndarray) -> float:
    """Reference <a^dag a> = sum_n n |c_n|^2 of one normalized state."""
    n = np.arange(state.shape[0])
    return float(np.sum(n * np.abs(state) ** 2))


@pytest.fixture(scope="session")
def iho_prop():
    def get(n_p):
        if n_p not in _iho_cache:
            _iho_cache[n_p] = diagonalize(build_iho(FockDim(n_p)))
        return _iho_cache[n_p]

    return get


@pytest.fixture(scope="session")
def hiho_prop():
    def get(n_p, gamma=3.0, g=0.04):
        key = (n_p, gamma, g)
        if key not in _hiho_cache:
            _hiho_cache[key] = diagonalize(
                build_hiho(FockDim(n_p), HihoParams(gamma, g))
            )
        return _hiho_cache[key]

    return get


@pytest.fixture(scope="session")
def reproduce_all(tmp_path_factory):
    """One in-process ``reproduce-all`` run, shared by every test that reads
    its checks or files: (exit code, report.json as a dict, output directory)."""
    out = tmp_path_factory.mktemp("repro") / "out"
    code = main(["reproduce-all", "--out", str(out)])
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    return code, report, out


def check_named(report: dict, name: str) -> dict:
    """The one check of a reproduce-all report with this name."""
    found = [c for c in report["checks"] if c["name"] == name]
    assert len(found) == 1, f"{name}: {len(found)} checks by that name"
    return found[0]
