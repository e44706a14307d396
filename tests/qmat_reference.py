"""Reference matrix maps that only the tests use: the conjugation
superoperator of a unitary, the von Neumann entropy and the linear Choi
purity of a dense superoperator."""
from __future__ import annotations

import numpy as np

from frameport.qmat import DensityMatrix, Superoperator, UnitaryMatrix, \
    _entropy, choi, spectrum_purities


def conjugation_superoperator(U: UnitaryMatrix) -> Superoperator:
    """Superoperator of sigma -> U sigma U+."""
    m = U.mat
    return Superoperator(np.kron(m.conj(), m), tp=True, cp=True)


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """-sum lambda ln lambda in nats, with 0 ln 0 := 0."""
    return float(_entropy(rho.eigenvalues()))


def linear_map_purity(S: Superoperator) -> float:
    """Linear Choi purity Tr(rho_T^2)."""
    return float(spectrum_purities(choi(S).rho.eigenvalues())[1])
