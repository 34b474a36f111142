"""The pencil route of the diagnostics' Gram blocks against the W route.

With 2b = m a positive integer, ``diagnostics._gram`` forms the leading
block of Lam^(-b) W Lam~^(2b) W' Lam^(-b) from the base eigenpairs and
the alt pencil's bands alone (Y = R A^k V_t Lam_t^(-b), A = M^-1 K~).
The oracle is the W route it replaced on that path: the alt eigensolve,
W = V' M V~ from ``cross_gram`` and B = Lam^(-b) W Lam~^(b). A
long-double evaluation of the same block from the same float64 V and
bands says which float64 route carries their difference: its own
roundoff is far below either's, and it shares the pencil route's inputs,
so its distance to the W route includes the alt eigenvectors' errors.
"""

import json

import numpy as np
import pytest

from wmlab import cli, diagnostics
from wmlab.diagnostics import cross_gram, hs_curve, operator_pair
from wmlab.fem1d import DIRICHLET, assemble_aL, band_matmul, build_basis
from wmlab.model_config import builtin_model
from wmlab.spectral import _dsbgvd_eigenvalues, generalized_eig

N = 600
PAIRS = [("base41", "model2_41"), ("base41", "model1_41"), ("base42", "model2_42")]


def _ops(name, n):
    model = builtin_model(name, 1)
    return assemble_aL(build_basis(n, 1, DIRICHLET), model.a, model.kappa2)


@pytest.fixture(scope="module", params=PAIRS, ids=["/".join(p) for p in PAIRS])
def routes(request):
    """(pencil pair, W pair, base eigenpairs, alt pencil) at N = 600."""
    base, alt = (_ops(name, N) for name in request.param)
    dec = generalized_eig(base)
    w_pair = cross_gram(dec, generalized_eig(alt), base.M_band)
    return operator_pair(dec, alt), w_pair, dec, alt


def longdouble_gram(dec, alt, m):
    """Lam^(-m/2) V' M A^m V Lam^(-m/2), A = M^-1 K~, in long double.

    X = A^k V Lam^(-m/2) with k = m // 2, by banded Cholesky solves with
    M in extended precision; the block is X' M X for even m and X' K~ X
    for odd m. Only the upper triangle is formed, by column blocks.
    """
    K = alt.K_band.astype(np.longdouble)
    Mb = alt.M_band.astype(np.longdouble)
    M = alt.M.astype(np.longdouble)
    p, n = alt.bandwidth, M.shape[0]
    L = np.zeros((n, n), dtype=np.longdouble)
    for j in range(n):
        lo = max(0, j - p)
        L[j, j] = np.sqrt(M[j, j] - L[j, lo:j] @ L[j, lo:j])
        for i in range(j + 1, min(n, j + p + 1)):
            L[i, j] = (M[i, j] - L[i, lo:j] @ L[j, lo:j]) / L[j, j]

    def solve(Y):
        for i in range(n):  # L z = rhs
            lo = max(0, i - p)
            Y[i] = (Y[i] - L[i, lo:i] @ Y[lo:i]) / L[i, i]
        for i in range(n - 1, -1, -1):  # L' y = z
            hi = min(n, i + p + 1)
            Y[i] = (Y[i] - L[i + 1 : hi, i] @ Y[i + 1 : hi]) / L[i, i]
        return Y

    lam = dec.eigenvalues.astype(np.longdouble)
    X = dec.eigenvectors.astype(np.longdouble) * lam ** (-np.longdouble(m) / 2)
    for _ in range(m // 2):
        X = solve(band_matmul(K, X))
    Z = band_matmul(Mb if m % 2 == 0 else K, X)
    G = np.zeros((n, n), dtype=np.longdouble)
    for a in range(0, n, 150):
        G[: a + 150, a : a + 150] = X[:, : a + 150].T @ Z[:, a : a + 150]
    return np.triu(G)


@pytest.mark.parametrize("m", [1, 2])
def test_pencil_route_matches_the_w_route_to_roundoff(routes, m):
    pencil, w_pair, _, _ = routes
    G = np.triu(diagnostics._gram(pencil, m / 2, N))
    oracle = np.triu(diagnostics._gram(w_pair, m / 2, N))
    # measured: 3.4e-14 to 1.5e-13 of max |G| on these three pairs
    assert np.max(np.abs(G - oracle)) <= 1e-12 * np.max(np.abs(oracle))


# route difference and pencil-route error against long double, in units
# of max |G|, measured on these three pairs at N = 600:
#   m = 3: 1.0e-12 to 1.3e-11, and 3.0e-13 to 2.9e-12;
#   m = 4: 2.9e-11 to 1.3e-9, and 3.8e-12 to 1.5e-10.
# A^m amplifies the roundoff of V and V~ toward the top of the spectrum.
HIGH_ORDER_TOL = {3: (5e-11, 1e-11), 4: (5e-9, 5e-10)}


@pytest.mark.parametrize("m", [3, 4])
def test_pencil_route_at_higher_orders_is_nearer_long_double(routes, m):
    pencil, w_pair, dec, alt = routes
    G = np.triu(diagnostics._gram(pencil, m / 2, N))
    oracle = np.triu(diagnostics._gram(w_pair, m / 2, N))
    exact = longdouble_gram(dec, alt, m)
    scale = float(np.max(np.abs(exact)))
    route_tol, pencil_tol = HIGH_ORDER_TOL[m]
    route = np.max(np.abs(G - oracle)) / scale
    pencil_err = float(np.max(np.abs(G - exact))) / scale
    w_err = float(np.max(np.abs(oracle - exact))) / scale
    assert route <= route_tol
    assert pencil_err <= pencil_tol
    # the W route carries most of the difference (measured ratio <= 0.29)
    assert pencil_err <= 0.5 * w_err


def test_lam_alt_from_dsbgvd_matches_the_rayleigh_quotients():
    # the builtin alternative models as diagnose's pencils, at N = 1200;
    # measured: 5.1e-13 to 2.8e-12
    for name in ("model1_41", "model2_41", "model1_42", "model2_42"):
        ops = _ops(name, 1200)
        got = _dsbgvd_eigenvalues(ops.K_band, ops.M_band)
        ref = generalized_eig(ops).eigenvalues
        assert np.max(np.abs(got - ref) / ref) <= 1e-9, name


# the diagnose runs of the byte-identity list in CHANGES.md: config
# overrides and the classification each run gave with the W route
LISTED_RUNS = [
    ({"alt_model": {"name": "model2_41", "beta": 1}, "N": 300}, "non_compact"),
    ({"alt_model": {"name": "model1_41", "beta": 1}, "N": 500, "cm_beta": 1.0},
     "HS_stable"),
    ({"alt_model": {"name": "model2_41", "beta": 1}, "N": 400, "gamma": 0.5, "c": 2.0,
      "cm_beta": 0.75}, "non_compact"),
    ({"alt_model": {"name": "model2_41", "beta": 1, "delta": 10}, "N": 1200,
      "truncations": [150, 300, 600, 1200], "cm_beta": 1.0}, "non_compact"),
]


@pytest.mark.parametrize("overrides, expected", LISTED_RUNS, ids=["N300", "N500", "N400", "N1200"])
def test_listed_diagnose_runs_keep_their_classification(tmp_path, overrides, expected):
    config = tmp_path / "diagnose.json"
    config.write_text(json.dumps({
        "base_model": {"name": "base41", "beta": 1}, "out": str(tmp_path / "o"), **overrides
    }))
    assert cli.main(["diagnose", "--config", str(config)]) == 0
    got = json.loads((tmp_path / "o" / "diagnose.json").read_text())
    assert got["classification"] == expected
    # and the W route, on the same eigenpairs, reads the same numbers
    cfg, _ = cli.load_config("diagnose", str(config), {})
    base = cli._resolve_model(cfg["base_model"])
    alt = cli._resolve_model(cfg["alt_model"])
    truncations = [t for t in cfg["truncations"] if t <= cfg["N"]]
    basis = build_basis(cfg["N"], 1, DIRICHLET)
    ops_base = assemble_aL(basis, base.a, base.kappa2)
    ops_alt = assemble_aL(basis, alt.a, alt.kappa2)
    w_pair = cross_gram(generalized_eig(ops_base), generalized_eig(ops_alt), ops_base.M_band)
    ref = hs_curve(w_pair, cfg["gamma"], cfg["c"], truncations)
    assert ref.classification == expected
    np.testing.assert_allclose(got["frobenius"], ref.frobenius, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(got["opnorm"], ref.opnorm, rtol=1e-12, atol=0.0)
    # smin and the 90th-percentile singular value are resolved to
    # roundoff relative to the largest
    atol = 1e-12 * ref.opnorm[-1]
    np.testing.assert_allclose(got["smin"], ref.smin, rtol=0.0, atol=atol)
    np.testing.assert_allclose(got["tail_ratio"], ref.tail_ratio, rtol=0.0, atol=1e-12)
