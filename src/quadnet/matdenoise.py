"""Optimal rotationally-invariant denoising of extensive-rank matrices.

Observation model: Y = S + sqrt(delta) * G with S a rotationally-invariant
signal matrix whose spectrum follows a PriorSpectrum law, and G a GOE matrix
(variance (1 + delta_ij)/d).  The Bayes-optimal rotationally-invariant
estimator keeps the eigenvectors of Y and shrinks each eigenvalue lam to

    f_delta(lam) = lam - 2 * delta * h_delta(lam),

where h_delta is the Hilbert transform of the spectral density of Y,
rho_delta = prior (+) semicircle(delta).  Its asymptotic mean squared error
per matrix entry (times d) is

    F_RIE(delta) = delta - (4 pi^2 / 3) delta^2 * int rho_delta^3,

equivalently delta - 4 delta^2 * int rho_delta h_delta^2.  `mmse` returns
the first form, which `state_evolution` shares; the tests check it against
the second (`mmse_forms`).  A `DenoiseSpec` is the density of rho_delta on
`freeprob`'s default grid, from which both forms are read; the shrinker
solves h_delta at each eigenvalue (`freeprob.hilbert`).
`sample_prior` draws S from its prior, for the Monte-Carlo checks and
GAMP's random initialization.
"""

import dataclasses

import numpy as np

from . import freeprob
from .freeprob import PriorSpectrum, SpectralDensity


class EigenFailure(RuntimeError):
    """Eigendecomposition of the observed matrix did not converge."""


@dataclasses.dataclass(frozen=True)
class DenoiseSpec:
    """The spectral density of the observation, rho_delta = prior (+)
    semicircle(delta), which fixes the prior and the noise level.

    It gives F_RIE (`mmse`) and the support intervals that `shrink` hands to
    `freeprob.hilbert`, which solves h at each eigenvalue.
    """

    rho: SpectralDensity

    @classmethod
    def create(cls, prior: PriorSpectrum, delta: float) -> "DenoiseSpec":
        return cls(rho=freeprob.density(prior, delta))

    @property
    def prior(self) -> PriorSpectrum:
        return self.rho.prior

    @property
    def delta(self) -> float:
        return self.rho.t


def shrink(spec: DenoiseSpec, lam):
    """Scalar shrinker f_delta(lam) = lam - 2 delta h_delta(lam).

    Accepts a scalar or an array of eigenvalues; defined on and off the
    support of rho_delta (outside, the Hilbert transform is the ordinary
    integral, evaluated from the real Stieltjes transform).
    """
    h = freeprob.hilbert(spec.prior, spec.delta, lam, dens=spec.rho)
    out = np.asarray(lam, dtype=float) - 2.0 * spec.delta * np.asarray(h)
    return float(out) if np.ndim(lam) == 0 else out


def denoise_matrix(spec: DenoiseSpec, R: np.ndarray) -> np.ndarray:
    """Apply the shrinker in the eigenbasis of a symmetric matrix R.

    R = U diag(lam) U^T maps to U diag(f_delta(lam)) U^T: eigenvectors are
    kept, eigenvalues are shrunk.  The output is symmetrized to remove
    floating-point asymmetry.
    """
    R = np.asarray(R, dtype=float)
    if R.ndim != 2 or R.shape[0] != R.shape[1]:
        raise ValueError(f"R must be square, got shape {R.shape}")
    try:
        evals, vecs = np.linalg.eigh(R)
    except np.linalg.LinAlgError as exc:
        raise EigenFailure(f"eigendecomposition failed: {exc}") from exc
    shrunk = shrink(spec, evals)
    out = (vecs * shrunk) @ vecs.T
    return 0.5 * (out + out.T)


# K in F_RIE(t) = t - K t^2 int rho_t^3
_K = 4.0 * np.pi**2 / 3.0


def _rie_error(t, cube):
    """F_RIE(t) = t - K t^2 C from C = int rho_t^3."""
    return t - _K * t**2 * cube


def mmse_forms(spec: DenoiseSpec) -> tuple[float, float]:
    """Both closed forms of the denoising MMSE, for cross-validation.

    Primary form: delta - (4 pi^2 / 3) delta^2 int rho^3.  Secondary form:
    delta - 4 delta^2 int rho h^2 with h = -Re g the Hilbert transform on
    the grid.  Their agreement validates the quadrature and those h values.
    """
    delta = spec.delta
    rho = spec.rho
    primary = mmse(spec)
    quad = rho.integrate([r * rg**2 for r, rg in zip(rho.rho, rho.re_g)])
    secondary = delta - 4.0 * delta**2 * quad
    return primary, secondary


def mmse(spec: DenoiseSpec) -> float:
    """Asymptotic denoising MMSE F_RIE(delta), the resolvent form: it reads
    int rho^3 only, so x and Re g of the density stay unformed."""
    return _rie_error(spec.delta, spec.rho.cube_integral())


# ----------------------------------------------------------------------------
# random matrices, the prior's and the GOE noise: GAMP's "sample"
# initialization, the CLI's Monte-Carlo cells and the tests
# ----------------------------------------------------------------------------


def sample_goe(d: int, rng: np.random.Generator) -> np.ndarray:
    """GOE draw: symmetric, off-diagonal variance 1/d, diagonal variance 2/d."""
    a = rng.normal(size=(d, d))
    return (a + a.T) / np.sqrt(2.0 * d)


def sample_prior(prior: PriorSpectrum, d: int, rng: np.random.Generator) -> np.ndarray:
    """S = W^T D W / m with W an m x d standard Gaussian matrix, m = round(kappa d),
    and D = I for the Marchenko-Pastur prior or m i.i.d. draws of the atom
    law of a compound-Poisson prior on its diagonal."""
    m = max(1, round(prior.kappa * d))
    w = rng.normal(size=(m, d))
    if freeprob._is_marchenko_pastur(prior):
        return w.T @ w / m
    values, weights = np.array(prior.atoms).T
    return (w.T * rng.choice(values, size=m, p=weights)) @ w / m


def sample_wishart(d: int, kappa: float, rng: np.random.Generator) -> np.ndarray:
    """`sample_prior` of the Marchenko-Pastur prior of aspect ratio kappa."""
    return sample_prior(PriorSpectrum.marchenko_pastur(kappa), d, rng)
