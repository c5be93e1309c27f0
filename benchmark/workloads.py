"""Inputs of the benchmark workloads and the closed forms they are checked against.

Every input is one `wigcheck` command line.  Each analyze input carries the
figures its report must show, computed here from closed forms with numpy
alone: the classification, the covariance matrix, the fourth momentum moment
and a Wigner function (or, for Narcowich-O'Connell, its symplectic Fourier
transform) from which a KLM witness is re-evaluated.  hbar = 1 throughout.
"""

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

HBAR = 1.0
STATE = "consistent_with_state"
NOT_STATE = "proven_not_a_state"


@dataclass
class Case:
    """One command of an operation and what its report must show."""

    name: str
    argv: list
    classification: str | None = None
    sigma: np.ndarray | None = None  # None: Riemann sums of `wigner` on the report's axes
    p4: float | None = None
    wigner: Callable | None = None   # (xs, ps) -> grid values
    fsw: Callable | None = None      # closed-form symplectic Fourier transform (x, p) -> value
    hardy: str | None = None         # "vacuum": product within 5 % of 1; "excited": below 1

    @property
    def exit_code(self):
        return 2 if self.classification == NOT_STATE else 0


# --- closed forms -----------------------------------------------------------

def fock_wigner(n, lam=1.0):
    """lam^2 W_n(lam x, lam p) with W_n = (-1)^n/(pi hbar) exp(-r^2/hbar) L_n(2 r^2/hbar)."""
    coef = np.zeros(n + 1)
    coef[n] = 1.0

    def grid(xs, ps):
        r2 = lam**2 * (xs[:, None] ** 2 + ps[None, :] ** 2) / HBAR
        lag = np.polynomial.laguerre.lagval(2.0 * r2, coef)
        return lam**2 * (-1) ** n / (np.pi * HBAR) * np.exp(-r2) * lag
    return grid


def gaussian_wigner(sigma):
    inv = np.linalg.inv(sigma)
    norm = 1.0 / (2.0 * np.pi * np.sqrt(np.linalg.det(sigma)))

    def grid(xs, ps):
        x, p = xs[:, None], ps[None, :]
        return norm * np.exp(-0.5 * (inv[0, 0] * x * x + 2 * inv[0, 1] * x * p + inv[1, 1] * p * p))
    return grid


def mixture_of(*parts):
    def grid(xs, ps):
        return sum(weight * f(xs, ps) for weight, f in parts)
    return grid


def cosine_bump(radius):
    """cos^2(pi r / 2R) on the disk r < R, normalized to unit Riemann sum on the grid."""
    def grid(xs, ps):
        r = np.hypot(xs[:, None], ps[None, :])
        vals = np.where(r < radius, np.cos(0.5 * np.pi * r / radius) ** 2, 0.0)
        return vals / (vals.sum() * (xs[1] - xs[0]) * (ps[1] - ps[0]))
    return grid


def no_fsw(alpha, beta):
    """F_sigma W(x, p) of the Narcowich-O'Connell function.

    Its transform with kernel exp(i(u x' + v p')) is
    (1 - alpha u^2/2 - beta v^2/2) exp(-(alpha^2 u^4 + beta^2 v^4)); the
    symplectic kernel exp(i(p x' - x p')) takes (u, v) = (p, -x).
    """
    def value(x, p):
        return (1 - 0.5 * alpha * p * p - 0.5 * beta * x * x) * np.exp(-(alpha**2 * p**4 + beta**2 * x**4))
    return value


def fock_sigma(n, lam=1.0):
    return (n + 0.5) * HBAR / lam**2 * np.eye(2)


def fock_p4(n, lam=1.0):
    return 0.75 * (2 * n * n + 2 * n + 1) * HBAR**2 / lam**4


def rotated(sigma, theta):
    c, s = np.cos(theta), np.sin(theta)
    rot = np.array([[c, -s], [s, c]])
    return rot @ sigma @ rot.T


# --- workloads --------------------------------------------------------------

def _spec(obj):
    return json.dumps(obj, separators=(",", ":"))


def battery_cases():
    fock0 = {"type": "fock", "n": 0}
    fock1 = {"type": "fock", "n": 1}
    squeezed = np.diag([1.0, 0.25])
    mixture = {"type": "mixture", "components": [{"weight": 0.5, "state": fock0},
                                                 {"weight": 0.5, "state": fock1}]}
    return [
        Case("vacuum", ["analyze", _spec(fock0)], STATE, fock_sigma(0), fock_p4(0),
             wigner=fock_wigner(0)),
        Case("fock01-mixture", ["analyze", _spec(mixture)], STATE,
             0.5 * (fock_sigma(0) + fock_sigma(1)), 0.5 * (fock_p4(0) + fock_p4(1)),
             wigner=mixture_of((0.5, fock_wigner(0)), (0.5, fock_wigner(1)))),
        Case("squeezed", ["analyze", _spec({"type": "gaussian", "mean": [0, 0],
                                            "cov": squeezed.tolist()})],
             STATE, squeezed, 3 * squeezed[1, 1] ** 2, wigner=gaussian_wigner(squeezed)),
        Case("fock1-x1.2", ["analyze", _spec({**fock1, "rescale": 1.2})], NOT_STATE,
             fock_sigma(1, 1.2), fock_p4(1, 1.2), wigner=fock_wigner(1, 1.2)),
        Case("bump", ["analyze", _spec({"type": "bump", "radius": 1.0, "profile": "cosine"})],
             NOT_STATE, wigner=cosine_bump(1.0)),
        Case("vacuum-x1.5", ["analyze", _spec({**fock0, "rescale": 1.5})], NOT_STATE,
             fock_sigma(0, 1.5), fock_p4(0, 1.5), wigner=fock_wigner(0, 1.5)),
        Case("hardy-fock0", ["hardy", _spec(fock0)], hardy="vacuum"),
        Case("hardy-fock1", ["hardy", _spec(fock1)], hardy="excited"),
    ]


def no_cases():
    alpha = beta = 0.5
    return [Case("narcowich-oconnell",
                 ["analyze", _spec({"type": "narcowich-oconnell", "alpha": alpha, "beta": beta})],
                 NOT_STATE, np.diag([alpha, beta]), -24 * beta**2, fsw=no_fsw(alpha, beta))]


# Square axes on [-9, 9] with 512 points: dx*dp*n = 0.63, far from the
# DFT-conjugate pi*hbar, so no FFT shortcut applies to these grids.
MANIFEST_AXIS = {"min": -9.0, "max": 9.0, "count": 512}


@dataclass
class Manifest:
    """A grid the set-up writes through wigcheck, and the command that loads it."""

    case: Case
    path: Path
    values: np.ndarray
    csv: bool


def manifest_inputs(directory):
    """The five manifest-512 grids; `csv` says whether the values go to a CSV file."""
    squeezed = rotated(np.diag([2.0, 0.125]), 0.4)
    thermal = np.eye(2)
    sub_vacuum = 0.4 * np.eye(2)
    plan = [
        ("fock2", STATE, fock_sigma(2), fock_p4(2), fock_wigner(2), True),
        ("thermal", STATE, thermal, 3.0, gaussian_wigner(thermal), True),
        ("squeezed-rotated", STATE, squeezed, 3 * squeezed[1, 1] ** 2,
         gaussian_wigner(squeezed), True),
        ("sub-vacuum", NOT_STATE, sub_vacuum, 3 * 0.4**2, gaussian_wigner(sub_vacuum), False),
        ("fock1-x1.2", NOT_STATE, fock_sigma(1, 1.2), fock_p4(1, 1.2), fock_wigner(1, 1.2), False),
    ]
    axis = np.linspace(MANIFEST_AXIS["min"], MANIFEST_AXIS["max"], MANIFEST_AXIS["count"])
    out = []
    for name, cls, sigma, p4, wigner, csv in plan:
        path = Path(directory) / f"{name}.json"
        spec = _spec({"type": "grid", "manifest": str(path)})
        case = Case(name, ["analyze", spec], cls, sigma, p4, wigner=wigner)
        out.append(Manifest(case, path, wigner(axis, axis), csv))
    return out

