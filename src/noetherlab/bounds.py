"""Trade-off inequalities between conservation-law deviation and unitarity.

Every bound is an evaluator returning a :class:`BoundCheck` with both sides
of the inequality; constants are computed from generator norms on the fly
(never hard-coded) so rescaled generators are handled automatically.
A violated check carries its (negative) slack instead of raising, so sweeps
can log near-misses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chan import QuantumChannel, covariance_residual
from .metrics import (
    GeneratorSet,
    deviation_avg,
    deviation_su2_closed,
    purity_condition_holds,
    unitarity_jamiolkowski,
    unitarity_su2_closed,
)
from .numkit import TOL
from .su2cov import CovariantMixture
# u1_structure_stats is unused here, but the benchmark's tracer test
# (perfbench/test_perfbench.py) expects it bound as bounds.u1_structure_stats.
from .u1cov import U1BlockChannel, u1_deviation, u1_structure_stats  # noqa: F401

__all__ = [
    "BoundCheck",
    "upper_bound_general",
    "lower_bound_multiplicity_free",
    "su2_bound_checks",
    "su2_bounds",
    "u1_cap",
    "u1_bound",
    "diamond_bound_given_value",
]


@dataclass(frozen=True, eq=False)
class BoundCheck:
    """One evaluated inequality lhs <= rhs (within tol_eq), at a point or
    elementwise over arrays of one shape: ``satisfied`` and ``slack`` are then
    arrays too."""

    name: str
    lhs: float | np.ndarray
    rhs: float | np.ndarray
    applicable: bool = True

    @classmethod
    def of(cls, name: str, lhs, rhs, applicable: bool = True) -> "BoundCheck":
        """The check of ``lhs <= rhs``; 0-d sides become floats, so a point's
        ``satisfied`` is a bool."""
        lhs, rhs = (float(x) if np.ndim(x) == 0 else x for x in (lhs, rhs))
        return cls(name=name, lhs=lhs, rhs=rhs, applicable=applicable)

    @property
    def satisfied(self):
        """lhs <= rhs + tol_eq, the acceptance rule of every bound."""
        return self.lhs <= self.rhs + TOL.tol_eq

    @property
    def slack(self):
        """The margin rhs - lhs; negative where the bound fails."""
        return self.rhs - self.lhs


def _trace_norm(h: np.ndarray) -> float:
    return float(np.sum(np.abs(np.linalg.eigvalsh(h))))


def _op_norm(h: np.ndarray) -> float:
    return float(np.max(np.abs(np.linalg.eigvalsh(h))))


def upper_bound_general(channel: QuantumChannel, gens: GeneratorSet) -> BoundCheck:
    """Deviation <= 2 n d (d-1) max_k (||J_out^k||_1 + ||J_in^k||_1)^2 (1 - u).

    Holds for any covariant channel with d_out <= d_in; for d_out > d_in it
    requires the maximally-mixed output purity condition, and the check is
    flagged not-applicable when that condition fails.
    """
    res = covariance_residual(channel, gens.j_in, gens.j_out)
    if res > TOL.tol_eq:
        raise ValueError(f"channel is not covariant: commutator residual {res:.2e}")
    applicable = True
    if channel.d_out > channel.d_in:
        applicable = purity_condition_holds(channel)
    d = channel.d_in
    norm = max(_trace_norm(np.asarray(b)) + _trace_norm(np.asarray(a))
               for a, b in zip(gens.j_in, gens.j_out))
    u = unitarity_jamiolkowski(channel)
    delta = deviation_avg(channel, gens)
    rhs = 2 * gens.n * d * (d - 1) * norm**2 * (1 - u)
    return BoundCheck.of("deviation_upper_general", delta, rhs, applicable=applicable)


def lower_bound_multiplicity_free(channel: QuantumChannel, gens: GeneratorSet,
                                  f_table: dict) -> BoundCheck:
    """sqrt(Deviation) >= K ||J|| (1 - u) (d-1) sqrt(d+1) / (2 d^(5/2)).

    ``f_table`` maps each extremal-channel label to its Heisenberg scaling
    coefficient f(label); K = min over nontrivial labels of |1 - f|.  Valid
    for equal input/output dimensions with multiplicity-free symmetry.
    """
    if channel.d_in != channel.d_out:
        raise ValueError("lower bound needs equal input and output dimensions")
    d = channel.d_in
    k_const = min(abs(1.0 - f) for label, f in f_table.items() if label != 0)
    j_norm = np.sqrt(gens.norm_in_sq())
    u = unitarity_jamiolkowski(channel)
    delta = deviation_avg(channel, gens)
    rhs = np.sqrt(delta)
    lhs = k_const * j_norm * (1 - u) * (d - 1) * np.sqrt(d + 1) / (2 * d**2.5)
    return BoundCheck.of("sqrt_deviation_lower_multiplicity_free", lhs, rhs)


def su2_bound_checks(j: float, u, delta) -> tuple[BoundCheck, BoundCheck]:
    """Both spin-j bounds on sqrt(Deviation) in terms of 1 - u:

    sqrt(2) j^(1/2) / (2j+1)^2 (1 - u) <= sqrt(Dev) <= 3 sqrt(2) j^(3/2) / (2j+1) (1 - u).

    ``u`` and ``delta`` may be scalars or arrays of one shape.
    """
    sqrt_delta = np.sqrt(delta)
    lower = np.sqrt(2.0) * j**0.5 / (2 * j + 1) ** 2 * (1 - u)
    upper = 3 * np.sqrt(2.0) * j**1.5 / (2 * j + 1) * (1 - u)
    return (BoundCheck.of("su2_sqrt_deviation_lower", lower, sqrt_delta),
            BoundCheck.of("su2_sqrt_deviation_upper", sqrt_delta, upper))


def su2_bounds(mix: CovariantMixture) -> tuple[BoundCheck, BoundCheck]:
    """Spin-system trade-off: both bounds on sqrt(Deviation) in terms of
    1 - u, evaluated with the exact closed forms (equal spins only)."""
    if mix.spin_in != mix.spin_out:
        raise ValueError("trade-off bounds require equal input and output spins")
    return su2_bound_checks(mix.spin_in.j, unitarity_su2_closed(mix), deviation_su2_closed(mix))


def u1_cap(d: int, g: int, width: int, delta, u) -> BoundCheck:
    """The energy-conservation cap for a d-level spectrum with pair degeneracy g:
    u <= 1 - g(d-g)/(d-1) sqrt(2/(d(d+1))) sqrt(Dev)/width.

    ``delta`` and ``u`` may be scalars or arrays of one shape.
    """
    coeff = g * (d - g) / (d - 1) * np.sqrt(2.0 / (d * (d + 1))) / width
    return BoundCheck.of("u1_unitarity_upper", u, 1.0 - coeff * np.sqrt(delta))


def u1_bound(ch: U1BlockChannel) -> BoundCheck:
    """Energy-conservation trade-off: unitarity is capped once the channel
    moves populations (see :func:`u1_cap`)."""
    spec = ch.spectrum
    delta = u1_deviation(spec, ch.population_matrix())
    return u1_cap(spec.d, spec.degeneracy(), spec.width, delta, unitarity_jamiolkowski(ch))


def diamond_bound_given_value(channel: QuantumChannel, gens: GeneratorSet,
                              diamond_distance: float) -> BoundCheck:
    """Deviation <= (diamond distance to a symmetric isometry)^2 times
    sum_k ||J_out^k||_inf^2, with the distance supplied by an external solver."""
    if diamond_distance < 0:
        raise ValueError("diamond distance must be nonnegative")
    delta = deviation_avg(channel, gens)
    rhs = diamond_distance**2 * sum(_op_norm(np.asarray(g)) ** 2 for g in gens.j_out)
    return BoundCheck.of("deviation_upper_diamond", delta, rhs)
