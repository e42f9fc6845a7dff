"""Inequality checkers over randomized instance sweeps.

Each checker evaluates one theorem-backed inequality between numbers (the
Schatten ratios ratio_p and ratio_q, the rank ratio, sigma_max and d) and
reports lhs, rhs and the slack rhs - lhs; a pass is slack >= -RATIO_TOL
(-SINGULAR_TOL for the singular bound), read when the checker runs. A number
that is not finite and >= 0, or a d that is not an integer >= 1, raises
InvalidParameters. The ratios may come from one (tuple, subspace) pair or be
minima over subspaces, each taken at its own witness. The sweep reduces each
instance's (d, k) restriction spectrum once: two Schatten sums, one rank count
and one maximum. The inequalities are theorems for valid bistochastic tuples,
so a failing instance is an implementation bug; it is serialized in full for
replay.

The sweep works in blocks of consecutive instances, at most
linalg.BATCH_ENTRIES complex Ginibre entries each (a larger instance is a
block of its own). A block draws every instance from its substream first,
then runs one phase-fixed QR per shape (the n x n unitaries of equal n, the
n x k isometries of equal (n, k)), takes each instance's spectrum from its
own (d, n, n) slice and calls the checkers on each instance in order. Every
unitary, basis and spectrum has the bits of the instance drawn alone, so the
report depends neither on the block cap nor on the grouping.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import linalg
# haar_unitary, haar_isometry, expansion_ratio_sp, expansion_ratio_dim and
# restriction_singular_values are not called here; they stay bound in this
# module because bench/tracing.py wraps them by attribute.
from .channels import (  # noqa: F401
    BistochasticTuple,
    Subspace,
    check_orthonormal,
    expansion_ratio_dim,
    expansion_ratio_sp,
    rank_numerator,
    restriction_singular_values,
    restriction_spectra,
    sp_numerator,
)
from .errors import InstanceTooLarge, InvalidExponentOrder, InvalidParameters
from .linalg import (  # noqa: F401
    _check_exponent,
    _ginibre,
    _phase_fixed_qr,
    as_count,
    as_integers,
    as_matrix,
    as_numbers,
    batches,
    haar_isometry,
    haar_unitary,
    substream,
)

RATIO_TOL = 1e-9
SINGULAR_TOL = 1e-8
MAX_TUPLE_BYTES = 1 << 30


@dataclass
class InequalityReport:
    checker: str
    lhs: float
    rhs: float
    slack: float
    passed: bool
    instance: dict = field(default_factory=dict)


def _check_order(p: float, q: float):
    """p >= q >= 1 (InvalidExponentOrder), then both finite (InvalidExponent)."""
    if p < q:
        raise InvalidExponentOrder(f"need p >= q, got p={p}, q={q}")
    if q < 1:
        raise InvalidExponentOrder(f"need q >= 1, got q={q}")
    _check_exponent(p)
    _check_exponent(q)


def _check_values(**values):
    """Each value a finite number >= 0 (NaN fails the comparison)."""
    for name, x in values.items():
        try:
            if 0 <= x < np.inf:
                continue
        except (TypeError, ValueError):  # a string, a complex number, an array
            pass
        raise InvalidParameters(f"{name} must be a finite number >= 0, got {x!r}")


def _report(checker, lhs, rhs, tol, instance):
    slack = rhs - lhs
    return InequalityReport(checker, lhs, rhs, slack, slack >= -tol, instance or {})


def check_ratio_scaling(ratio_p, ratio_q, d, p, q, instance=None) -> InequalityReport:
    """ratio_p <= d^((p-q)/2) * ratio_q for p >= q >= 1."""
    _check_order(p, q)
    _check_values(ratio_p=ratio_p, ratio_q=ratio_q)
    rhs = as_count(d, "d", 1) ** ((p - q) / 2.0) * ratio_q
    return _report("ratio_scaling", ratio_p, rhs, RATIO_TOL, instance)


def check_ratio_power(ratio_p, ratio_q, p, q, instance=None) -> InequalityReport:
    """ratio_q <= ratio_p^(q/p) for p >= q >= 1 (the Hoelder chain)."""
    _check_order(p, q)
    _check_values(ratio_p=ratio_p, ratio_q=ratio_q)
    return _report("ratio_power", ratio_q, ratio_p ** (q / p), RATIO_TOL, instance)


def check_singular_bound(sigma_max, d, instance=None) -> InequalityReport:
    """max_i sigma_max(restriction of B_i) <= sqrt(d)."""
    _check_values(sigma_max=sigma_max)
    rhs = float(np.sqrt(as_count(d, "d", 1)))
    return _report("singular_bound", sigma_max, rhs, SINGULAR_TOL, instance)


def check_rank_relation(ratio_p, rank_ratio, d, p, instance=None) -> InequalityReport:
    """ratio_p <= d^(p/2) * rank_ratio."""
    _check_exponent(p)
    _check_values(ratio_p=ratio_p, rank_ratio=rank_ratio)
    rhs = as_count(d, "d", 1) ** (p / 2.0) * rank_ratio
    return _report("rank_relation", ratio_p, rhs, RATIO_TOL, instance)


CHECKERS = ("ratio_scaling", "ratio_power", "singular_bound", "rank_relation")


@dataclass
class SweepConfig:
    """Instance ranges; a (d_max, n_max, n_max) complex128 tuple above
    MAX_TUPLE_BYTES (1 GiB) raises InstanceTooLarge before anything is drawn."""

    instances: int = 1000
    n_range: tuple = (4, 16)
    d_range: tuple = (2, 5)
    p_range: tuple = (1.0, 6.0)
    seed: int = 0

    def __post_init__(self):
        self.instances = as_count(self.instances, "instances")
        self.seed = as_count(self.seed, "seed")
        for name, read in (("n_range", as_integers), ("d_range", as_integers),
                           ("p_range", as_numbers)):
            pair = read(getattr(self, name), name)
            if pair.shape != (2,):
                raise InvalidParameters(f"{name} must be a pair, got {getattr(self, name)!r}")
            setattr(self, name, tuple(pair.tolist()))
        (n_min, n_max), (d_min, d_max), (p_min, p_max) = self.n_range, self.d_range, self.p_range
        if not 2 <= n_min <= n_max:
            raise InvalidParameters(f"need 2 <= n_min <= n_max, got n range {self.n_range}")
        if not 1 <= d_min <= d_max:
            raise InvalidParameters(f"need 1 <= d_min <= d_max, got d range {self.d_range}")
        if not 1 <= p_min <= p_max < np.inf:  # NaN fails every comparison
            raise InvalidParameters(
                f"need finite 1 <= p_min <= p_max, got p range {self.p_range}"
            )
        if float(d_max) * float(n_max) ** 2 * 16 > MAX_TUPLE_BYTES:
            raise InstanceTooLarge(f"a d={d_max}, n={n_max} tuple exceeds {MAX_TUPLE_BYTES} bytes")


def _draw(cfg: SweepConfig, index: int):
    """Descriptor and Ginibre draws of one instance: the d n x n unitary
    draws, then the n x k isometry draw."""
    rng = substream(cfg.seed, index)
    n = int(rng.integers(cfg.n_range[0], cfg.n_range[1] + 1))
    d = int(rng.integers(cfg.d_range[0], cfg.d_range[1] + 1))
    k = int(rng.integers(1, n // 2 + 1))
    lo, hi = cfg.p_range
    a, b = rng.uniform(lo, hi, size=2)
    p, q = float(max(a, b)), float(min(a, b))
    descriptor = {"index": index, "n": n, "d": d, "k": k, "p": p, "q": q, "seed": cfg.seed}
    return descriptor, _ginibre(rng, (d, n, n)), _ginibre(rng, (n, k))


def _draw_instance(cfg: SweepConfig, index: int):
    """Instance ``index`` alone, bit-identical to the one the sweep checks."""
    desc, z, w = _draw(cfg, index)
    t = BistochasticTuple(_phase_fixed_qr(z))
    v = Subspace(_phase_fixed_qr(w))
    return t, v, desc["p"], desc["q"], desc


def _groups(keys) -> dict:
    """key -> positions holding it, both in first-seen order."""
    out = {}
    for i, key in enumerate(keys):
        out.setdefault(key, []).append(i)
    return out


def _spectra(block: list) -> list:
    """The (d, k) restriction spectrum of each (descriptor, unitary draws,
    isometry draw) of a block: one QR per shape, one spectrum per instance."""
    bases = {}
    for members in _groups((desc["n"], desc["k"]) for desc, _, _ in block).values():
        v = as_matrix(_phase_fixed_qr(np.stack([block[i][2] for i in members])), "bases", (3,))
        check_orthonormal(v)
        bases.update(zip(members, v))
    spectra = [None] * len(block)
    for n, members in _groups(desc["n"] for desc, _, _ in block).items():
        draws = [block[i][1] for i in members]
        u = np.concatenate(draws) if len(draws) > 1 else draws[0]
        # QR in place, one run of batches a call, so the workspace of a large
        # instance stays small
        for run in batches(len(u), n * n):
            u[run] = _phase_fixed_qr(u[run])
        as_matrix(u, "unitaries", (3,))
        for i, unitaries in zip(members, np.split(u, np.cumsum([len(z) for z in draws[:-1]]))):
            spectra[i] = restriction_spectra(unitaries, bases[i])
    return spectra


def _blocks(cfg: SweepConfig):
    """Consecutive drawn instances, at most linalg.BATCH_ENTRIES entries a
    block unless one instance alone holds more."""
    block, entries = [], 0
    for index in range(cfg.instances):
        drawn = _draw(cfg, index)
        size = drawn[1].size + drawn[2].size
        if block and entries + size > linalg.BATCH_ENTRIES:
            yield block
            block, entries = [], 0
        block.append(drawn)
        entries += size
    if block:
        yield block


def _check_instance(desc: dict, s: np.ndarray) -> list:
    """The four checker reports of one instance's (d, k) spectrum, reduced
    once to ratio_p, ratio_q, the rank ratio and sigma_max. The checkers are
    called through module globals, so a wrapper installed on one
    (bench/tracing.py) sees every call."""
    p, q = desc["p"], desc["q"]
    d, dk = len(s), float(s.size)
    ratio_p, ratio_q = sp_numerator(s, p) / dk, sp_numerator(s, q) / dk
    rank_ratio = rank_numerator(s) / dk
    return [
        check_ratio_scaling(ratio_p, ratio_q, d, p, q, instance=desc),
        check_ratio_power(ratio_p, ratio_q, p, q, instance=desc),
        check_singular_bound(float(s[:, 0].max()), d, instance=desc),
        check_rank_relation(ratio_p, rank_ratio, d, p, instance=desc),
    ]


def _serialize_failure(cfg: SweepConfig, report: InequalityReport) -> dict:
    from .serialize import tuple_to_json, matrix_to_json

    t, v, _, _, desc = _draw_instance(cfg, report.instance["index"])
    return {
        "descriptor": desc,
        "lhs": report.lhs,
        "rhs": report.rhs,
        "slack": report.slack,
        "tuple": tuple_to_json(t),
        "subspace_basis": matrix_to_json(v.basis),
    }


def sweep(cfg: SweepConfig) -> dict:
    """Run every checker over the generated instance set, in instance order."""
    reports = {name: [] for name in CHECKERS}
    for block in _blocks(cfg):
        for (desc, _, _), s in zip(block, _spectra(block)):
            for r in _check_instance(desc, s):
                reports[r.checker].append(r)

    checker_rows = []
    for name in CHECKERS:
        failures = [r for r in reports[name] if not r.passed]
        checker_rows.append(
            {
                "checker": name,
                "total": len(reports[name]),
                "failures": len(failures),
                "worst_slack": min((r.slack for r in reports[name]), default=None),
                "failing_instances": [_serialize_failure(cfg, r) for r in failures],
            }
        )
    total_failures = sum(row["failures"] for row in checker_rows)
    return {
        "instances": cfg.instances,
        "seed": cfg.seed,
        "n_range": list(cfg.n_range),
        "d_range": list(cfg.d_range),
        "p_range": list(cfg.p_range),
        "failures_total": total_failures,
        "all_pass": total_failures == 0,
        "checkers": checker_rows,
    }
