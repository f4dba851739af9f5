"""The benchmark's workloads: seeded op lists driven through wulffkit's API.

An op is one unit of user-visible work: it draws its inputs from
``numpy.random.default_rng([seed, t])``, calls the package, checks the
result the way ``tests/test_acceptance.py`` does, and returns an
``OpResult``.  The program only ever sees the generated inputs.

Every call goes through a module attribute looked up at call time
(``metric.hausdorff_with_bound``, not a name imported once), so the
tracer's wrappers see the benchmark's own calls as well as the
package's internal ones.
"""

import dataclasses

import numpy as np

from wulffkit import harness, metric, transforms

#: sphere dimension of every workload (bodies live on S^2 in R^3)
DIM = 2

#: isometry gap allowed on the exact path
EXACT_TOL = 1e-8

#: sampling resolution of the bi-Lipschitz trials
RESOLUTION = 0.01

# The kind pairs of the bi-Lipschitz suite, fixed here so that a change to
# the harness cannot change the benchmark's op mix.
KIND_PAIRS = (
    ("hull", "hull"),
    ("hull", "arc"),
    ("wide_cap", "hull"),
    ("arc", "arc"),
    ("point", "hull"),
)

_POLE = harness.pole_axis(DIM)


@dataclasses.dataclass(frozen=True)
class OpResult:
    """Outcome of one op.

    ok: the op's correctness check passed.
    values: the op's outputs, hashed into the run's digest.
    exact: distance results returned on the exact route.
    distances: distance results computed (the base of ``exact``).
    """

    ok: bool
    values: tuple
    exact: int
    distances: int


@dataclasses.dataclass(frozen=True)
class Workload:
    """A named op and the number of ops in one pass of its list."""

    name: str
    op: object
    ops: int


def _rng(seed, t):
    return np.random.default_rng([seed, t])


def _wulff(rng):
    # the shape draw of the isometry suite
    return harness.gen_wulff(
        _POLE, int(rng.integers(DIM + 2, DIM + 8)), rng.uniform(0.1, 1.2),
        int(rng.integers(2**63)),
    )


def exact_wulff_op(t, seed):
    """One isometry trial: primal and polar Hausdorff distance agree exactly."""
    rng = _rng(seed, t)
    w1 = _wulff(rng)
    w2 = _wulff(rng)
    h, _, path = metric.hausdorff_with_bound(w1, w2)
    hd, _, path_d = metric.hausdorff_with_bound(transforms.polar(w1), transforms.polar(w2))
    exact = (path == "exact") + (path_d == "exact")
    ok = exact == 2 and abs(float(hd) - float(h)) <= EXACT_TOL
    return OpResult(ok, (float(h), float(hd)), exact, 2)


def mixed_convex_op(t, seed):
    """One bi-Lipschitz trial: the polar distance stays in [h/2, 2h]."""
    rng = _rng(seed, t)
    kind_a, kind_b = KIND_PAIRS[t % len(KIND_PAIRS)]
    a = harness.gen_convex_body(_POLE, kind_a, rng)
    b = harness.gen_convex_body(_POLE, kind_b, rng)
    h, e_primal, path = metric.hausdorff_with_bound(a, b, RESOLUTION)
    hd, e_dual, path_d = metric.hausdorff_with_bound(
        transforms.polar(a), transforms.polar(b), RESOLUTION
    )
    excess = max(0.5 * float(h) - float(hd), float(hd) - 2.0 * float(h))
    err = 2.0 * e_primal + e_dual
    allowed = EXACT_TOL if not err else 2.0 * RESOLUTION
    ok = excess <= EXACT_TOL + err and excess <= allowed
    exact = (path == "exact") + (path_d == "exact")
    return OpResult(ok, (float(h), float(hd), err), exact, 2)


# Pass sizes keep one pass near the run length on a 2-core x86 machine at
# the commit that defined the benchmark, with at least 100 ops so that ten
# latency samples lie beyond the 90th percentile.  mixed_convex needs a
# multiple of len(KIND_PAIRS) to keep its op mix fixed.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("exact_wulff", exact_wulff_op, 1400),
        Workload("mixed_convex", mixed_convex_op, 140),
    )
}
