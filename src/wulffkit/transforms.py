"""The spherical polar transform and its restrictions.

The polar of a body W is the set of directions q with q . w >= 0 for
every w in W — the nonnegative dual of W's cone, intersected with the
sphere.  On polyhedral cone caps the transform is exact: the dual
cone's extreme rays become the polar body's generators, and the
original generators become its support normals.
"""

import numpy as np

from . import body as body_mod
from . import cones
from .body import SphericalBody, contains, from_generators, is_wulff_relative
from .errors import (
    NonHemisphericalError,
    NotAWulffShapeError,
    PolarEmptyError,
)
from .geometry import as_vector


def polar_admissible(body):
    """Whether the polar set is nonempty.

    The support normals are the dual cone's generators, computed at
    construction, so admissibility is their nonemptiness.  (The
    feasibility-solve formulation — some nonzero q with q . g >= 0 for
    all generators — is available as oracles.nontrivial_dual_witness and
    is exercised against this in the tests.)
    """
    return body.normal_array.shape[0] > 0


def polar(body):
    """The polar body: support normals become generators and vice versa.

    The dual cone's extreme rays are recomputed here by double
    description rather than copied from the stored normals, so a
    double-polar round trip exercises the conversion twice.
    """
    if not polar_admissible(body):
        raise PolarEmptyError()
    rays, lin = cones.dual_cone_rays(body.generator_array)
    gens_out = cones.rays_with_lineality(rays, lin)
    if gens_out.shape[0] == 0:
        raise PolarEmptyError()
    # the original generators are exactly the irredundant constraints of
    # the dual cone (a generator implied by the others would not have
    # been extreme), so they are the polar's canonical support normals
    result = SphericalBody(gens_out, body.generator_array, _trusted=True)
    body_mod._check_cross_consistency(result)
    return result


def double_polar(body):
    """polar(polar(body)); on representable bodies this recovers the
    input (checked by the harness, not assumed here)."""
    return polar(polar(body))


def dual_wulff(body, p):
    """Polar transform restricted to Wulff shapes relative to p.

    The result is again a Wulff shape relative to p; that postcondition
    is asserted, not assumed.
    """
    if not is_wulff_relative(body, p):
        raise NotAWulffShapeError()
    result = polar(body)
    if not is_wulff_relative(result, p):
        raise AssertionError("polar of a Wulff shape failed the Wulff test")
    return result


def spherical_hull(points):
    """Spherical convex hull of a hemispherical point set.

    Hemisphericity (a common open half-space for the raw cone) is a
    precondition of the hull construction and is checked first.  The
    result is verified to be a fixed point of the double polar.
    """
    pts = list(points)
    if not pts:
        raise ValueError("need at least one point")
    G = np.array([as_vector(p) for p in pts], dtype=float)
    if cones.pointed_witness(cones.unitize(G)) is None:
        raise NonHemisphericalError(
            "points are not contained in any open hemisphere"
        )
    hull = from_generators(G)
    roundtrip = double_polar(hull)
    gap = body_mod.body_match_angle(hull, roundtrip)
    if not gap <= 1e-10:
        raise AssertionError(f"hull is not double-polar stable (gap {gap:.3e})")
    return hull


def polar_antitone_check(a, b):
    """For a subset pair a ⊆ b, report whether polar(b) ⊆ polar(a).

    The inclusion precondition is verified generator-by-generator and
    violations are errors, not False returns.
    """
    for g in a.generator_array:
        if not contains(b, g):
            raise ValueError("precondition failed: a is not a subset of b")
    if not (polar_admissible(a) and polar_admissible(b)):
        raise PolarEmptyError()
    pb = polar(b)
    pa = polar(a)
    return all(contains(pa, g) for g in pb.generator_array)
