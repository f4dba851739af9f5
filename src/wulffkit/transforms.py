"""The spherical polar transform and its restrictions.

The polar of a body W is the set of directions q with q . w >= 0 for
every w in W — the nonnegative dual of W's cone, intersected with the
sphere.  On polyhedral cone caps the transform is exact: the dual
cone's extreme rays become the polar body's generators, and the
original generators become its support normals.
"""

from . import kernels
from .body import (
    SphericalBody,
    body_match_angle,
    canonicalize,
    from_generators,
    is_hemispherical,
    is_wulff_relative,
)
from .errors import (
    DimensionMismatchError,
    NonHemisphericalError,
    NotAWulffShapeError,
    PolarEmptyError,
)
from .geometry import MEMBERSHIP_TOL


def polar_admissible(body):
    """Whether the polar set is nonempty.

    The support normals are the dual cone's generators, computed at
    construction, so admissibility is their nonemptiness.  (The tests
    check it against `oracles.dual_cone_rays_exact`: the dual has a
    nonzero q with q . g >= 0 for all generators iff its exact
    enumeration finds a ray or a lineality vector.)
    """
    return body.normal_array.shape[0] > 0


def polar(body):
    """The polar body: support normals become generators and vice versa.

    A body's two arrays describe each other symmetrically:
    - the normals are the canonical generators of the dual cone of
      cone(G): `from_generators` stores the dual that
      `cones.extreme_rays` found along with G, in `rays_with_lineality`
      layout (the closed form of independent rows, the facets of the
      section hull, or `dual_cone_rays` of the rows, each of which a
      rerun of `dual_cone_rays` on the stored G reproduces to rounding),
      and `hemisphere_body` stores the center, the dual's one ray, which
      that conversion reproduces to rounding too;
    - the generators are the dual cone's irredundant constraints (a
      generator implied by the others would not have been extreme), so
      they are the canonical generators of the dual of cone(N).
    Swapping the arrays therefore gives the polar with both descriptions
    canonical, and no conversion runs: the polar shares its input's
    arrays, and its slack matrix is the transpose of the input's, which
    the input's constructor already checked.  The two linealities swap
    with them: the lineality of the dual cone K* is span(G)^perp, the
    input's complement, and span(K*)^perp is the lineality of K, so the
    polar's complement is the input's lineality.
    """
    if not polar_admissible(body):
        raise PolarEmptyError()
    G, N = body.generator_array, body.normal_array
    return SphericalBody(N, G, body.complement_array, body.lineality_array, _trusted=True)


def double_polar(body):
    """The polar of the re-canonicalized polar; on representable bodies
    this recovers the input (checked by the harness, not assumed here).

    `polar` swaps the stored arrays, so polar(polar(body)) would be
    the input itself; `canonicalize` in between runs the dual-cone
    conversion on the polar's generators, the input's normals, so the
    round trip converts once in each direction.
    """
    return polar(canonicalize(polar(body)))


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

    The hull is built first and refused with `NonHemisphericalError`
    unless it is hemispherical (its cone is pointed exactly when the
    points' cone is), which `is_hemispherical` reads off the hull's
    stored normals without a solver.  The result is verified to be a
    fixed point of the double polar.
    """
    hull = from_generators(points)
    if not is_hemispherical(hull):
        raise NonHemisphericalError(
            "points are not contained in any open hemisphere"
        )
    roundtrip = double_polar(hull)
    gap = body_match_angle(hull, roundtrip)
    if not gap <= 1e-10:
        raise AssertionError(f"hull is not double-polar stable (gap {gap:.3e})")
    return hull


def polar_antitone_check(a, b):
    """For a subset pair a ⊆ b, report whether polar(b) ⊆ polar(a).

    Both inclusions are decided by `contains`'s slack test, batched over
    all generators of the inner body.  A failed precondition a ⊆ b is
    an error, not a False return, and so are bodies on different
    spheres (`DimensionMismatchError`, before any slack is taken).
    """
    if a.ambient_dim != b.ambient_dim:
        raise DimensionMismatchError("bodies live on different spheres")
    if kernels.min_slack(a.generator_array, b.normal_array).min() < -MEMBERSHIP_TOL:
        raise ValueError("precondition failed: a is not a subset of b")
    if not (polar_admissible(a) and polar_admissible(b)):
        raise PolarEmptyError()
    pb = polar(b)
    pa = polar(a)
    return bool(kernels.min_slack(pb.generator_array, pa.normal_array).min() >= -MEMBERSHIP_TOL)
