"""Independent numerical envelopes on the cross-section D = {x + y = 2}.

In (s, z) coordinates (x = 1+s, y = 1-s) the cross-section is the upper
half-disc. The boundary data is discretized into nodes; the concave
(convex) envelope of the node values is read off the upper (lower) facets
of the 3D convex hull of the lifted nodes. This under- (over-) estimates
the true envelope, converging as the resolution grows, and never consults
the closed forms it is used to check.
"""

import copy
import os

import numpy as np

from .powers import power_sum


def ConvexHull(points):
    """qhull's hull with furthest-facet partitioning (Qf); scipy loads at the first build."""
    from scipy.spatial import ConvexHull as qhull
    return qhull(points, qhull_options="Qf")


def boundary_value(p, s):
    """phi_p on the semicircle: ((1+s)^(1/p) + (1-s)^(1/p))^p."""
    return power_sum(1.0 + s, 1.0 - s, p.p)


class BoundaryCurve:
    """Discretized boundary data of the half-disc D.

    n nodes uniform in angle on the semicircle, the two diameter
    endpoints, and n//4 interior diameter nodes (value x+y = 2 for p > 0
    and 0 for p < 0, the +inf conventions pre-applied).
    """

    def __init__(self, p, n):
        if n < 16:
            raise ValueError("resolution must be at least 16")
        theta = np.pi * (np.arange(1, n + 1)) / (n + 1)
        semi_s = np.cos(theta)
        semi_z = np.sin(theta)
        semi_v = boundary_value(p, semi_s)
        diam_s = np.concatenate(([-1.0, 1.0], np.linspace(-1.0, 1.0, n // 4 + 2)[1:-1]))
        diam_z = np.zeros_like(diam_s)
        diam_v = np.full_like(diam_s, 2.0 if p.p > 0 else 0.0)
        self.p = p
        self.n = n
        self.nodes = np.column_stack(
            (np.concatenate((semi_s, diam_s)), np.concatenate((semi_z, diam_z)))
        )
        self.values = np.concatenate((semi_v, diam_v))


# Elements in each of evaluate's two scratch buffers (8 bytes apiece).
_BLOCK_ELEMENTS = 1 << 16

_OPPOSITE = {"concave": "convex", "convex": "concave"}
_BUILDER = []  # the one thread that builds every hull, started at the first build
os.register_at_fork(after_in_child=_BUILDER.clear)  # a forked child starts its own


class EnvelopeOracle:
    """Concave or convex envelope of a BoundaryCurve's node data.

    One qhull build carries both kinds: the concave envelope is read off
    the upper facets of the hull and the convex one off the lower facets,
    so ``opposite`` gives the other kind without a second build.
    """

    def __init__(self, p, kind, n=512):
        if kind not in _OPPOSITE:
            raise ValueError("kind must be 'concave' or 'convex'")
        if p.p > 26.5:  # qhull's precision follows 2^p: above it, error stops falling in n
            raise ValueError("the oracle converges only for p <= 26.5, got p = %r" % p.p)
        self.curve = BoundaryCurve(p, n)
        self.kind = kind
        if not _BUILDER:  # concurrent.futures, like scipy, loads at the first build
            from concurrent.futures import ThreadPoolExecutor
            _BUILDER.append(ThreadPoolExecutor(max_workers=1))
        self._planes = _BUILDER[0].submit(self._facet_planes, self.curve)  # the build's future

    @staticmethod
    def _facet_planes(curve):
        """{kind: (a, b, c)}, the distinct planes v = a*s + b*z + c of that
        kind's facets, each column a contiguous array."""
        pts = np.column_stack((curve.nodes, curve.values))
        # Flat data (p = 1, 2) breaks qhull: exactly coplanar points take
        # their least-squares plane, the envelope of both kinds.
        coeff = np.linalg.lstsq(np.column_stack((pts[:, :2], np.ones(len(pts)))), pts[:, 2],
                                rcond=None)[0]
        fitted = pts[:, :2] @ coeff[:2] + coeff[2]
        if np.max(np.abs(fitted - pts[:, 2])) < 1e-9 * max(1.0, np.max(np.abs(pts[:, 2]))):
            return dict.fromkeys(_OPPOSITE, tuple(np.array([c]) for c in coeff))
        from scipy.spatial import QhullError  # loaded with qhull itself
        try:
            eqs = ConvexHull(pts).equations  # a*s + b*z + c*v + d <= 0 inside
        except QhullError:  # the lifted nodes are flat to qhull's precision
            eqs = np.empty((0, 4))
        planes = {}
        for kind, sign in (("concave", 1.0), ("convex", -1.0)):
            keep = eqs[sign * eqs[:, 2] > 1e-12]
            if not len(keep):
                raise ValueError("qhull resolves no %s facet at p = %r, n = %d"
                                 % (kind, curve.p.p, curve.n))
            abc = -keep[:, [0, 1, 3]] / keep[:, 2:3]
            bits = abc.view(np.int64)  # a merged facet's plane repeats in a run
            first = np.r_[True, (bits[1:] != bits[:-1]).any(axis=1)]  # -0.0 != 0.0
            planes[kind] = tuple(np.ascontiguousarray(abc[first].T))
        return planes

    def opposite(self):
        """The oracle of the other kind over the same curve and hull."""
        other = copy.copy(self)
        other.kind = _OPPOSITE[self.kind]
        return other

    def evaluate(self, s, z):
        """Envelope estimate at the points (s, z) of the closed half-disc D.

        ``s`` and ``z`` broadcast against each other by numpy's rules; the
        result has their broadcast shape, and is a float when both are
        scalars. Each value is the min (concave) or max (convex) over the
        facet planes. Query points are scanned in blocks of rows x planes
        that fit two scratch buffers of at most _BLOCK_ELEMENTS elements,
        so memory stays bounded for any number of points.
        """
        s = np.asarray(s, dtype=float)
        z = np.asarray(z, dtype=float)
        if not (np.all(np.abs(s) <= 1.0 + 1e-12) and np.all(z >= -1e-12)
                and np.all(s * s + z * z <= 1.0 + 1e-9)):  # NaN fails each test
            raise ValueError("query outside the closed half-disc D")
        s, z = np.broadcast_arrays(s, z)
        shape = s.shape
        s, z = s.ravel(), z.ravel()
        a, b, c = self._planes.result()[self.kind]  # a failed build raises here
        reduce = np.minimum.reduce if self.kind == "concave" else np.maximum.reduce
        rows = max(1, _BLOCK_ELEMENTS // len(a))
        vals = np.empty((min(rows, s.size), len(a)))
        terms = np.empty_like(vals)
        best = np.empty(s.size)
        for lo in range(0, s.size, rows):
            hi = min(lo + rows, s.size)
            v, t = vals[:hi - lo], terms[:hi - lo]
            np.multiply(s[lo:hi, None], a, out=v)
            np.multiply(z[lo:hi, None], b, out=t)
            v += t
            v += c
            reduce(v, axis=1, out=best[lo:hi])
        return best.reshape(shape) if shape else float(best[0])

