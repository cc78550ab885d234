"""An independent count of critical points: the winding of B' around a circle.

Acceptance criterion 4 and the solver tests check `critical_points` against
this count, which shares nothing with the solver but `B'` itself.
"""
import numpy as np

from blab import DomainError
from blab.products import _as_product


class ContourError(RuntimeError):
    """Critical point on the contour of a winding-number count."""


def argument_principle_count(product, r, nodes=None):
    """Zeros of B' strictly inside |z| = r, by winding of B' around the circle.

    Trapezoidal phase accumulation: principal-value increments of arg B'
    summed over the closed loop, which telescope to whole turns. Too few
    nodes give a wrong whole count without any error: [0.5, -0.5, 0.9j] at
    r = 0.9 gives 0 with 4 nodes and 2 with 16. The default is
    max(2048, 64 n) nodes. A critical point on a node raises ContourError.
    """
    product = _as_product(product)
    r = float(r)
    if not 0.0 < r < 1.0:
        raise DomainError("contour radius must lie in (0, 1)")
    if nodes is None:
        nodes = max(2048, 64 * product.degree)
    nodes = int(nodes)
    theta = np.linspace(0.0, 2.0 * np.pi, nodes + 1)
    vals = product.derivative(r * np.exp(1j * theta))
    if np.any(vals == 0.0):
        raise ContourError("critical point on the contour")
    steps = np.angle(vals[1:] / vals[:-1])
    return round(float(steps.sum() / (2.0 * np.pi)))
