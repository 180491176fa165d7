"""The model's traces are quantum Weyl dimensions.

The Sp(4) family is quantum Sp(4) and the depth-3 point is quantum SO(3),
so the traces (a, b) of the two minimal idempotents P1 and P2 that
`trace_split` gives must be quantum dimensions of irreducible
representations.  From delta alone: t = q^2 + q^-2 = (-1 + sqrt(4 delta +
9)) / 2, s = q + q^-1 = sqrt(t + 2), and the quantum integers follow the
recurrence [n + 1] = s [n] - [n - 1], which never divides by q - q^-1.
On the Sp(4) branch (q = e^{i pi / l} at even l, q >= 1 on the continuum)
a = dim_q(1, 1) = [5][6] / ([3][2]), b = dim_q(2, 0) = [5][8] / [4], and
delta = dim_q(1, 0) = [2][6] / [3] = q^4 + q^2 + q^-2 + q^-4.  At the
depth-3 point, s = 2 cos(pi / 7): a = [5], b = [3] and delta = [3].
Nothing here enters the library: it is a second route to the traces that
`trace_split` computes from the chirality equation.
"""

import math

import numpy as np
import pytest

from skeinlab import DEPTH3_DELTA, delta_for_l, trace_split

# The gate on the relative error of (a, b); the worst measured over
# SP4_DELTAS is 3.5e-15.
GATE = 1e-14

SP4_DELTAS = (
    *(delta_for_l(l) for l in range(12, 20001, 2)),
    *np.geomspace(4.0, 1e6, 600),
    *(4.0 + 10.0**-k for k in range(1, 17)),
    *np.geomspace(1e6, 1e16, 50),
)


def quantum_integers(s: float, n: int = 8) -> list[float]:
    """[0], [1], ..., [n] at q + q^-1 = s."""
    out = [0.0, 1.0]
    while len(out) <= n:
        out.append(s * out[-1] - out[-2])
    return out


def sp4_dimensions(delta: float) -> tuple[float, float]:
    """(dim_q(1, 1), dim_q(2, 0)) of quantum Sp(4) at the q of delta."""
    t = (-1.0 + math.sqrt(4.0 * delta + 9.0)) / 2.0
    n = quantum_integers(math.sqrt(t + 2.0))
    return n[5] * n[6] / (n[3] * n[2]), n[5] * n[8] / n[4]


def weyl_error(delta: float, a: float, b: float) -> float:
    """The larger relative distance of a and b from the Sp(4) dimensions."""
    da, db = sp4_dimensions(delta)
    return max(abs(a - da) / abs(da), abs(b - db) / abs(db))


def test_the_sp4_traces_are_quantum_dimensions():
    worst = max(weyl_error(float(d), *trace_split(float(d), -1)[1:]) for d in SP4_DELTAS)
    assert worst <= GATE


def test_the_loop_value_is_the_vector_representation():
    """delta = dim_q(1, 0) = [2][6] / [3] on the same q: the recurrence
    gives back the loop value it started from."""
    for delta in (delta_for_l(12), delta_for_l(200), 4.0, 5.0, 11.0, 1e3):
        t = (-1.0 + math.sqrt(4.0 * delta + 9.0)) / 2.0
        n = quantum_integers(math.sqrt(t + 2.0))
        assert abs(n[2] * n[6] / n[3] - delta) <= 1e-14 * delta


def test_the_depth3_traces_are_so3_dimensions():
    n = quantum_integers(2.0 * math.cos(math.pi / 7.0))
    _, a, b = trace_split(DEPTH3_DELTA, +1)
    assert abs(a - n[5]) <= 1e-15 * n[5]
    assert abs(b - n[3]) <= 1e-15 * n[3]
    assert n[3] == DEPTH3_DELTA


@pytest.mark.parametrize("delta", [delta_for_l(12), 4.5, 5.0, 11.0, 1e6, 1e16])
def test_a_move_along_the_trace_sum_is_caught(delta):
    """Negative control: (a, b) moved along a + b = delta^2 - 1 by 1e-6 of
    a, which the Yang-Baxter residual does not see, is far off the
    quantum dimensions."""
    _, a, b = trace_split(delta, -1)
    eps = 1e-6 * a
    assert weyl_error(delta, a, b) <= GATE
    assert weyl_error(delta, a + eps, b - eps) > 1e3 * GATE
