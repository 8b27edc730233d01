"""Directional-derivative check of the four training steps' gradients at the
paper shape (K=2048, L=85, H=4096, B=64, 40 seen classes), float64.

The finite-difference suite in ``test_losses.py`` runs at K <= 16, where no
weight gradient is split into row blocks and the penalty's zero padding
spans a few rows. Here the visual critic's w1 gradient (2,133 rows) and both
generators' weights are formed in many ``networks.row_blocks`` blocks, and
the penalty's term is padded by 85 attribute rows.

For each step kind the check compares the analytic slope along one random
unit direction d of the network's flat parameters, <g, d>, with the central
difference (f(p + eps d) - f(p - eps d)) / (2 eps) at eps = 1e-5. Larger
steps cross ReLU and leaky kinks: at 1e-3 and 1e-4 the relative errors
reached 6.7 for the critics and 1.9e-2 for the generators.

Over seeds 0-11 (a fresh model, batch, penalty mix, second noise draw and
direction each) per step kind, the worst relative errors were 6.5e-8
(``d_v``), 1.6e-8 (``d_s``), 1.6e-7 (``g_sv``) and 2.5e-8 (``g_vs``), with
one exception: ``d_v`` at seed 9 read 1.0, because a hidden unit of the
penalized rows changes sign within eps of p there, and the penalty, a
function of the activation pattern, jumps (at eps = 3e-6 the same seed
reads 7.8e-9). Such a crossing says nothing about the gradient, so the test
keeps seed 0, which crosses none. The bound, 1e-5, leaves sixtyfold room
above the worst error of a kink-free direction. On a copy with one row block
of every weight gradient left out the errors were 0.03 to 1.4; with the
penalty's w1 term moved onto the padding rows, ``d_v`` read 0.34; with the
padding rows dropped, ``d_v``'s gradient raised ``ValueError``.
"""

import numpy as np
import pytest

from gzslgen import losses
from gzslgen.losses import LossWeights
from gzslgen.networks import init_params
from helpers import random_batch

K, L, H, B, N_SEEN = 2048, 85, 4096, 64, 40
EPS = 1e-5
BOUND = 1e-5


def step_loss_and_grads(kind, model, batch, rng):
    """The loss function of step ``kind`` with its random inputs fixed:
    ``f()`` returns ``(loss, terms, grads)`` at the current parameters."""
    weights = LossWeights()
    if kind in ("d_v", "d_s"):
        mix = rng.uniform(0, 1, size=len(batch))
        if kind == "d_v":
            synth = np.abs(rng.standard_normal(batch.visual.shape))
            return lambda: losses.disc_v_loss_and_grads(model, batch, synth, weights, mix)
        recon = rng.uniform(0, 1, size=batch.attributes.shape)
        return lambda: losses.disc_s_loss_and_grads(model, batch, recon, weights, mix)
    noise2 = rng.standard_normal(batch.noise.shape)
    if kind == "g_sv":
        return lambda: losses.gen_sv_loss_and_grads(model, batch, weights, noise2, batch.labels)
    return lambda: losses.gen_vs_loss_and_grads(model, batch, weights, noise2)


def directional_error(kind, seed):
    """Relative error of <g, d> against the central difference along d."""
    model = init_params(K, L, N_SEEN, seed=seed, hidden_dim=H)
    batch = random_batch(seed=seed + 1, b=B, k=K, l=L, n_classes=N_SEEN)
    rng = np.random.default_rng(seed + 2)
    f = step_loss_and_grads(kind, model, batch, rng)
    flat = getattr(model, kind).flat
    d = rng.standard_normal(flat.size)
    d /= np.linalg.norm(d)

    _, _, grads = f()
    analytic, lo = 0.0, 0
    for values in grads.segments():
        analytic += float(np.dot(values, d[lo : lo + values.size]))
        lo += values.size
    p = flat.copy()
    flat += EPS * d
    f_plus = f()[0]
    flat[:] = p - EPS * d
    f_minus = f()[0]
    flat[:] = p
    numeric = (f_plus - f_minus) / (2 * EPS)
    return abs(analytic - numeric) / max(abs(analytic), abs(numeric))


@pytest.mark.parametrize("kind", ["d_v", "d_s", "g_sv", "g_vs"])
def test_slope_along_a_random_direction_matches_central_difference(kind):
    error = directional_error(kind, seed=0)
    assert error < BOUND, (kind, error)
