"""GEMM work per training step, computed from network shapes (not measured).

Each entry mirrors one matrix product in ``gzslgen.networks`` or
``gzslgen.losses`` for the ``full`` variant with every loss weight positive
(the only configuration the benchmark trains). A product of an [m, k] and a
[k, n] matrix counts 2*m*k*n FLOPs and 8*(m*k + k*n + m*n) bytes: each float64
operand read once and the result written once.
"""

from __future__ import annotations


def _fwd(s, b):
    return [(b, s.input_dim, s.hidden_dim), (b, s.hidden_dim, s.output_dim)]


def _bwd(s, b):
    return [
        (s.hidden_dim, b, s.output_dim), (b, s.output_dim, s.hidden_dim),
        (s.input_dim, b, s.hidden_dim), (b, s.hidden_dim, s.input_dim),
    ]


def _critic_input_grads(s, b):
    return [(b, s.input_dim, s.hidden_dim), (b, s.hidden_dim, s.input_dim)]


def _gradient_penalty(s, b, n_grad):
    return [
        (b, s.input_dim, s.hidden_dim), (b, s.hidden_dim, n_grad),
        (n_grad, b, s.hidden_dim), (b, n_grad, s.hidden_dim),
    ]


def _softmax_ce(k, n_classes, b):
    return [(b, k, n_classes), (k, b, n_classes), (b, n_classes, k)]


def step_gemms(params, batch_size: int) -> dict[str, list[tuple[int, int, int]]]:
    """(m, k, n) of every matrix product in one step of each kind."""
    g_sv, g_vs, d_v, d_s = params.g_sv.shape, params.g_vs.shape, params.d_v.shape, params.d_s.shape
    b = batch_size
    k = g_sv.output_dim
    l = d_s.input_dim
    n_seen = params.cls_seen.w.shape[1]
    return {
        # trainer: g_sv forward; disc_v: real + fake forward/backward, penalty
        "d_v": _fwd(g_sv, b) + 2 * _fwd(d_v, b) + 2 * _bwd(d_v, b)
        + _gradient_penalty(d_v, b, k),
        # trainer: g_sv and g_vs forwards; disc_s as above on attributes
        "d_s": _fwd(g_sv, b) + _fwd(g_vs, b) + 2 * _fwd(d_s, b) + 2 * _bwd(d_s, b)
        + _gradient_penalty(d_s, b, l),
        # chain x' -> a' -> x'', two critic pulls, classifier term, backprop
        "g_sv": 2 * _fwd(g_sv, b) + _fwd(g_vs, b) + 2 * _fwd(d_v, b)
        + 2 * _critic_input_grads(d_v, b) + _softmax_ce(k, n_seen, b)
        + 2 * _bwd(g_sv, b) + _bwd(g_vs, b),
        # same chain, semantic critic pull, consistency backprop through g_sv
        "g_vs": 2 * _fwd(g_sv, b) + _fwd(g_vs, b) + _fwd(d_s, b)
        + _critic_input_grads(d_s, b) + _bwd(g_sv, b) + _bwd(g_vs, b),
    }


def step_work(params, batch_size: int) -> dict[str, tuple[float, float]]:
    """Per step kind: (GFLOP, MB) of GEMM work, both computed."""
    out = {}
    for kind, gemms in step_gemms(params, batch_size).items():
        flops = sum(2 * m * k * n for m, k, n in gemms)
        nbytes = sum(8 * (m * k + k * n + m * n) for m, k, n in gemms)
        out[kind] = (flops / 1e9, nbytes / 1e6)
    return out
