"""The reference jet product that the kernel of :mod:`ymft.jets` is tested
against, and the coupling by which a jet matrix over an extended ring
enters the graded solve.

It is built from the monomial exponents and a ring's block products
(``block_pairs``) alone, so it shares nothing with ``JetAlgebra.push``:
both factors are gathered at every pair (i, j) of monomials with
|i| + |j| <= D, sorted by output monomial i + j, multiplied, and each
output's run of pairs is summed by one ``np.add.reduceat``.
"""

import functools

import numpy as np

from ymft.jets import jet_algebra


@functools.lru_cache(maxsize=None)
def _pairs(degree: int):
    """(i, j, starts): the pairs (i, j) of monomials with |i| + |j| <=
    degree, sorted by output monomial i + j, and where each output's run
    of pairs starts (every monomial k has the pair (0, k))."""
    exps = jet_algebra(degree).exponents
    index = {e: k for k, e in enumerate(exps)}
    pairs = sorted((index[tuple(x + y for x, y in zip(ea, eb))], a, b)
                   for a, ea in enumerate(exps) for b, eb in enumerate(exps)
                   if sum(ea) + sum(eb) <= degree)
    k, i, j = np.array(pairs).T
    return i, j, np.flatnonzero(np.diff(k, prepend=-1))


def ref_mul(ring, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x y for ring values of broadcastable shapes (..., ring.width): per
    block pair (i, j, o) of ``ring.block_pairs``, block i of x times block j
    of y adds to block o."""
    i, j, starts = _pairs(ring.degree)
    xs = x.reshape(x.shape[:-1] + (ring.blocks, -1))
    ys = y.reshape(y.shape[:-1] + (ring.blocks, -1))
    out = np.zeros(np.broadcast_shapes(xs.shape, ys.shape))
    for bi, bj, bo in ring.block_pairs:
        out[..., bo, :] += np.add.reduceat(
            xs[..., bi, :].take(i, axis=-1) * ys[..., bj, :].take(j, axis=-1),
            starts, axis=-1)
    return out.reshape(out.shape[:-2] + (ring.width,))


def matrix_coupling(ring, y: np.ndarray):
    """The coupling of :meth:`ymft.jets.JetRing.solve` for a jet matrix y
    (size, size, ring.width): the product of y's blocks after the base
    block with x, by ``ring.matmul``."""
    rest = y.copy()
    ring.block_view(rest)[..., 0, :] = 0.0
    return lambda x, live, order: ring.matmul(rest, x, order=order)
