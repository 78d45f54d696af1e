"""Dense truncated multivariate Taylor ("jet") arithmetic in four variables.

A jet of degree D is a polynomial in the coordinates x^0..x^3 with all terms
of total degree > D discarded.  Sums, products and partial derivatives of
jets are again jets, and every identity between local field expressions that
holds at polynomial level holds exactly (to roundoff) on jet coefficients.
That makes jets the substrate for machine-checking differential identities:
evaluate both sides on random jets and compare coefficient arrays.

Two layers live here:

* :class:`JetScalar` -- a convenience scalar type with operator overloading,
  used by tests, oracles and report code.
* :class:`JetRing` / :class:`NilpotentExtension` -- flat ``ndarray`` rings
  used by the form layer.  A ring value is any array whose trailing axis has
  length ``ring.width``; multiplication is vectorized over the leading axes.
  ``NilpotentExtension`` adjoins k directions eps_i with eps_i*eps_j = 0,
  which gives exact first-order (directional / variational) derivatives of
  arbitrary jet pipelines.

Coefficients are stored densely in graded lexicographic monomial order, and
truncated multiplication runs through a precomputed index-pair table.  The
same table grouped by output monomial turns a product of ring-valued
matrices into one dense real matmul per monomial (Taylor propagation in the
sense of Griewank & Walther, *Evaluating Derivatives*, ch. 13); extended
rings expose the nonzero products of their blocks as a block-pair table so
that the matrix product runs the base kernel once per block pair.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

NVARS = 4


def _monomial_exponents(degree: int) -> list[tuple[int, ...]]:
    """All exponent tuples over NVARS variables, graded lexicographic order."""
    out = []
    for total in range(degree + 1):
        block = [e for e in itertools.product(range(total + 1), repeat=NVARS)
                 if sum(e) == total]
        block.sort(reverse=True)
        out.extend(block)
    return out


class JetAlgebra:
    """Precomputed tables for truncated polynomial arithmetic at one degree."""

    def __init__(self, degree: int):
        if degree < 0:
            raise ValueError("jet degree must be >= 0")
        self.degree = degree
        self.exponents = _monomial_exponents(degree)
        self.n_terms = len(self.exponents)
        self.index = {e: i for i, e in enumerate(self.exponents)}
        self.term_degree = np.array([sum(e) for e in self.exponents])

        ii, jj, kk = [], [], []
        for i, ei in enumerate(self.exponents):
            di = sum(ei)
            for j, ej in enumerate(self.exponents):
                if di + sum(ej) > degree:
                    continue
                ii.append(i)
                jj.append(j)
                kk.append(self.index[tuple(a + b for a, b in zip(ei, ej))])
        self.pair_i = np.array(ii)
        self.pair_j = np.array(jj)
        scatter = np.zeros((len(kk), self.n_terms))
        scatter[np.arange(len(kk)), kk] = 1.0
        self.scatter = scatter
        # the same pairs grouped by output monomial: (I_k, J_k) per k
        kk = np.array(kk)
        self.pair_groups = [(self.pair_i[kk == k], self.pair_j[kk == k])
                            for k in range(self.n_terms)]

        # d/dx^mu as a matrix acting on coefficient vectors (right-multiply).
        self.deriv = []
        for mu in range(NVARS):
            dm = np.zeros((self.n_terms, self.n_terms))
            for i, e in enumerate(self.exponents):
                if e[mu] > 0:
                    tgt = list(e)
                    tgt[mu] -= 1
                    dm[i, self.index[tuple(tgt)]] = e[mu]
            self.deriv.append(dm)

    def mul_coeffs(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return (a[..., self.pair_i] * b[..., self.pair_j]) @ self.scatter

    def matmul_coeffs(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """(N, K, n) x (K, M, n) -> (N, M, n): jet-valued matrix product.

        Output monomial k collects the pairs (I_k, J_k) and the inner index
        in one real matmul of shape (N, K r_k) @ (K r_k, M).
        """
        n, k, _ = a.shape
        m = b.shape[1]
        bt = b.transpose(0, 2, 1)
        out = np.empty((n, m, self.n_terms))
        for t, (ik, jk) in enumerate(self.pair_groups):
            out[:, :, t] = (a[:, :, ik].reshape(n, -1)
                            @ bt[:, jk].reshape(-1, m))
        return out

    def diff_coeffs(self, a: np.ndarray, mu: int) -> np.ndarray:
        return a @ self.deriv[mu]

    def mask_up_to(self, order: int) -> np.ndarray:
        return self.term_degree <= order

    def evaluate(self, coeffs: np.ndarray, point) -> float:
        x = np.asarray(point, dtype=float)
        mono = np.array([np.prod(x ** np.array(e)) for e in self.exponents])
        return float(coeffs @ mono)


@functools.lru_cache(maxsize=None)
def jet_algebra(degree: int) -> JetAlgebra:
    return JetAlgebra(degree)


class JetScalar:
    """A truncated Taylor polynomial with operator-overloaded arithmetic.

    Tracks a ``valid order``: the largest total degree whose coefficients
    are meaningful.  Products keep the minimum of the factors' orders,
    derivatives lower it by one.  Identity checks must only compare
    coefficients within the common valid order.
    """

    __slots__ = ("algebra", "coeffs", "order")

    def __init__(self, algebra: JetAlgebra, coeffs, order: int | None = None):
        self.algebra = algebra
        self.coeffs = np.asarray(coeffs, dtype=float)
        if self.coeffs.shape != (algebra.n_terms,):
            raise ValueError("coefficient vector has wrong length")
        self.order = algebra.degree if order is None else order

    @classmethod
    def constant(cls, value: float, degree: int = 3) -> "JetScalar":
        alg = jet_algebra(degree)
        c = np.zeros(alg.n_terms)
        c[0] = value
        return cls(alg, c)

    @classmethod
    def coordinate(cls, mu: int, degree: int = 3) -> "JetScalar":
        alg = jet_algebra(degree)
        c = np.zeros(alg.n_terms)
        e = [0] * NVARS
        e[mu] = 1
        c[alg.index[tuple(e)]] = 1.0
        return cls(alg, c)

    @classmethod
    def random(cls, rng: np.random.Generator, amplitude: float,
               degree: int = 3) -> "JetScalar":
        alg = jet_algebra(degree)
        return cls(alg, rng.uniform(-amplitude, amplitude, alg.n_terms))

    def _check(self, other: "JetScalar"):
        if self.algebra is not other.algebra:
            raise ValueError("jet degree mismatch")

    def __add__(self, other):
        if isinstance(other, JetScalar):
            self._check(other)
            return JetScalar(self.algebra, self.coeffs + other.coeffs,
                             min(self.order, other.order))
        return self + JetScalar.constant(float(other), self.algebra.degree)

    __radd__ = __add__

    def __neg__(self):
        return JetScalar(self.algebra, -self.coeffs, self.order)

    def __sub__(self, other):
        return self + (-other if isinstance(other, JetScalar)
                       else -float(other))

    def __rsub__(self, other):
        return (-self) + float(other)

    def __mul__(self, other):
        if isinstance(other, JetScalar):
            self._check(other)
            return JetScalar(self.algebra,
                             self.algebra.mul_coeffs(self.coeffs, other.coeffs),
                             min(self.order, other.order))
        return JetScalar(self.algebra, self.coeffs * float(other), self.order)

    __rmul__ = __mul__

    def diff(self, mu: int) -> "JetScalar":
        return JetScalar(self.algebra,
                         self.algebra.diff_coeffs(self.coeffs, mu),
                         self.order - 1)

    def value_at_origin(self) -> float:
        return float(self.coeffs[0])

    def __call__(self, point) -> float:
        return self.algebra.evaluate(self.coeffs, point)

    def max_abs(self) -> float:
        """Largest coefficient magnitude within the valid order."""
        if self.order < 0:
            raise ValueError("jet order exhausted")
        return float(np.abs(self.coeffs[self.algebra.mask_up_to(self.order)]).max())

    def __repr__(self):
        return f"JetScalar(degree={self.algebra.degree}, order={self.order})"


class JetRing:
    """Flat-array jet arithmetic; values are ndarrays with trailing axis width."""

    def __init__(self, degree: int):
        self.algebra = jet_algebra(degree)
        self.degree = degree
        self.width = self.algebra.n_terms
        self.blocks = 1  # nilpotent blocks, incl. the base block
        self.base_width = self.width
        # nonzero block products (left block, right block, output block)
        self.block_pairs = ((0, 0, 0),)

    def zeros(self, shape) -> np.ndarray:
        return np.zeros(tuple(shape) + (self.width,))

    def const(self, values) -> np.ndarray:
        values = np.asarray(values, dtype=float)
        out = self.zeros(values.shape)
        out[..., 0] = values
        return out

    def mul(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return self.algebra.mul_coeffs(x, y)

    def diff(self, x: np.ndarray, mu: int) -> np.ndarray:
        return self.algebra.diff_coeffs(x, mu)

    def mask_up_to(self, order: int) -> np.ndarray:
        return self.algebra.mask_up_to(order)

    def constant_part(self, x: np.ndarray) -> np.ndarray:
        """Degree-zero coefficients of the base block."""
        return x[..., 0]

    def base_block(self, x: np.ndarray) -> np.ndarray:
        return x

    def promote(self, x_base: np.ndarray) -> np.ndarray:
        return x_base


class NilpotentExtension(JetRing):
    """Base jet ring extended by k directions eps_i with eps_i*eps_j = 0.

    Values are laid out as (k+1) contiguous blocks of base-ring width:
    [value, d/d eps_1, ..., d/d eps_k].  Running a whole pipeline over this
    ring yields the pipeline value together with k exact directional
    derivatives; this is how gauge variations, commutators, linearizations
    and Euler-Lagrange gradients are extracted below.
    """

    def __init__(self, degree: int, directions: int = 1):
        super().__init__(degree)
        self.base = JetRing(degree)
        self.directions = directions
        self.blocks = directions + 1
        self.base_width = self.base.width
        self.width = self.blocks * self.base_width
        self.block_pairs = ((0, 0, 0),) + tuple(
            pair for d in range(1, self.blocks)
            for pair in ((0, d, d), (d, 0, d)))

    def _split(self, x):
        xs = x.reshape(x.shape[:-1] + (self.blocks, self.base_width))
        return xs[..., 0, :], xs[..., 1:, :]

    def mul(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        xr, xi = self._split(x)
        yr, yi = self._split(y)
        re = self.base.mul(xr, yr)
        im = (self.base.mul(xr[..., None, :], yi)
              + self.base.mul(xi, yr[..., None, :]))
        out = np.concatenate([re[..., None, :], im], axis=-2)
        return out.reshape(out.shape[:-2] + (self.width,))

    def diff(self, x: np.ndarray, mu: int) -> np.ndarray:
        xs = x.reshape(x.shape[:-1] + (self.blocks, self.base_width))
        out = self.base.diff(xs, mu)
        return out.reshape(x.shape)

    def mask_up_to(self, order: int) -> np.ndarray:
        return np.tile(self.base.mask_up_to(order), self.blocks)

    def constant_part(self, x: np.ndarray) -> np.ndarray:
        return x[..., 0]

    def base_block(self, x: np.ndarray) -> np.ndarray:
        return self._split(x)[0]

    def direction_block(self, x: np.ndarray, i: int = 0) -> np.ndarray:
        return self._split(x)[1][..., i, :]

    def promote(self, x_base: np.ndarray, tangents=None) -> np.ndarray:
        """Embed base-ring coefficients, optionally seeding direction blocks.

        ``tangents`` is a sequence of base-ring arrays (one per direction);
        omitted directions are zero.
        """
        out = self.zeros(x_base.shape[:-1])
        xs = out.reshape(out.shape[:-1] + (self.blocks, self.base_width))
        xs[..., 0, :] = x_base
        if tangents is not None:
            for i, t in enumerate(tangents):
                if t is not None:
                    xs[..., 1 + i, :] = t
        return xs.reshape(out.shape)


class EpsilonTower(JetRing):
    """Base jet ring extended by one eps with eps^(order+1) = 0.

    Values carry blocks [1, eps, ..., eps^order]; running a pipeline on
    fields seeded as eps * (A, B) extracts the exact homogeneous expansion
    of the result in powers of the fields.
    """

    def __init__(self, degree: int, order: int):
        super().__init__(degree)
        self.base = JetRing(degree)
        self.order_eps = order
        self.blocks = order + 1
        self.base_width = self.base.width
        self.width = self.blocks * self.base_width
        self.block_pairs = tuple((i, j, i + j) for i in range(self.blocks)
                                 for j in range(self.blocks - i))

    def _blocks(self, x):
        return x.reshape(x.shape[:-1] + (self.blocks, self.base_width))

    def mul(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        xs, ys = self._blocks(x), self._blocks(y)
        out = np.zeros(np.broadcast_shapes(xs.shape, ys.shape))
        for i, j, o in self.block_pairs:
            out[..., o, :] += self.base.mul(xs[..., i, :], ys[..., j, :])
        return out.reshape(out.shape[:-2] + (self.width,))

    def diff(self, x: np.ndarray, mu: int) -> np.ndarray:
        xs = self._blocks(x)
        return self.base.diff(xs, mu).reshape(x.shape)

    def mask_up_to(self, order: int) -> np.ndarray:
        return np.tile(self.base.mask_up_to(order), self.blocks)

    def constant_part(self, x: np.ndarray) -> np.ndarray:
        return x[..., 0]

    def base_block(self, x: np.ndarray) -> np.ndarray:
        return self._blocks(x)[..., 0, :]

    def eps_block(self, x: np.ndarray, power: int) -> np.ndarray:
        return self._blocks(x)[..., power, :]

    def promote(self, x_base: np.ndarray, tangents=None) -> np.ndarray:
        out = self.zeros(x_base.shape[:-1])
        xs = self._blocks(out)
        xs[..., 0, :] = x_base
        if tangents is not None:
            for i, t in enumerate(tangents):
                if t is not None:
                    xs[..., 1 + i, :] = t
        return xs.reshape(out.shape)
