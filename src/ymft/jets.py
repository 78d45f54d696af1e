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
* :class:`JetRing` / :class:`NilpotentExtension` / :class:`EpsilonTower` --
  flat ``ndarray`` rings used by the form layer.  A ring value is any array
  whose trailing axis has length ``ring.width``; multiplication is
  vectorized over the leading axes.  ``NilpotentExtension`` adjoins k
  directions eps_i with eps_i*eps_j = 0, which gives exact first-order
  directional derivatives of arbitrary jet pipelines (the gradients of the
  Euler-Lagrange pass come from a reverse sweep instead, see
  :mod:`ymft.forms`);
  ``EpsilonTower`` adjoins one eps with eps^(k+1) = 0, which gives the
  exact expansion of a pipeline in powers of its fields.  Both store a
  value as k+1 contiguous blocks of base-ring width.  That layout lives in
  :class:`JetRing` alone (the one-block case): its block view, derivative,
  truncation mask, constant part, block access and lift serve all three
  rings.  The extended rings define only their block count and their
  nonzero block products (``block_pairs``), and every block rule follows
  from that table: the planned block product, the solve order (``waves``)
  and the live-flag rule of their common base :class:`ExtendedRing`.

Coefficients are stored densely in graded lexicographic monomial order.
Every product runs one kernel, :meth:`JetAlgebra.push`: the products
a_i x_j of one degree level L of the right factor x are one GEMM, as the i
with |i| <= D - L are a prefix of the monomials (Taylor propagation,
Griewank & Walther, *Evaluating Derivatives*, ch. 13), and each output adds
its pairs rank by rank.  It serves products of jet-valued matrices
(``matmul``), the scalar product of two jets (:meth:`JetAlgebra.mul_coeffs`,
for :class:`JetScalar`, a 1 x 1 jet-matrix product), the graded solve
(``solve``, which Y(A, B) of :mod:`ymft.strengths` uses) and ``bilinear``,
which folds one factor of a constant-coefficient bilinear map (the wedge
and interior products and their adjoints, the stress tensor) into a jet
matrix by one GEMM, ``fold`` (which also builds Y), then pushes the other
factor through it.  The reference product that the kernel is tested
against lives with the tests.  A derivative is one gather and one scale.

A product stops at the valid order of its result.  The monomials of
degree <= o are the first C(o + 4, 4) coefficients of each block, and
``jet_algebra(o)`` holds exactly that prefix's tables, so a product of
valid order o (the ``order`` of ``matmul``, ``bilinear`` and ``solve``,
by default the ring degree, and the minimum of the factors' orders for a
:class:`JetScalar` product) runs the kernel of ``jet_algebra(o)`` on the
prefix; its higher coefficients are exact 0.0, and below order 0 the
product is exact zeros and runs nothing (Taylor arithmetic that
propagates only the degrees it needs, ibid.).

On an extended ring ``matmul`` and ``bilinear`` run one planned block
product: per pattern of live flags, a plan lists the left blocks used and,
per live right block, the left blocks that meet it, and one loop runs one
jet-matrix product per live right block, its rows stacking those left
blocks.  Only block pairs whose two blocks are flagged live are
multiplied; every other block stays exactly zero (sparse vector-mode
forward propagation, ibid., ch. 7).  The flags are one vector per factor,
the blocks nonzero somewhere in the batch unless the caller passes them:
the form layer keeps one per form and derives it from the operations that
built the form, so the work does not follow roundoff.  The plans and the
solve order are kept per block table, once per process, and shared by
every ring with that table: a symbolic analysis done once for many
numeric products, as in sparse direct methods (Duff, Erisman & Reid,
*Direct Methods for Sparse Matrices*).

``solve`` takes the matrix only on the base ring.  It solves one wave of
blocks at a time with the base block's graded solve, and the product of
the matrix's other blocks with the solved waves comes from its caller, a
coupling callable (forward mode through a linear solve, ibid., ch. 15).
The strength solve of :mod:`ymft.strengths` passes wedges of the fields'
tangent blocks, so no jet matrix over an extended ring is formed.
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
        exps = np.array(self.exponents).reshape(-1, NVARS)
        self.term_degree = exps.sum(axis=1)
        # monomial index by exponents in radix degree + 2 (0 where none)
        radix = (degree + 2) ** np.arange(NVARS)
        lookup = np.zeros((degree + 2) ** NVARS, dtype=int)
        lookup[exps @ radix] = np.arange(self.n_terms)
        # the pairs (i, j) with |i| + |j| <= degree, row-major, sorted by
        # output monomial k (stably, so each output keeps its pairs in
        # row-major order)
        ii, jj = np.nonzero(self.term_degree[:, None] + self.term_degree
                            <= degree)
        kk = lookup[(exps[ii] + exps[jj]) @ radix]
        order = np.argsort(kk, kind="stable")
        ii, jj, kk = ii[order], jj[order], kk[order]
        # the monomials of degree d are level_bounds[d]:level_bounds[d + 1]
        bounds = self.level_bounds = np.searchsorted(
            self.term_degree, np.arange(degree + 2))
        # per degree level L of j: the place of each output k (degree >= L,
        # from bounds[L]) in an order where those with an r-th pair in their
        # row-major run are a prefix (most pairs first, degree L, whose one
        # pair is (0, j), last), and per rank r the rows of those pairs in
        # the products of :meth:`push`: j * n_i + i (n_i = end, every i)
        # and j * (n_i - 1) + i - 1 (without i = 0)
        self.level_pairs = []
        for level, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
            keep = (jj >= lo) & (jj < hi)
            i, j, k = ii[keep], jj[keep] - lo, kk[keep] - lo
            rank = np.arange(len(k)) - np.searchsorted(k, k)
            count = np.bincount(k)
            place = np.argsort(np.lexsort((np.arange(len(count)) < hi - lo,
                                           -count)))
            end = bounds[degree - level + 1]
            rows = np.array([j * end + i, j * (end - 1) + i - 1])
            by_rank = rows[:, np.lexsort((place[k], rank))]
            self.level_pairs.append((place, np.split(
                by_rank, np.cumsum(np.bincount(rank))[:-1], axis=1)))
        # d/dx^mu: coefficient t is (e_t[mu] + 1) times that of t + e_mu,
        # and 0 at the top degree (index 0, scale 0)
        self.diff_source = [lookup[exps @ radix + radix[mu]]
                            for mu in range(NVARS)]
        self.diff_scale = [(exps[:, mu] + 1.0) * (self.term_degree < degree)
                           for mu in range(NVARS)]

    def mul_coeffs(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """The product of two jets (n,), as a 1 x 1 jet-matrix product."""
        return self.matmul_coeffs(a[None, None], b[None, None])[0, 0]

    def push(self, a: np.ndarray, x: np.ndarray, level: int,
             constant: bool = True) -> np.ndarray:
        """Sum a_i @ x_j per output monomial over the pairs (i, j) with j
        of degree ``level``, for a (n, N, K) C-contiguous and x (K, n_L, M):
        (N, T, M) for the last T monomials, those of degree >= ``level``
        (> ``level`` with ``constant=False``, without the pairs (0, j)).
        The i are a prefix, |i| <= D - level, so the products are one GEMM;
        each output then adds its pairs in row-major order, rank by rank,
        each rank a prefix of the outputs in the order of ``level_pairs``.
        """
        place, (first_rank, *ranks) = self.level_pairs[level]
        first, skip = (0, 0) if constant else (1, x.shape[1])
        end = self.level_bounds[self.degree - level + 1]
        n_out, inner = len(place) - skip, a.shape[2]
        # each pair's product as one row of (M, N); copied unless M == 1
        prod = (x.reshape(inner, -1).T
                @ a[first:end].reshape(-1, inner).T).reshape(
                    x.shape[1], -1, end - first, a.shape[1]).swapaxes(1, 2)
        prod = prod.reshape(-1, prod.shape[2] * a.shape[1])
        out = prod.take(first_rank[first, :n_out], axis=0)
        for rows in ranks:
            out[:rows.shape[1]] += prod.take(rows[first], axis=0)
        return out.take(place[skip:], axis=0).reshape(
            n_out, x.shape[2], -1).transpose(2, 0, 1)

    def matmul_coeffs(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """(N, K, n) x (K, M, n) -> (N, M, n), one :meth:`push` per degree
        level of b; a transposed C-contiguous (n, N, K) ``a`` is not copied."""
        at = np.ascontiguousarray(a.transpose(2, 0, 1))
        bt, bounds = b.transpose(0, 2, 1), self.level_bounds
        out = self.push(at, bt[:, :1], 0)
        for level in range(1, self.degree + 1):
            lo, hi = bounds[level], bounds[level + 1]
            out[:, lo:] += self.push(at, bt[:, lo:hi], level)
        return out.transpose(0, 2, 1)

    def diff_coeffs(self, a: np.ndarray, mu: int) -> np.ndarray:
        return a.take(self.diff_source[mu], axis=-1) * self.diff_scale[mu]

    def mask_up_to(self, order: int) -> np.ndarray:
        return self.term_degree <= order

    def evaluate(self, coeffs: np.ndarray, point) -> float:
        x = np.asarray(point, dtype=float)
        mono = np.array([np.prod(x ** np.array(e)) for e in self.exponents])
        return float(coeffs @ mono)


def _as_run(index: np.ndarray):
    """Sorted block indices as a slice where they are consecutive."""
    if len(index) and (np.diff(index) == 1).all():
        return slice(index[0], index[-1] + 1)
    return index


@functools.lru_cache(maxsize=None)
def jet_algebra(degree: int) -> JetAlgebra:
    return JetAlgebra(degree)


@functools.lru_cache(maxsize=None)
def _block_rules(blocks: int, block_pairs: tuple) -> tuple:
    """The rules that a ring's block table fixes, shared by every ring
    with that table: the (left, right, output) blocks of its pairs as
    arrays, the solve order (:attr:`JetRing.waves`) and the plans of the
    block product (:meth:`JetRing._plan`), filled in on first use."""
    left, right, out = np.array(block_pairs).T
    for table in (left, right, out):
        table.flags.writeable = False
    # the blocks in solve order, as slices: block o needs y_i x_j for
    # every pair (i, j, o) with i != 0, so a wave closes when a block
    # needs one inside it
    waves = [[]]
    for o in range(blocks):
        if any(i and k == o and j in waves[-1] for i, j, k in block_pairs):
            waves.append([])
        waves[-1].append(o)
    waves = tuple(slice(wave[0], wave[-1] + 1) for wave in waves)
    # live flags of both factors -> their plan
    return left, right, out, waves, {}


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
            order = min(self.order, other.order)
            coeffs = np.zeros(self.algebra.n_terms)
            if order >= 0:
                alg = jet_algebra(min(order, self.algebra.degree))
                n = alg.n_terms
                coeffs[:n] = alg.mul_coeffs(self.coeffs[:n], other.coeffs[:n])
            return JetScalar(self.algebra, coeffs, order)
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
    """Flat-array jet arithmetic; values are ndarrays with trailing axis width.

    This class owns the block layout of every ring in this module.  A value
    is ``blocks`` contiguous blocks of base-ring width, the base block
    first, and :meth:`block_view` is the one place that splits it.
    Derivatives, truncation masks, the constant part, block access and the
    lift :meth:`promote` all act through that view, so an extended ring
    defines only its block count and its nonzero block products
    (``block_pairs``).  The solve order (``waves``) follows from that table
    here too, and so does the graded solve by waves (:meth:`solve`).
    ``JetRing`` itself is the one-block case, whose ``bilinear`` and
    ``matmul`` are one jet-matrix product with no plan.
    """

    blocks = 1  # blocks per value, the base block first
    # nonzero block products (left block, right block, output block)
    block_pairs = ((0, 0, 0),)

    def __init__(self, degree: int):
        self.algebra = jet_algebra(degree)
        self.degree = degree
        self.base_width = self.algebra.n_terms
        self.width = self.blocks * self.base_width
        (self._left, self._right, self._out, self.waves,
         self._plans) = _block_rules(self.blocks, self.block_pairs)

    def zeros(self, shape) -> np.ndarray:
        return np.zeros(tuple(shape) + (self.width,))

    def const(self, values) -> np.ndarray:
        values = np.asarray(values, dtype=float)
        out = self.zeros(values.shape)
        out[..., 0] = values
        return out

    def _truncation(self, order=None) -> tuple:
        """(algebra, n) for a product of valid order ``order`` (by default
        the ring degree): it runs the tables of ``jet_algebra(order)`` on
        the first n coefficients of each block, those of degree <= order,
        and its higher coefficients are exact 0.0.  Below order 0 it is
        (None, 0): the product is exact zeros and runs nothing."""
        order = self.degree if order is None else min(order, self.degree)
        if order < 0:
            return None, 0
        alg = jet_algebra(order)
        return alg, alg.n_terms

    def matmul(self, a: np.ndarray, b: np.ndarray, order=None) -> np.ndarray:
        """(N, K, w) x (K, M, w) -> (N, M, w), valid to ``order``
        (:meth:`_truncation`)."""
        alg, n = self._truncation(order)
        out = self.zeros((len(a), b.shape[1]))
        if alg:
            out[..., :n] = alg.matmul_coeffs(a[..., :n], b[..., :n])
        return out

    @staticmethod
    def fold(x: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
        """sum_a x_a coeffs[a] for x (A, w) and constant coeffs (A, N, K):
        the (w, N, K) jet matrix that :meth:`JetAlgebra.push` takes."""
        return (x.T @ coeffs.reshape(len(x), -1)).reshape(
            x.shape[1:] + coeffs.shape[1:])

    def bilinear(self, x: np.ndarray, coeffs: np.ndarray, y: np.ndarray,
                 order=None) -> np.ndarray:
        """sum over a, k of coeffs[a, n, k] x_a y_k, for x (A, w), constant
        coeffs (A, N, K) and y (K, w): (N, w), valid to ``order``
        (:meth:`_truncation`).  x and coeffs make one jet matrix
        (:meth:`fold`), which multiplies y by one :meth:`JetAlgebra.push`
        per degree level."""
        _, n = self._truncation(order)
        return self.matmul(self.fold(x[:, :n], coeffs).transpose(1, 2, 0),
                           y[:, None], order)[:, 0]

    def solve(self, y: np.ndarray, y0_inv: np.ndarray, r: np.ndarray,
              coupling=None, order=None, known=None) -> np.ndarray:
        """Solve Y x = r for r (size, w) or (size, M, w) over this ring,
        given Y's base block y, a (size, size, base width) jet matrix, and
        the inverse ``y0_inv`` of its constant block.  x is valid to
        ``order`` (:meth:`_truncation`): the solve reads the coefficients
        of degree <= order of y and r, and x is exact 0.0 above it.

        Y's other blocks enter only through ``coupling(x, live, order)``:
        their product with x (size, M, w), valid to ``order``, for an x
        that is zero outside the blocks flagged in ``live``, (blocks,)
        booleans.  None stands for blocks that are all zero.  ``known``,
        (size, base width) or (size, M, base width), is x's base block when
        the caller has it; the first wave is then not solved again.

        Each wave of blocks (:attr:`waves`) is solved right-looking, one
        degree level of the jet at a time (column-oriented forward
        substitution, Golub & Van Loan, *Matrix Computations*, 3.1):
        x_L = y0_inv r_L for all monomials of level L at once, then y_t x_L
        for every monomial t != 0 of y with |t| <= order - L, one
        :meth:`JetAlgebra.push`, leaves the pending right-hand sides of the
        higher levels.  The blocks of a wave are extra columns of that
        solve.  The coupling of the solved wave then leaves those of the
        later blocks: block o solves y x_o = r_o - sum Y_i x_j over the
        block pairs (i, j, o) with i != 0, forward mode through a linear
        solve (Griewank & Walther, *Evaluating Derivatives*, ch. 15).
        """
        size = len(y0_inv)
        alg, n = self._truncation(order)
        out = np.zeros(r.shape)
        if not alg:
            return out
        order, bounds = alg.degree, alg.level_bounds
        # r as (size, n, blocks, cols), the kernel's layout, solved in place
        z = self.block_view(r.reshape(size, -1, self.width))[..., :n] \
            .transpose(0, 3, 2, 1).copy()
        if known is not None:
            z[:, :, 0] = known.reshape(size, -1, self.base_width)[..., :n] \
                .transpose(0, 2, 1)
        base = np.ascontiguousarray(y[..., :n].transpose(2, 0, 1))
        for wave in self.waves:
            zw = z[:, :, wave]
            if known is None or wave.start:
                for level, (lo, hi) in enumerate(zip(bounds[:-1],
                                                     bounds[1:])):
                    x = y0_inv @ zw[:, lo:hi].reshape(size, -1)
                    zw[:, lo:hi] = x.reshape(zw[:, lo:hi].shape)
                    if hi < n:
                        zw[:, hi:] -= alg.push(
                            base, x.reshape(size, hi - lo, -1), level,
                            constant=False).reshape(zw[:, hi:].shape)
            if coupling is not None and wave.stop < self.blocks:
                live = np.zeros(self.blocks, dtype=bool)
                live[wave] = True
                x = np.zeros((size, z.shape[3], self.width))
                self.block_view(x)[:, :, wave, :n] = zw.transpose(0, 3, 2, 1)
                prod = self.block_view(coupling(x, live, order))
                z[:, :, wave.stop:] -= \
                    prod[:, :, wave.stop:, :n].transpose(0, 3, 2, 1)
        self.block_view(out.reshape(size, -1, self.width))[..., :n] = \
            z.transpose(0, 3, 2, 1)
        return out

    def block_view(self, x: np.ndarray) -> np.ndarray:
        """(..., width) -> (..., blocks, base_width), as a view: writes to
        it reach x."""
        return x.reshape(x.shape[:-1] + (self.blocks, self.base_width))

    def block(self, x: np.ndarray, i: int) -> np.ndarray:
        """Block i of x, as base-ring coefficients."""
        return self.block_view(x)[..., i, :]

    def base_block(self, x: np.ndarray) -> np.ndarray:
        return self.block(x, 0)

    def constant_part(self, x: np.ndarray) -> np.ndarray:
        """Degree-zero coefficients of the base block."""
        return x[..., 0]

    def diff(self, x: np.ndarray, mu: int) -> np.ndarray:
        """d/dx^mu, block by block."""
        return self.algebra.diff_coeffs(self.block_view(x), mu).reshape(
            x.shape)

    def mask_up_to(self, order: int) -> np.ndarray:
        """The coefficients of total degree <= order, in every block."""
        return np.tile(self.algebra.mask_up_to(order), self.blocks)

    def promote(self, x_base: np.ndarray, tangents=()) -> np.ndarray:
        """Embed base-ring coefficients as the base block; block 1 + i holds
        ``tangents[i]``, and blocks without a tangent (or with None) are
        zero."""
        out = self.zeros(x_base.shape[:-1])
        view = self.block_view(out)
        view[..., 0, :] = x_base
        for i, t in enumerate(tangents):
            if t is not None:
                view[..., 1 + i, :] = t
        return out


class ExtendedRing(JetRing):
    """Base jet ring extended by nilpotent directions, value block first.

    A subclass sets its block count and ``block_pairs``, the table of
    nonzero block products (i, j, o): block i of one factor times block j
    of the other adds to block o of the product.  That table alone drives
    the rules here, through the plans of the block product
    (:meth:`_plan`) and the one loop that runs them (:meth:`_products`):
    :meth:`bilinear`, :meth:`matmul` and :meth:`live_product`.

    Each factor carries one (blocks,) vector of live flags, the blocks that
    may be nonzero somewhere in the batch; the caller passes them (the form
    layer keeps one per form) or they are found in one pass over each
    factor (:meth:`live_blocks`: a nonzero, NaN or inf).  A product
    multiplies only the pairs whose two blocks are both live, one jet-matrix
    product per live right block.  An output block that no live pair
    reaches comes out exactly 0.0, even where the other factor holds inf or
    NaN.
    """

    def bilinear(self, x: np.ndarray, coeffs: np.ndarray, y: np.ndarray,
                 live=None, order=None) -> np.ndarray:
        """:meth:`JetRing.bilinear` on the live block pairs; ``live`` is
        (lx, ly), for each factor the blocks that may be nonzero somewhere
        in the batch, as (blocks,) booleans (by default, those that are, as
        found by :meth:`live_blocks`).  One :meth:`fold` makes the jet
        matrices of the live left blocks."""
        alg, n = self._truncation(order)
        out = self.zeros((coeffs.shape[1], 1))
        if alg:
            if live is None:
                live = [self.live_blocks(z) for z in (x, y)]
            used, steps, _ = self._plan(*live)
            xs = self.block_view(x)[:, used, :n]
            mats = self.fold(xs.transpose(0, 2, 1).reshape(len(x), -1),
                             coeffs).reshape((n, -1) + coeffs.shape[1:])
            self._sum(out, alg, steps, mats, y[:, None])
        return out[:, 0]

    def matmul(self, a: np.ndarray, b: np.ndarray, live=None,
               order=None) -> np.ndarray:
        """(N, K, w) x (K, M, w) -> (N, M, w) on the live block pairs
        (``live`` as for :meth:`bilinear`), valid to ``order``
        (:meth:`JetRing._truncation`)."""
        alg, n = self._truncation(order)
        out = self.zeros((len(a), b.shape[1]))
        if alg:
            if live is None:
                live = [self.live_blocks(z) for z in (a, b)]
            used, steps, _ = self._plan(*live)
            self._sum(out, alg, steps, np.ascontiguousarray(
                self.block_view(a)[..., :n].transpose(3, 2, 0, 1)[:, used]),
                b)
        return out

    def _sum(self, out: np.ndarray, alg: JetAlgebra, steps,
             mats: np.ndarray, b: np.ndarray) -> None:
        """Add the products of a plan's steps (:meth:`_products`) to their
        output blocks of ``out`` (N, M, w), for the right factor b (K, M,
        w), on the coefficient prefixes of ``alg``'s degree."""
        n = alg.n_terms
        right = np.moveaxis(self.block_view(b)[..., :n], -2, 0)
        for outs, prod in self._products(alg, steps, mats, right):
            self.block_view(out)[:, :, outs, :n] += prod.transpose(1, 2, 0, 3)

    def _plan(self, lx: np.ndarray, ly: np.ndarray) -> tuple:
        """The block product of factors with live flags lx and ly, as (the
        left blocks used, the steps, the live flags of the product).  A
        step is (j, at, outs) for each live right block j: the places among
        the used blocks of the left blocks that meet it, and their output
        blocks.  Block sets that are runs are slices.  Kept per block
        table and pattern of flags, for every ring with that table (a
        pipeline makes many rings but repeats few patterns), so each plan's
        index work is done once per process."""
        key = lx.tobytes() + ly.tobytes()
        plan = self._plans.get(key)
        if plan is None:
            keep = lx[self._left] & ly[self._right]
            left, right, outs = (self._left[keep], self._right[keep],
                                 self._out[keep])
            used = np.unique(left)
            steps = [(j, _as_run(np.searchsorted(used, left[right == j])),
                      outs[right == j]) for j in np.unique(right)]
            live = np.zeros(self.blocks, dtype=bool)
            live[outs] = True
            plan = self._plans[key] = (_as_run(used), steps, live)
        return plan

    def _products(self, alg: JetAlgebra, steps, mats: np.ndarray,
                  right: np.ndarray):
        """Run the steps of a plan on the coefficient prefixes of
        ``alg``'s degree: per live right block j, one
        :meth:`JetAlgebra.matmul_coeffs` of ``right[j]`` (K, M, n) by the
        jet matrices ``mats[:, at]`` (n, used, N, K) of the left blocks
        that meet it, stacked as rows.  Yields each step's output blocks
        and its (outputs, N, M, n) products."""
        n, _, rows, inner = mats.shape
        for j, at, outs in steps:
            prod = alg.matmul_coeffs(
                mats[:, at].reshape(n, -1, inner).transpose(1, 2, 0),
                right[j])
            yield outs, prod.reshape((len(outs), rows) + prod.shape[1:])

    def live_blocks(self, x: np.ndarray) -> np.ndarray:
        """(..., width) -> (blocks,) booleans: the blocks, value first, that
        hold a nonzero, NaN or inf somewhere in the batch; all others are
        exactly zero."""
        # one gemv over |x|, faster than x.any(-1)
        nonzero = (np.abs(self.block_view(x)) @ np.ones(self.base_width)) != 0
        return nonzero.reshape(-1, self.blocks).any(axis=0)

    def live_product(self, lx: np.ndarray, ly: np.ndarray) -> np.ndarray:
        """(blocks,) live flags of two factors -> those of their product:
        block o may be nonzero where a pair (i, j, o) meets live blocks i
        and j."""
        return self._plan(lx, ly)[2].copy()


class NilpotentExtension(ExtendedRing):
    """Base jet ring extended by k directions eps_i with eps_i*eps_j = 0.

    A value has k+1 blocks in the layout of :class:`JetRing`:
    [value, d/d eps_1, ..., d/d eps_k].  Running a whole pipeline over this
    ring yields the pipeline value together with k exact directional
    derivatives; this is how gauge variations, commutators and
    linearizations are extracted.  A tangent block of
    the product is the tangent of one factor times the value of the other.
    """

    def __init__(self, degree: int, directions: int = 1):
        self.directions = directions
        self.blocks = directions + 1
        self.block_pairs = ((0, 0, 0),) + tuple(
            pair for d in range(1, self.blocks)
            for pair in ((0, d, d), (d, 0, d)))
        super().__init__(degree)


class EpsilonTower(ExtendedRing):
    """Base jet ring extended by one eps with eps^(order+1) = 0.

    A value has order+1 blocks in the layout of :class:`JetRing`:
    [1, eps, ..., eps^order].  Running a pipeline on fields lifted as
    eps * (A, B) extracts the exact homogeneous expansion of the result in
    powers of the fields.
    """

    def __init__(self, degree: int, order: int):
        self.blocks = order + 1
        self.block_pairs = tuple((i, j, i + j) for i in range(self.blocks)
                                 for j in range(self.blocks - i))
        super().__init__(degree)
