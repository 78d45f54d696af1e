"""Differential forms on 4D Minkowski space with internal-vector-space values.

Components are jets (see :mod:`ymft.jets`), stored on the canonical basis of
strictly increasing index tuples, so antisymmetry is built into the storage.
The metric is diag(-1, 1, 1, 1) with orientation eps_{0123} = +1; all sign
tables derived from that choice are collected in :class:`MinkowskiConvention`
and documented in CONVENTIONS.md.

Wedge products are paired over internal indices by a coupling tensor
``pairing[c, a, b]`` (structure constants, metrics, the deformation
couplings) and over components by a sign table.  Both are constants, so one
GEMM with no jet products folds them and the left factor x into a jet
matrix L[(c, k), (b, j)] = sum_{a, i} sign_{ijk} pairing[c, a, b] x^a_i,
which multiplies the right factor by the jet-matrix kernel
(:meth:`ymft.jets.JetRing.bilinear`), at the valid order of the product,
the lesser of its factors' orders: the coefficients above it are exact
zeros and cost nothing.  The fold coefficients sign_{ijk} pairing[c, a, b]
depend on the constants alone, so they are built once per process for
each pairing and sign table and shared by every product that uses them.
A zero pairing multiplies nothing and gives the exact zero form.  A
non-finite coefficient can reach every output component of its jet matrix
(inf * 0 = NaN in the GEMM); blocks that no live pair reaches stay
exactly 0.0.  The exterior derivative is likewise one derivative per
direction over all components, then one signed matrix.

Over an extended ring (a nilpotent extension or an epsilon tower) a form
also records which blocks may be nonzero anywhere in it: one flag vector
per form (:attr:`LieForm.live`).  A form built from an array reads them
off its values; a sum takes the union of its operands' flags, a scale,
exterior derivative or Hodge dual keeps them, and a product derives them
by the ring's block rule and multiplies only those blocks.  A block that
cancels to zero in exact arithmetic (the tangent of d(d chi), say) so
stays live whatever its roundoff, and the work of a pipeline does not
depend on the values it runs on.

Gradients run the other way, by one reverse (adjoint) sweep over the base
ring (Griewank & Walther, *Evaluating Derivatives*, ch. 3-4).  A form made
by :func:`mark_leaf` is an independent variable; every sum, difference,
negation, scale, Hodge dual and wedge product of a marked form records a
:class:`Node`, its operands' nodes and the rule that maps the adjoint of its
output to theirs.  :func:`adjoints` walks those nodes back from one output.
The jet ring is commutative, so the adjoint of a wedge's right factor is a
product over the same fold, L^T g (:func:`wedge_adjoint`); the left factor
is the swapped wedge's right.  An operation on unmarked forms records
nothing; ``d`` and :func:`ymft.strengths.apply_linear` refuse a marked
form rather than drop it from the record.

Forms move between the base ring and an extended ring (a nilpotent
extension or an epsilon tower) through one lift and one read-back:
:func:`promote_form` puts a base-ring form in the base block and a list of
tangent forms in the blocks after it, and :func:`base_part` and
:func:`tangent_parts` return those blocks of a form as base-ring forms.
All go through the ring's block view, so the block layout is known only
to :mod:`ymft.jets`.

The epsilon-contraction duals that appear in component formulations of the
theories differ from the Hodge dual by a constant per degree (2 on 2-forms,
6 on 3-forms, from the absent 1/p! in the contraction).  All dynamical
formulas in this library are normalized so that the dual entering them *is*
the Hodge dual; :func:`epsilon_dual` therefore applies the frozen constants
stored on the convention (1.0 per degree), and the literal contraction
factors are kept alongside for reference (the report header prints them,
and the contraction oracle tests apply them).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .jets import NVARS, ExtendedRing, JetRing, JetScalar, jet_algebra

# Canonical ordered-component bases per form degree.
COMPS: dict[int, list[tuple[int, ...]]] = {
    p: list(itertools.combinations(range(NVARS), p)) for p in range(NVARS + 1)
}
COMP_INDEX = {p: {c: i for i, c in enumerate(COMPS[p])} for p in COMPS}

SIGNATURE = np.array([-1.0, 1.0, 1.0, 1.0])


def _perm_sign(seq) -> int:
    seq = list(seq)
    sign = 1
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if seq[i] > seq[j]:
                sign = -sign
    return sign


def _sort_sign(seq):
    """(sorted tuple, permutation sign), or (None, 0) on repeated index."""
    if len(set(seq)) != len(seq):
        return None, 0
    return tuple(sorted(seq)), _perm_sign(seq)


def _hodge_table(p: int):
    """Per ordered p-component: (complement component index, sign).

    *(dx^I) = eta^{i1 i1}...eta^{ip ip} sgn(I, I^c) dx^{I^c} for increasing I.
    """
    table = []
    for comp in COMPS[p]:
        rest = tuple(i for i in range(NVARS) if i not in comp)
        sign = _perm_sign(comp + rest)
        for i in comp:
            sign *= SIGNATURE[i]
        table.append((COMP_INDEX[NVARS - p][rest], float(sign)))
    return table

HODGE_TABLE = {p: _hodge_table(p) for p in range(NVARS + 1)}

# *^2 on p-forms for this signature: (-1, +1, -1, +1, -1).
HODGE_SQUARE_SIGN = {p: HODGE_TABLE[NVARS - p][HODGE_TABLE[p][i][0]][1]
                        * HODGE_TABLE[p][i][1]
                     for p in range(NVARS + 1)
                     for i in [0]}


def _wedge_table(p: int, q: int) -> np.ndarray:
    """S[i, j, k] with dx^{I_i} ^ dx^{J_j} = S[i, j, k] dx^{K_k}, for the
    ordered p-, q- and (p + q)-components I, J and K."""
    out = np.zeros((len(COMPS[p]), len(COMPS[q]), len(COMPS[p + q])))
    for i, ci in enumerate(COMPS[p]):
        for j, cj in enumerate(COMPS[q]):
            merged, sign = _sort_sign(ci + cj)
            if sign:
                out[i, j, COMP_INDEX[p + q][merged]] = sign
    return out

WEDGE_TABLE = {(p, q): _wedge_table(p, q)
               for p in range(NVARS + 1) for q in range(NVARS + 1)
               if p + q <= NVARS}


def _d_table(p: int) -> np.ndarray:
    """d on p-forms as a signed (comps_p+1, 4 * comps_p) matrix acting on
    the derivatives d_mu of every component, mu-major."""
    out = np.zeros((len(COMPS[p + 1]), NVARS, len(COMPS[p])))
    for i, ci in enumerate(COMPS[p]):
        for mu in range(NVARS):
            merged, sign = _sort_sign((mu,) + ci)
            if sign:
                out[COMP_INDEX[p + 1][merged], mu, i] = sign
    return out.reshape(len(out), -1)

D_TABLE = {p: _d_table(p) for p in range(NVARS)}


@dataclass(frozen=True)
class MinkowskiConvention:
    """Orientation and dual-normalization bookkeeping; the signature is
    ``SIGNATURE``."""

    orientation: float = 1.0  # eps_{0123}
    # Frozen normalization of the dual entering every dynamical formula,
    # relative to the Hodge dual.  Pinned by the nonlinear identity suite.
    epsilon_dual_constants: dict = field(
        default_factory=lambda: {2: 1.0, 3: 1.0})
    # Literal epsilon-contraction factors (no 1/p!), kept for reference.
    literal_contraction_factors: dict = field(
        default_factory=lambda: {2: 2.0, 3: 6.0})

    def as_report_header(self) -> dict:
        return {
            "signature": SIGNATURE.tolist(),
            "orientation_eps0123": self.orientation,
            "hodge_square_signs": {str(p): HODGE_SQUARE_SIGN[p]
                                   for p in range(NVARS + 1)},
            "epsilon_dual_constants": {str(k): v for k, v in
                                       sorted(self.epsilon_dual_constants.items())},
            "literal_contraction_factors": {str(k): v for k, v in
                                            sorted(self.literal_contraction_factors.items())},
        }

CONVENTION = MinkowskiConvention()


class JetOrderExhausted(ValueError):
    pass


class Node:
    """One recorded operation of a reverse sweep (see :func:`adjoints`).

    ``parents`` are the nodes of its operands, None for an operand that
    depends on no marked leaf.  ``backward`` maps the adjoint of its output
    to one adjoint per parent (None where a parent gets none).  A leaf has
    neither.
    """

    __slots__ = ("parents", "backward")

    def __init__(self, parents=(), backward=None):
        self.parents = tuple(parents)
        self.backward = backward


def _recorded(*forms) -> bool:
    return any(f.node is not None for f in forms)


def _same_ring(f: "LieForm", g: "LieForm") -> None:
    """Forms combine only over rings of one class, degree and block count
    (not one instance: :func:`random_field_config` makes its own)."""
    rf, rg = f.ring, g.ring
    if (type(rf), rf.degree, rf.blocks) != (type(rg), rg.degree, rg.blocks):
        raise ValueError("ring mismatch")


class LieForm:
    """Internal-vector-space-valued p-form with jet components.

    ``comps`` has shape (internal dim, #ordered p-components, ring width).
    ``order`` is the valid jet order shared by all components; exterior
    derivatives lower it, products take the minimum.  ``live`` names the
    blocks that may be nonzero anywhere in the form, as given by the form
    operations themselves (see :attr:`live`).  ``node`` is the
    recorded operation that made the form, None unless it depends on a
    form marked by :func:`mark_leaf`.
    """

    __slots__ = ("ring", "p", "n", "comps", "order", "_live", "node")

    def __init__(self, ring: JetRing, p: int, comps: np.ndarray,
                 order: int | None = None, live: np.ndarray | None = None,
                 node: Node | None = None):
        self.ring = ring
        self.p = p
        comps = np.asarray(comps, dtype=float)
        if comps.ndim != 3 or comps.shape[1] != len(COMPS[p]) \
                or comps.shape[2] != ring.width:
            raise ValueError("component array has wrong shape")
        self.n = comps.shape[0]
        self.comps = comps
        self.order = ring.degree if order is None else order
        self._live = live
        self.node = node

    @property
    def live(self) -> np.ndarray | None:
        """(blocks,) booleans over an extended ring, None over the base
        ring: the blocks, value first, that may be nonzero in some
        component.  Unless an operation supplied them, they are the blocks
        that hold a nonzero, NaN or inf somewhere."""
        if self._live is None and isinstance(self.ring, ExtendedRing):
            self._live = self.ring.live_blocks(self.comps)
        return self._live

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, ring: JetRing, p: int, n: int):
        return cls(ring, p, ring.zeros((n, len(COMPS[p]))))

    @classmethod
    def basis(cls, ring: JetRing, p: int, n: int, a: int, comp: int,
              value: float = 1.0):
        """Constant basis form value * e_a dx^comp."""
        comps = ring.zeros((n, len(COMPS[p])))
        comps[a, comp] = ring.const(value)
        return cls(ring, p, comps)

    # -- ring plumbing -----------------------------------------------------

    def _like(self, comps, order, live=None, node=None):
        return LieForm(self.ring, self.p, comps, order, live, node)

    def scalar(self, a: int = 0, comp: int = 0) -> JetScalar:
        """One component as a JetScalar (base block for extended rings)."""
        block = self.ring.base_block(self.comps[a, comp])
        return JetScalar(jet_algebra(self.ring.degree), block, self.order)

    def __add__(self, other: "LieForm") -> "LieForm":
        if other.p != self.p or other.n != self.n:
            raise ValueError("form shape mismatch")
        _same_ring(self, other)
        live = self.live
        if live is not None:
            live = live | other.live
        node = None
        if _recorded(self, other):
            node = Node((self.node, other.node), lambda g: (g, g))
        return self._like(self.comps + other.comps,
                          min(self.order, other.order), live, node)

    def __sub__(self, other: "LieForm") -> "LieForm":
        return self + (-other)

    def __neg__(self):
        return self.scale(-1.0)

    def scale(self, s: float) -> "LieForm":
        node = None
        if _recorded(self):
            node = Node((self.node,), lambda g: (g * s,))
        return self._like(self.comps * s, self.order, self.live, node)

    # -- calculus ----------------------------------------------------------

    def d(self) -> "LieForm":
        if self.p >= NVARS:
            raise ValueError("cannot apply d to a top-degree form")
        if self.order < 1:
            raise JetOrderExhausted("jet order exhausted by exterior derivative")
        if _recorded(self):
            raise ValueError("d of a marked form is not recorded")
        derivs = np.stack([self.ring.diff(self.comps, mu)
                           for mu in range(NVARS)], axis=1)
        out = D_TABLE[self.p] @ derivs.reshape(self.n, -1, self.ring.width)
        return LieForm(self.ring, self.p + 1, out, self.order - 1,
                       self.live)

    def wedge(self, other: "LieForm", pairing: np.ndarray) -> "LieForm":
        """Pairing-valued wedge product.

        ``pairing[c, a, b]`` multiplies self^a wedge other^b into slot c of
        the output; use shape (1, n, m) for real-valued pairings.  A zero
        pairing runs no jet product and gives the exact zero form.
        """
        if self.p + other.p > NVARS:
            raise ValueError("wedge degree overflow")
        _same_ring(self, other)
        pairing = np.asarray(pairing, dtype=float)
        if pairing.ndim != 3 or pairing.shape[1] != self.n \
                or pairing.shape[2] != other.n:
            raise ValueError("pairing shape mismatch")
        order, live, flags = min(self.order, other.order), None, ()
        if self.live is not None:
            # the ring's rule on the factors' flags; a pairing that couples
            # no pair multiplies nothing
            flags = ((self.live, other.live),)
            live = self.ring.live_product(*flags[0]) & pairing.any()
        out = _pair(self.ring, self.comps, other.comps, pairing,
                    WEDGE_TABLE[(self.p, other.p)], order, *flags)
        node = None
        if _recorded(self, other):
            # self is the right factor of other ^ self = (-1)^(pq) self ^ other
            swap = pairing.transpose(0, 2, 1) * (-1.0) ** (self.p * other.p)
            node = Node((self.node, other.node), lambda g: (
                self.node and wedge_adjoint(other, self, swap, g),
                other.node and wedge_adjoint(self, other, pairing, g)))
        return LieForm(self.ring, self.p + other.p, out, order, live, node)

    def hodge(self) -> "LieForm":
        out = self.ring.zeros((self.n, len(COMPS[NVARS - self.p])))
        for i, (k, sign) in enumerate(HODGE_TABLE[self.p]):
            out[:, k] = sign * self.comps[:, i]
        node = None
        if _recorded(self):
            # the dual permutes components with signs: its adjoint reads
            # each component's image back with the same sign
            k, sign = np.array(HODGE_TABLE[self.p]).T
            node = Node((self.node,), lambda g: (
                g[:, k.astype(int)] * sign[:, None],))
        return LieForm(self.ring, NVARS - self.p, out, self.order,
                       self.live, node)

    # -- component access --------------------------------------------------

    def max_abs(self) -> float:
        """Largest coefficient magnitude within the valid jet order."""
        if self.order < 0:
            raise JetOrderExhausted("jet order exhausted")
        mask = self.ring.mask_up_to(self.order)
        if not self.comps.size:
            return 0.0
        return float(np.abs(self.comps[..., mask]).max())


# the fold coefficients built so far, by pairing and sign table, oldest
# first; at most COEFFICIENTS_MAX_BYTES of them are kept
_COEFFICIENTS: dict = {}
COEFFICIENTS_MAX_BYTES = 1 << 24


def _coefficients(pairing: np.ndarray, signs: np.ndarray) -> np.ndarray:
    """signs[i, j, k] pairing[c, a, b] as the coefficients of a fold,
    [(a, i), (c, k), (b, j)]: the factor folded, the output, the other.

    A read-only array, built once per process for each pairing and sign
    table (keyed by their shapes and contents): a theory pairs its fields
    by a few fixed couplings, so most products reuse one.  The table drops
    its oldest entries when it holds more than COEFFICIENTS_MAX_BYTES."""
    pairing = np.asarray(pairing, dtype=float)
    key = (pairing.shape, signs.shape, pairing.tobytes(), signs.tobytes())
    out = _COEFFICIENTS.get(key)
    if out is None:
        (c, a, b), (i, j, k) = pairing.shape, signs.shape
        out = (pairing.transpose(1, 0, 2)[:, None, :, None, :, None]
               * signs.transpose(0, 2, 1)[None, :, None, :, None, :]
               ).reshape(a * i, c * k, b * j)
        out.flags.writeable = False
        _COEFFICIENTS[key] = out
        while sum(v.nbytes for v in _COEFFICIENTS.values()) \
                > COEFFICIENTS_MAX_BYTES:
            del _COEFFICIENTS[next(iter(_COEFFICIENTS))]
    return out


def _pair(ring, x, y, pairing, signs, order, *flags) -> np.ndarray:
    """sum signs[i, j, k] pairing[c, a, b] x[a, i] y[b, j] -> out[c, k],
    valid to ``order``, as one :meth:`ymft.jets.JetRing.bilinear`: x folds
    with the constants into the jet matrix L[(c, k), (b, j)], which
    multiplies y.  Only the coefficients of degree <= order are computed;
    the higher ones are exact zeros.  A pairing that couples nothing gives
    zeros and runs no product."""
    (c, a, b), (i, j, k) = pairing.shape, signs.shape
    if not pairing.any():
        return ring.zeros((c, k))
    return ring.bilinear(x.reshape(a * i, -1), _coefficients(pairing, signs),
                         y.reshape(b * j, -1), *flags,
                         order=order).reshape(c, k, -1)


def dual_wedge_matrix(p: int, right: LieForm, pairing) -> np.ndarray:
    """The jet matrix R[(c, k), (a, i)] of x -> epsilon_dual(x).wedge(right,
    pairing) on p-forms x, as (width, rows, columns), the layout of
    :meth:`ymft.jets.JetRing.fold`: ``right`` folded with the wedge's
    constants, over every block of its ring.  The dual's permutation,
    signs and constant are folded into those constants, so column (a, i)
    is that of the dual component of x^a_i times its sign."""
    dual, sign = np.array(HODGE_TABLE[p]).T
    signs = WEDGE_TABLE[(NVARS - p, right.p)][dual.astype(int)] \
        * (CONVENTION.epsilon_dual_constants[p] * sign)[:, None, None]
    coeffs = _coefficients(pairing.transpose(0, 2, 1),
                           signs.transpose(1, 0, 2))
    return right.ring.fold(right.comps.reshape(len(coeffs), -1), coeffs)


def wedge_adjoint(left: LieForm, right: LieForm, pairing,
                  g: np.ndarray) -> np.ndarray:
    """L^T g, for L the jet matrix of ``left``: the adjoint of the right factor
    of left.wedge(right, pairing) from that of the product, ``g``.  It is
    valid to the order of that product, so that the reverse pass is the
    transpose of the truncated forward one."""
    return _pair(left.ring, left.comps, g, pairing.transpose(2, 1, 0),
                 WEDGE_TABLE[(left.p, right.p)].transpose(0, 2, 1),
                 min(left.order, right.order))


def mark_leaf(f: LieForm) -> LieForm:
    """``f`` as an independent variable of a reverse sweep: a form with
    the same components whose operations are recorded."""
    return LieForm(f.ring, f.p, f.comps, f.order, node=Node())


def adjoints(output: LieForm, leaves, seed: np.ndarray | None = None
             ) -> list:
    """The adjoints of marked leaves, by one reverse sweep over the nodes
    recorded from them.

    ``seed`` is the adjoint of ``output``, by default the ring unit on a
    real-valued 4-form, which makes the result the gradient of its volume
    coefficient.  Each node, visited after every node that used its
    output, pulls its adjoint back to its parents, and the adjoints
    reaching a leaf add up.  Returns, per leaf, the ring-valued adjoint
    with the shape of its components: for the default seed, entry (a, i)
    is the derivative of the volume coefficient with respect to component
    (a, i) of the leaf, taken as a point value.  A leaf the output does not
    depend on gets zeros.
    """
    if seed is None:
        if output.p != NVARS or output.n != 1:
            raise ValueError("expected a real-valued 4-form")
        seed = output.ring.const(np.ones((1, 1)))
    # the nodes in an order that puts every node after its parents
    order, seen = [], set()
    stack = [(output.node, False)]
    while stack:
        node, done = stack.pop()
        if done:
            order.append(node)
        elif node is not None and node not in seen:
            seen.add(node)
            stack.append((node, True))
            stack.extend((parent, False) for parent in node.parents)
    adj = {}
    if output.node is not None:
        adj[output.node] = seed
    for node in reversed(order):
        if node.backward is None or node not in adj:
            continue
        for parent, g in zip(node.parents, node.backward(adj.pop(node))):
            if parent is not None and g is not None:
                adj[parent] = adj[parent] + g if parent in adj else g
    return [adj.get(leaf.node, np.zeros(leaf.comps.shape))
            for leaf in leaves]


def epsilon_dual(f: LieForm) -> LieForm:
    """The dual used by the field-strength formulas, c_p * Hodge, of a 2- or
    3-form ``f``.  The constants c_p are the frozen normalizations on
    ``CONVENTION``.
    """
    if f.p not in CONVENTION.epsilon_dual_constants:
        raise ValueError(f"epsilon_dual needs a 2- or 3-form, not a "
                         f"{f.p}-form")
    return f.hodge().scale(CONVENTION.epsilon_dual_constants[f.p])


def scalar_pairing(metric: np.ndarray) -> np.ndarray:
    """Wrap an inner-product matrix as a real-valued wedge pairing."""
    return np.asarray(metric, dtype=float)[None, :, :]


def random_field_config(seed: int, amplitude: float, degree: int,
                        dim_a: int, dim_b: int):
    """Reproducible random (A, B) pair: degree-1 and degree-2 forms.

    Coefficients are uniform in [-amplitude, amplitude]; the default
    amplitude 0.1 keeps the strength operator well conditioned.
    """
    if amplitude < 0:
        raise ValueError("amplitude must be >= 0")
    rng = np.random.default_rng(seed)
    ring = JetRing(degree)
    a_co = rng.uniform(-amplitude, amplitude,
                       (dim_a, len(COMPS[1]), ring.width))
    b_co = rng.uniform(-amplitude, amplitude,
                       (dim_b, len(COMPS[2]), ring.width))
    return LieForm(ring, 1, a_co), LieForm(ring, 2, b_co)


def random_gauge_params(seed: int, amplitude: float, degree: int,
                        dim_a: int, dim_b: int):
    """Reproducible random gauge parameters (xi 0-form on A, chi 1-form on A')."""
    rng = np.random.default_rng(seed)
    ring = JetRing(degree)
    xi_co = rng.uniform(-amplitude, amplitude, (dim_a, 1, ring.width))
    chi_co = rng.uniform(-amplitude, amplitude,
                         (dim_b, len(COMPS[1]), ring.width))
    return LieForm(ring, 0, xi_co), LieForm(ring, 1, chi_co)


def promote_form(f: LieForm, ring, tangents=()) -> LieForm:
    """Lift a base-ring form into an extended ring: f in the base block and
    the base-ring form ``tangents[i]`` in block 1 + i.

    Over a nilpotent extension that is f + sum_i eps_i tangents[i], over an
    epsilon tower f + sum_i eps^(i+1) tangents[i].  A block without a
    tangent (or with None) is zero; the order is the least of the forms'.
    """
    tangents = list(tangents)
    comps = ring.promote(f.comps, [t if t is None else t.comps
                                   for t in tangents])
    order = min([f.order] + [t.order for t in tangents if t is not None])
    return LieForm(ring, f.p, comps, order)


def _block_form(f: LieForm, i: int) -> LieForm:
    """Block i of a form over an extended ring, as a base-ring form."""
    return LieForm(JetRing(f.ring.degree), f.p,
                   f.ring.block(f.comps, i).copy(), f.order)


def base_part(f: LieForm) -> LieForm:
    """The base block of a form over an extended ring, as a base-ring
    form: the value of a nilpotent extension or an epsilon tower."""
    return _block_form(f, 0)


def tangent_parts(f: LieForm) -> list:
    """The blocks after the base block of a form over an extended ring, as
    base-ring forms: the k directional derivatives of a nilpotent
    extension, the eps^1 .. eps^k parts of an epsilon tower."""
    return [_block_form(f, i) for i in range(1, f.ring.blocks)]
