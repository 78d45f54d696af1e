"""JSON run-configuration schema: validation and object construction.

Configs are plain JSON with explicit dimensions and row-major flattened
tensors.  Validation is strict: unknown keys are rejected and every tensor
array is length-checked against the declared dimensions, so a malformed
config never reaches the numerical layers.
"""

from __future__ import annotations

import json

import numpy as np

from . import lie_core
from .deformations import (DeformationSet, family_e_only, family_general,
                           family_linear, family_solvable, family_su2,
                           make_deformation)
from .dynamics import CHECK_FUNCTIONS, DEFAULT_TOLS, TheoryVariant
from .lie_core import InternalSpace, StructureConstants


class ConfigError(ValueError):
    """Schema violation in a run configuration."""


_TOP_KEYS = {"algebra", "deformation", "jet", "checks", "tolerances",
             "observables"}
_ALGEBRA_KEYS = {"dim", "family", "inner_product", "structure_constants"}
_DEFORM_KEYS = {"family", "mass", "lambda", "v", "w", "cmap", "e", "dims",
                "a", "b", "j", "k", "inner_product_a", "inner_product_b",
                "mass_matrix", "h0", "mass_value"}
_JET_KEYS = {"degree", "amplitude", "seeds"}
_TOL_KEYS = set(DEFAULT_TOLS) | {"constraints"}
_OBS_KEYS = {"sampler", "parameter", "center", "radius", "grid", "points",
             "causality_samples", "checks"}
_ALGEBRA_FAMILIES = {"su2", "su11", "abelian"}
_DEFORM_FAMILIES = {"su2", "solvable", "e_only", "linear", "explicit",
                    "general"}
# the scalar parameters of the deformation families
_DEFORM_NUMBERS = ("mass", "lambda", "mass_value")
_SAMPLERS = {"coulomb", "radial-magnetic", "uniform-scalar", "zero"}
_OBS_CHECKS = ("charge", "causality", "trace")


def _require_keys(section: dict, allowed: set, where: str):
    if not isinstance(section, dict):
        raise ConfigError(f"{where} must be an object")
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")


def _tensor(section: dict, key: str, shape: tuple, where: str,
            default=None) -> np.ndarray:
    if key not in section:
        if default is not None:
            return default
        raise ConfigError(f"{where}.{key} is required")
    flat = section[key]
    size = int(np.prod(shape))
    if not isinstance(flat, list) or len(flat) != size:
        raise ConfigError(f"{where}.{key} must be a flat list of length "
                          f"{size} (row-major for shape {shape})")
    try:
        return np.array([float(x) for x in flat]).reshape(shape)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}.{key}: {exc}") from None


def _integer(value) -> bool:
    """An int that is not a bool (JSON true and false are ints here)."""
    return isinstance(value, int) and not isinstance(value, bool)


def _positive_int(value) -> bool:
    return _integer(value) and value > 0


def validate_degree(degree) -> None:
    """Reject a jet degree that is not a positive integer."""
    if not _positive_int(degree):
        raise ConfigError("jet.degree must be a positive integer")


def validate_seed(seed, where: str) -> None:
    """Reject a field seed that is not an integer >= 0."""
    if not (_integer(seed) and seed >= 0):
        raise ConfigError(f"{where} must be an integer >= 0")


def _finite_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) \
        and bool(np.isfinite(value))


def _require_number(section: dict, key: str, where: str) -> None:
    """Reject ``section[key]``, if present, unless it is a finite number."""
    if key in section and not _finite_number(section[key]):
        raise ConfigError(f"{where}.{key} must be a finite number")


def _validate_observables(section: dict) -> None:
    """Reject observables settings (defaults filled in) under which a run
    would check nothing or sample nothing."""
    if not isinstance(section["sampler"], str) \
            or section["sampler"] not in _SAMPLERS:
        raise ConfigError(f"unknown sampler {section['sampler']!r}")
    _require_number(section, "parameter", "observables")
    checks = section["checks"]
    # an empty list would pass with no observable checked
    if not isinstance(checks, list) or not checks:
        raise ConfigError("observables.checks must be a non-empty list")
    unknown = [check for check in checks if check not in _OBS_CHECKS]
    if unknown:
        raise ConfigError(f"unknown observables checks: {unknown}")
    for key in ("causality_samples", "points"):
        if not _positive_int(section[key]):
            raise ConfigError(f"observables.{key} must be a positive "
                              f"integer")
    grid = section["grid"]
    if not (isinstance(grid, list) and len(grid) == 2
            and all(map(_positive_int, grid))):
        raise ConfigError("observables.grid must be two positive integers")
    radius = section["radius"]
    if not (_finite_number(radius) and radius > 0):
        raise ConfigError("observables.radius must be a finite number > 0")
    center = section["center"]
    if not (isinstance(center, list) and len(center) == 3
            and all(map(_finite_number, center))):
        raise ConfigError("observables.center must be three finite numbers")


def _dims(section: dict) -> tuple:
    """The internal dimensions (dim A, dim A') of a deformation section."""
    dims = section.get("dims")
    if not (isinstance(dims, list) and len(dims) == 2
            and all(map(_positive_int, dims))):
        raise ConfigError("deformation.dims must be [dim A, dim A'], two "
                          "positive integers")
    return tuple(dims)


def validate_tolerance(tol, where: str) -> float:
    """A tolerance as a float; reject one that is not finite and >= 0."""
    try:
        value = float(tol)
    except (TypeError, ValueError):
        value = np.nan
    if not (np.isfinite(value) and value >= 0):
        raise ConfigError(f"{where} must be a finite number >= 0")
    return value


class RunConfig:
    """Validated run configuration."""

    def __init__(self, raw: dict):
        if not isinstance(raw, dict):
            raise ConfigError("top-level config must be an object")
        _require_keys(raw, _TOP_KEYS, "config")
        self.raw = raw
        self._deformation = None  # built by the first deformation() call
        self.jet = dict(degree=3, amplitude=0.1, seeds=list(range(1, 6)))
        if "jet" in raw:
            _require_keys(raw["jet"], _JET_KEYS, "jet")
            self.jet.update(raw["jet"])
        if not isinstance(self.jet["seeds"], list) or not self.jet["seeds"] \
                or not all(_integer(s) and s >= 0 for s in self.jet["seeds"]):
            raise ConfigError("jet.seeds must be a non-empty list of "
                              "integers >= 0")
        validate_degree(self.jet["degree"])
        amplitude = self.jet["amplitude"]
        if not (_finite_number(amplitude) and amplitude >= 0):
            raise ConfigError("jet.amplitude must be a finite number >= 0")

        self.tolerances = dict(DEFAULT_TOLS, constraints=1e-10)
        if "tolerances" in raw:
            _require_keys(raw["tolerances"], _TOL_KEYS, "tolerances")
            for key, val in raw["tolerances"].items():
                self.tolerances[key] = validate_tolerance(
                    val, f"tolerances.{key}")

        self.checks = raw.get("checks")
        if self.checks is not None:
            # an empty list would pass with no identity checked
            if not isinstance(self.checks, list) or not self.checks \
                    or not all(isinstance(c, str) for c in self.checks):
                raise ConfigError("checks must be a non-empty list of check "
                                  "names")
            unknown = set(self.checks) - set(CHECK_FUNCTIONS)
            if unknown:
                raise ConfigError(f"unknown checks: {sorted(unknown)}")

        if "algebra" in raw:
            _require_keys(raw["algebra"], _ALGEBRA_KEYS, "algebra")
        if "deformation" in raw:
            _require_keys(raw["deformation"], _DEFORM_KEYS, "deformation")
            for key in _DEFORM_NUMBERS:
                _require_number(raw["deformation"], key, "deformation")
        if "observables" in raw:
            _require_keys(raw["observables"], _OBS_KEYS, "observables")
            _validate_observables(self.observables_section())

    # -- builders ----------------------------------------------------------

    def structure_constants(self) -> StructureConstants:
        section = self.raw.get("algebra")
        if section is None:
            raise ConfigError("config has no algebra section")
        family = section.get("family")
        dim = section.get("dim", None if family is None else 3)
        if not _positive_int(dim):
            raise ConfigError("algebra.dim must be a positive integer")
        if family is not None:
            if family not in _ALGEBRA_FAMILIES:
                raise ConfigError(f"unknown algebra family {family!r}")
            return {"su2": lie_core.su2, "su11": lie_core.su11,
                    "abelian": lambda: lie_core.abelian(dim)}[family]()
        metric = _tensor(section, "inner_product", (dim, dim), "algebra",
                         default=np.eye(dim))
        c = _tensor(section, "structure_constants", (dim, dim, dim),
                    "algebra")
        return StructureConstants(InternalSpace(dim, metric), c)

    def deformation(self) -> DeformationSet:
        """The deformation set, built on the first call and shared by the
        later ones, so that the constraint gate and :meth:`variant` see one
        set."""
        if self._deformation is None:
            self._deformation = self._build_deformation()
        return self._deformation

    def _build_deformation(self) -> DeformationSet:
        section = self.raw.get("deformation")
        if section is None:
            raise ConfigError("config has no deformation section")
        family = section.get("family")
        if family not in _DEFORM_FAMILIES:
            raise ConfigError(f"unknown deformation family {family!r}")
        if family == "su2":
            return family_su2(float(section.get("mass", 0.0)),
                              float(section.get("lambda", 1.0)))
        if family == "solvable":
            v = _tensor(section, "v", (3,), "deformation")
            w = _tensor(section, "w", (3,), "deformation")
            cmap = _tensor(section, "cmap", (3, 3), "deformation",
                           default=np.zeros((3, 3)))
            return family_solvable(v, w, cmap)
        if family == "e_only":
            n, m = _dims(section)
            e = _tensor(section, "e", (m, n, n), "deformation")
            return family_e_only(e)
        if family == "general":
            massless = lie_core.su2()
            h0 = _tensor(section, "h0", (3, 3), "deformation",
                         default=np.eye(3))
            mass_value = float(section.get("mass_value", 1.0))
            return family_general(massless_a=massless,
                                  massless_b=lie_core.su2(), h0=h0,
                                  massive=lie_core.abelian(1),
                                  mass_value=mass_value)
        n, m = _dims(section)
        mass = _tensor(section, "mass_matrix", (n, m), "deformation",
                       default=np.zeros((n, m)))
        if family == "linear":
            return family_linear(mass)
        ga = _tensor(section, "inner_product_a", (n, n), "deformation",
                     default=np.eye(n))
        gb = _tensor(section, "inner_product_b", (m, m), "deformation",
                     default=np.eye(m))
        return make_deformation(
            InternalSpace(n, ga), InternalSpace(m, gb),
            _tensor(section, "a", (n, n, n), "deformation"),
            _tensor(section, "b", (n, m, n), "deformation"),
            _tensor(section, "j", (m, n, m), "deformation"),
            _tensor(section, "k", (m, m, m), "deformation"),
            _tensor(section, "e", (m, n, n), "deformation",
                    default=np.zeros((m, n, n))),
            mass)

    def variant(self) -> TheoryVariant:
        """The theory of the deformation set (:class:`TheoryVariant`)."""
        return TheoryVariant(self.deformation())

    def observables_section(self) -> dict:
        section = dict(sampler="coulomb", parameter=1.0,
                       center=[0.0, 0.0, 0.0], radius=2.0, grid=[64, 128],
                       points=256, causality_samples=1000,
                       checks=list(_OBS_CHECKS))
        section.update(self.raw.get("observables", {}))
        return section


def load_config(path: str) -> RunConfig:
    try:
        with open(path) as handle:
            raw = json.load(handle)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON in {path}: {exc}") from None
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    return RunConfig(raw)
