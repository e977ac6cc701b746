"""Model configuration and Hamiltonian assembly.

The model is a neutral scalar (ladder family a, mass m) and a charged scalar
(particle/antiparticle ladders b and d, mass M) on a periodic box of length L,
with box momenta p = 2 pi n / L restricted to finite mode sets.  The
Hamiltonian is

    H = sum_p omega_p a+_p a_p + sum_p E_p (b+_p b_p + d+_p d_p)
        + lambda1 * Int :phi+ phi: phihat dx + lambda2 * Int :phihat^4: dx

assembled symbolically (normal ordering, then box integration by momentum
selection) as one ladder polynomial, which build_H realizes in product form.
Each piece is built here once and read everywhere else: the mode energies
(ModelConfig.mode_energies) give H0, phihat's powers are one chain, and phi+
is phi's adjoint.  The structural checks read that polynomial: an
equal-weight Riemann quadrature of the interaction density, monomial by
monomial, provides an independent oracle for the box integration (every
coefficient must agree to 1e-9), and each monomial's adjoint and charge show
that H is Hermitian and conserves charge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from functools import lru_cache
from typing import Mapping

import numpy as np

from . import ladderalg
from .errors import ConfigError, LayoutError
from .fockspace import FockLayout, LadderId, OperatorMatrix
from .ladderalg import LadderMonomial, LadderPolynomial, LadderSymbol, mode_energy

FIELD_ALGEBRA_CACHE = 8
# Charge a raising symbol adds on each ladder family; a lowering one removes it.
_RAISED_CHARGE = {"a": 0, "b": 1, "d": -1}


def _normalize_modes(values) -> tuple[int, ...]:
    modes = tuple(sorted(set(int(v) for v in values)))
    if not modes:
        raise ConfigError("mode set must be non-empty")
    return modes


def _normalize_overrides(values) -> tuple[tuple[LadderId, int], ...]:
    if isinstance(values, Mapping):
        items = values.items()
    else:
        items = tuple(values)
    pairs = tuple(sorted(((LadderId(l.family, l.mode_index), int(c)) for l, c in items)))
    if any(c < 1 for _, c in pairs):
        raise ConfigError("cutoff overrides must be >= 1")
    if len(dict(pairs)) < len(pairs):
        raise ConfigError(f"a ladder has two cutoff overrides: {', '.join(f'{l}={c}' for l, c in pairs)}")
    return pairs


@dataclass(frozen=True)
class ModelConfig:
    box_length: float = 2.0 * math.pi
    mass_neutral: float = 1.0
    mass_charged: float = 1.0
    lambda1: float = 1.0
    lambda2: float = 1.0
    neutral_modes: tuple[int, ...] = (2,)
    charged_modes: tuple[int, ...] = (1,)
    q_index: int = 1
    k_index: int = 2
    cutoff_default: int = 16
    cutoff_overrides: tuple[tuple[LadderId, int], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "neutral_modes", _normalize_modes(self.neutral_modes))
        object.__setattr__(self, "charged_modes", _normalize_modes(self.charged_modes))
        object.__setattr__(self, "cutoff_overrides", _normalize_overrides(self.cutoff_overrides))
        for name in ("box_length", "mass_neutral", "mass_charged", "lambda1", "lambda2"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite")
        if self.box_length <= 0.0:
            raise ConfigError("box_length must be positive")
        if self.mass_neutral < 0.0 or self.mass_charged < 0.0:
            raise ConfigError("masses must be non-negative")
        if self.lambda1 < 0.0 or self.lambda2 < 0.0:
            raise ConfigError("couplings must be non-negative")
        if 0 in self.neutral_modes and self.mass_neutral == 0.0:
            raise ConfigError("zero neutral mode requires mass_neutral > 0")
        if 0 in self.charged_modes and self.mass_charged == 0.0:
            raise ConfigError("zero charged mode requires mass_charged > 0")
        if any(2.0 * e * self.box_length == 0.0 for _, e in self.mode_energies()):
            raise ConfigError(
                f"2 * energy * box_length underflows to 0 at box_length = {self.box_length!r}, so the"
                " field amplitudes 1 / sqrt(2 E L) are undefined"
            )
        if self.q_index not in self.charged_modes:
            raise ConfigError(f"q_index {self.q_index} not among charged_modes")
        if self.k_index not in self.neutral_modes:
            raise ConfigError(f"k_index {self.k_index} not among neutral_modes")
        if self.cutoff_default < 1:
            raise ConfigError("cutoff_default must be >= 1")
        known = set(self.ladders())
        for lad, _ in self.cutoff_overrides:
            if lad not in known:
                raise ConfigError(f"cutoff override for unknown ladder {lad}")

    # -- derived quantities ------------------------------------------------

    def momentum(self, n: int) -> float:
        return 2.0 * math.pi * n / self.box_length

    def omega(self, n: int) -> float:
        """Neutral dispersion omega_p = sqrt(p^2 + m^2)."""
        return mode_energy(self.momentum(n), self.mass_neutral)

    def charged_energy(self, n: int) -> float:
        """Charged dispersion E_p = sqrt(p^2 + M^2)."""
        return mode_energy(self.momentum(n), self.mass_charged)

    @property
    def omega_k(self) -> float:
        return self.omega(self.k_index)

    @property
    def energy_q(self) -> float:
        return self.charged_energy(self.q_index)

    def mode_energies(self) -> tuple[tuple[LadderId, float], ...]:
        """Each ladder's (LadderId, energy) in the order of H's free terms:
        the neutral ladders, then b and d of each charged mode."""
        return tuple(
            [(LadderId("a", n), self.omega(n)) for n in self.neutral_modes]
            + [(LadderId(f, n), self.charged_energy(n)) for n in self.charged_modes for f in "bd"]
        )

    def displaced_ladders(self) -> tuple[tuple[LadderId, int], ...]:
        """Each ladder U moves, with the index of its amplitude in (f1, f2):
        b_q and d_q by f1, then a_k by f2."""
        return ((LadderId("b", self.q_index), 0), (LadderId("d", self.q_index), 0), (LadderId("a", self.k_index), 1))

    def ladders(self) -> tuple[LadderId, ...]:
        """The ladders of mode_energies, sorted: family a < b < d, then mode index."""
        return tuple(sorted(lad for lad, _ in self.mode_energies()))

    def cutoff_for(self, ladder: LadderId) -> int:
        return dict(self.cutoff_overrides).get(ladder, self.cutoff_default)

    def with_cutoff(self, cutoff: int) -> "ModelConfig":
        return replace(self, cutoff_default=cutoff, cutoff_overrides=())


def default_config() -> ModelConfig:
    return ModelConfig()


# The largest cutoff a config may give a ladder, the bound on what a config
# can make the checks allocate: the work frames of cutoff N are sized on a
# probe of r^2 + 8 r + 20 levels for the reach r = sqrt(N / 2) + f_max
# (displace.work_frame_size), 2,990 at cutoff 1,000, where each dense matrix
# takes 72 MB and the sizing about 8 s and 380 MB on a 2-vCPU x86-64 machine.
# A FockLayout built by hand takes any cutoff.
CUTOFF_CAP = 1000


def build_layout(config: ModelConfig) -> FockLayout:
    ladders = config.ladders()
    cutoffs = tuple(config.cutoff_for(l) for l in ladders)
    if any(c > CUTOFF_CAP for c in cutoffs):
        raise LayoutError(f"cutoffs must be <= {CUTOFF_CAP}")
    return FockLayout(ladders, cutoffs)


# ---------------------------------------------------------------------------
# shift profiles


@dataclass(frozen=True)
class ShiftProfile:
    """Classical profile amp * cos(wavenumber * x) added to a field by U."""

    amplitude: float
    wavenumber: float

    def __call__(self, x) -> np.ndarray | float:
        return self.amplitude * np.cos(self.wavenumber * x)


def shift_profiles(config: ModelConfig) -> tuple[ShiftProfile, ShiftProfile]:
    """(n1, n2): charged-field and neutral-field displacement profiles."""
    L = config.box_length
    n1 = ShiftProfile(2.0 / math.sqrt(2.0 * config.energy_q * L), config.momentum(config.q_index))
    n2 = ShiftProfile(2.0 / math.sqrt(2.0 * config.omega_k * L), config.momentum(config.k_index))
    return n1, n2


# ---------------------------------------------------------------------------
# Hamiltonian assembly


@dataclass(frozen=True)
class FieldAlgebra:
    """The field polynomials at a point x that every identity is built from.

    powers[j] is phihat^j and ordered_powers[j] is :phihat^j: for j = 0..4
    (j = 0 is the constant 1).
    """

    phihat: LadderPolynomial
    phi: LadderPolynomial
    phi_dag: LadderPolynomial
    density: LadderPolynomial
    charged_sum: LadderPolynomial
    charged_sum_neutral: LadderPolynomial
    cubic: LadderPolynomial
    powers: tuple[LadderPolynomial, ...]
    ordered_powers: tuple[LadderPolynomial, ...]


@lru_cache(maxsize=FIELD_ALGEBRA_CACHE)
def field_algebra(config: ModelConfig) -> FieldAlgebra:
    """phihat, phi, phi+ (phi's adjoint), :phi+ phi:, phi+ + phi,
    (phi+ + phi) phihat, :phi+ phi: phihat, phihat^j and :phihat^j:."""
    phihat = ladderalg.field_polynomial("neutral", config)
    phi = ladderalg.field_polynomial("charged", config)
    # The bundle's terms are products of up to four field amplitudes; pruning
    # would silently drop every product at or under PRUNE_TOL.
    weakest = min(min((abs(t.coefficient) for t in p.terms), default=0.0) for p in (phihat, phi))
    if weakest <= ladderalg.PRUNE_TOL ** 0.25:
        raise ConfigError(
            f"field amplitudes down to {weakest:.3g} (box_length = {config.box_length!r}) put their"
            f" fourth powers under the pruning tolerance {ladderalg.PRUNE_TOL}"
        )
    phi_dag = ladderalg.adjoint(phi)
    powers = ladderalg.powers(phihat, 4)
    density = ladderalg.normal_order(ladderalg.multiply(phi_dag, phi))
    charged_sum = phi_dag + phi
    return FieldAlgebra(
        phihat=phihat,
        phi=phi,
        phi_dag=phi_dag,
        density=density,
        charged_sum=charged_sum,
        charged_sum_neutral=ladderalg.multiply(charged_sum, phihat),
        cubic=ladderalg.multiply(density, phihat),
        powers=powers,
        ordered_powers=tuple(map(ladderalg.normal_order, powers)),
    )


def cubic_interaction_polynomial(config: ModelConfig) -> LadderPolynomial:
    """Int :phi+ phi: phihat dx, box-integrated, coupling not included."""
    return ladderalg.integrate_box(field_algebra(config).cubic, config.box_length)


def quartic_interaction_polynomial(config: ModelConfig) -> LadderPolynomial:
    """Int :phihat^4: dx, box-integrated, coupling not included."""
    return ladderalg.integrate_box(field_algebra(config).ordered_powers[4], config.box_length)


def free_polynomial(config: ModelConfig) -> LadderPolynomial:
    """H0 = sum of energy a+ a over every ladder, in mode_energies order,
    none pruned."""
    return LadderPolynomial(
        tuple(LadderMonomial(e, (LadderSymbol(lad, True), LadderSymbol(lad, False))) for lad, e in config.mode_energies())
    )


def hamiltonian_polynomial(config: ModelConfig) -> LadderPolynomial:
    """The box-integrated H: the free part (free_polynomial), then lambda1
    Int :phi+ phi: phihat and lambda2 Int :phihat^4:.  The parts share no
    monomial (two, three and four symbols), so their terms are joined as
    they are, none pruned."""
    terms = free_polynomial(config).terms
    for coupling, part in ((config.lambda1, cubic_interaction_polynomial), (config.lambda2, quartic_interaction_polynomial)):
        if coupling != 0.0:
            terms += tuple(t.scaled(coupling) for t in part(config).terms)
    return LadderPolynomial(terms)


def build_H(config: ModelConfig, layout: FockLayout | None = None) -> OperatorMatrix:
    """The Hamiltonian realized on the layout."""
    return ladderalg.realize(hamiltonian_polynomial(config), layout or build_layout(config))


def charge(monomial: LadderMonomial) -> int:
    """Charge a monomial adds: +1 for each raised b and lowered d, -1 for
    each lowered b and raised d."""
    return sum((1 if s.dagger else -1) * _RAISED_CHARGE[s.ladder.family] for s in monomial.symbols)


def interaction_density_polynomial(config: ModelConfig) -> LadderPolynomial:
    """lambda1 :phi+ phi: phihat + lambda2 :phihat^4: at a point x."""
    fa = field_algebra(config)
    return config.lambda1 * fa.cubic + config.lambda2 * fa.ordered_powers[4]


def interaction_quadrature(config: ModelConfig) -> LadderPolynomial:
    """Riemann-quadrature oracle for the box integral of the interaction
    density, term by term, to compare with integrate_box's coefficients."""
    indices = [abs(n) for n in config.neutral_modes + config.charged_modes]
    n_x = 4 * max(indices) + 5
    return ladderalg.quadrature_integrate(interaction_density_polynomial(config), config.box_length, n_x)


# ---------------------------------------------------------------------------
# plain-text config files

_OPTIONAL_KEYS = ("cutoff_overrides",)
_REQUIRED_KEYS = tuple(f.name for f in fields(ModelConfig) if f.name not in _OPTIONAL_KEYS)


def _parse_int_list(text: str, key: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split(",") if tok.strip())
    except ValueError as exc:
        raise ConfigError(f"cannot parse {key}: {text!r}") from exc


def _parse_overrides(text: str) -> tuple[tuple[LadderId, int], ...]:
    pairs = []
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            continue
        if "=" not in tok:
            raise ConfigError(f"cannot parse cutoff override {tok!r}")
        lad_text, _, value = tok.partition("=")
        try:
            lad = LadderId.parse(lad_text)
            pairs.append((lad, int(value)))
        except Exception as exc:
            raise ConfigError(f"cannot parse cutoff override {tok!r}") from exc
    return tuple(pairs)


def parse_config(text: str) -> ModelConfig:
    """Parse `key = value` lines; blank lines and # comments are skipped.

    Exactly the documented keys are accepted; unknown or repeated keys are
    errors, as is any missing key other than cutoff_overrides.
    """
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected key = value")
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key not in _REQUIRED_KEYS + _OPTIONAL_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in raw:
            raise ConfigError(f"line {lineno}: repeated key {key!r}")
        raw[key] = value.strip()
    missing = [k for k in _REQUIRED_KEYS if k not in raw]
    if missing:
        raise ConfigError(f"missing keys: {', '.join(missing)}")
    try:
        kwargs = dict(
            box_length=float(raw["box_length"]),
            mass_neutral=float(raw["mass_neutral"]),
            mass_charged=float(raw["mass_charged"]),
            lambda1=float(raw["lambda1"]),
            lambda2=float(raw["lambda2"]),
            q_index=int(raw["q_index"]),
            k_index=int(raw["k_index"]),
            cutoff_default=int(raw["cutoff_default"]),
        )
    except ValueError as exc:
        raise ConfigError(f"bad numeric value: {exc}") from exc
    kwargs["neutral_modes"] = _parse_int_list(raw["neutral_modes"], "neutral_modes")
    kwargs["charged_modes"] = _parse_int_list(raw["charged_modes"], "charged_modes")
    kwargs["cutoff_overrides"] = _parse_overrides(raw.get("cutoff_overrides", ""))
    return ModelConfig(**kwargs)


def load_config(path) -> ModelConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return parse_config(text)
