"""Experiment configuration: the frozen dataclasses are the JSON file
format, with the ``PhaseGrid`` fields flat in ``husimi`` and None fields left
out. Building a config validates it; a key that names no field, or an
invalid value, is a ConfigError."""
from __future__ import annotations

import hashlib
import json
import math
import os
import sys
from dataclasses import asdict, astuple, dataclass, fields

from .errors import ConfigError
from .fock import (
    TAIL_TOL,
    Banded,
    CoherentParams,
    FockDim,
    HihoParams,
    Model,
    build_hiho,
    build_iho,
    coherent_tail,
    hiho,
    iho,
)
from .husimi import ALPHA_MAX, PhaseGrid, max_abs_alpha
from .output import _opened

# the shortest window an auto fit searches when its config states none
AUTO_MIN_SPAN = 0.08

# the most classical RK4 steps a portrait's t_end / dt may ask for: each
# step of ``classical.integrate`` keeps its (q, p), about 89 bytes a step
MAX_STEPS = 10**6

# the most time samples n_samples may ask for: the observables evolve a
# bounded block of columns at a time, so what grows with n_samples is a few
# O(n_samples) arrays (the grid, the kept rows, the series) and the
# O(n_samples^2) windows an auto fit scores (2.5 s at 8000 samples)
MAX_SAMPLES = 10**5

# the largest truncation n_p a command may diagonalize, the photon command's
# reference included: the two parity blocks' eigenvectors take 4 D^2 bytes,
# 256 MB at D = 8001
MAX_N_P = 8000

# the most Husimi snapshot times a config may ask for: the husimi command
# evolves a point's snapshots in one batch of 16 D S bytes (12.8 MB at
# D = 8001) and writes one grid file per snapshot
MAX_SNAPSHOTS = 100

# the most points a Husimi grid may hold: ``husimi_q`` keeps every point's
# complex alpha and Q, and ``count_local_maxima`` a few grid-sized arrays,
# about 50 bytes a point in all
MAX_GRID_POINTS = 10**6


@dataclass(frozen=True)
class LabeledPoint:
    label: str
    q: float
    p: float


@dataclass(frozen=True)
class FitSpec:
    """A fixed fit window (t_lo, t_hi), or "auto": the best window at least
    ``min_span`` long inside ``search`` (default: the whole series)."""

    window: tuple[float, float] | str
    min_span: float | None = None
    search: tuple[float, float] | None = None

    def __post_init__(self):
        if self.auto and self.min_span is None:
            object.__setattr__(self, "min_span", AUTO_MIN_SPAN)

    @property
    def auto(self) -> bool:
        return self.window == "auto"


@dataclass(frozen=True)
class HusimiSpec:
    grid: PhaseGrid
    snapshot_times: tuple[float, ...]


@dataclass(frozen=True)
class ExperimentConfig:
    system: str  # "iho" | "hiho"
    n_p: tuple[int, ...]
    points: tuple[LabeledPoint, ...]
    t_end: float
    n_samples: int
    gamma: float | None = None
    g: float | None = None
    dt: float = 1e-3
    husimi: HusimiSpec | None = None
    fit: FitSpec | None = None

    def __post_init__(self):
        self.validate()

    def hiho_params(self) -> HihoParams:
        return HihoParams(self.gamma, self.g)

    def model(self) -> Model:
        """The Hamiltonian named by ``system``."""
        return iho() if self.system == "iho" else hiho(self.gamma, self.g)

    def hamiltonian(self, dim: FockDim) -> Banded:
        """``build_hamiltonian(dim, self.model())``, reached through the named
        builders: bench/tracer.py charges builds to ``fock.build_s`` by
        hooking ``build_iho`` and ``build_hiho``."""
        if self.system == "iho":
            return build_iho(dim)
        return build_hiho(dim, self.hiho_params())

    def validate(self):
        if self.system not in ("iho", "hiho"):
            raise ConfigError(f"unknown system {self.system!r}")
        # iho has no parameters: a stated one would change the hash, not the run
        if self.system == "iho" and (self.gamma is not None or self.g is not None):
            raise ConfigError(f"iho takes no gamma or g, got gamma={self.gamma!r}, "
                              f"g={self.g!r}")
        for name in ("gamma", "g"):
            value = getattr(self, name)
            if value is not None and not _is_finite(value):
                raise ConfigError(f"{name} must be a finite number, got {value!r}")
        if self.system == "hiho":
            if self.gamma is None or self.g is None:
                raise ConfigError("hiho requires gamma and g")
            if self.gamma <= 0 or self.g <= 0:
                raise ConfigError("gamma and g must be positive")
            model = self.model()
            if not all(map(math.isfinite, astuple(model))):
                raise ConfigError(f"gamma = {self.gamma!r} and g = {self.g!r} give "
                                  f"coefficients past the float range: {model}")
        if not (isinstance(self.n_p, tuple) and self.n_p
                and all(_is_int(k) and k >= 1 for k in self.n_p)):
            raise ConfigError(f"n_p must be a non-empty list of integers >= 1, got {self.n_p!r}")
        if max(self.n_p) > MAX_N_P:
            raise ConfigError(f"n_p = {max(self.n_p)} is past the cap of {MAX_N_P}")
        if not (isinstance(self.points, tuple) and self.points):
            raise ConfigError("at least one initial point is required")
        for pt in self.points:
            # labels name the output files and appear in the gnuplot scripts
            if not (isinstance(pt.label, str) and pt.label and pt.label.isprintable()
                    and "/" not in pt.label and os.sep not in pt.label):
                raise ConfigError(f"point label {pt.label!r} must be a non-empty printable "
                                  f"string without a path separator")
            if not (_is_finite(pt.q) and _is_finite(pt.p)):
                raise ConfigError(f"point {pt.label} needs finite numbers q and p, "
                                  f"got ({pt.q!r}, {pt.p!r})")
        labels = [pt.label for pt in self.points]
        if len(set(labels)) != len(labels):
            raise ConfigError(f"point labels must be distinct, got {labels}")
        # each n_p names its output files, as a label does
        if len(set(self.n_p)) != len(self.n_p):
            raise ConfigError(f"n_p values must be distinct, got {list(self.n_p)}")
        # json reads NaN and Infinity, and NaN fails every comparison
        if not (_is_finite(self.t_end) and self.t_end > 0):
            raise ConfigError(f"t_end must be positive and finite, got {self.t_end!r}")
        if not (_is_int(self.n_samples) and self.n_samples >= 2):
            raise ConfigError(f"n_samples must be an integer >= 2, got {self.n_samples!r}")
        if self.n_samples > MAX_SAMPLES:
            raise ConfigError(f"n_samples = {self.n_samples} is past the cap of {MAX_SAMPLES}")
        if not (_is_finite(self.dt) and self.dt > 0):
            raise ConfigError(f"dt must be positive and finite, got {self.dt!r}")
        if self.husimi is not None:
            grid, times = self.husimi.grid, self.husimi.snapshot_times
            bounds = (grid.q_min, grid.q_max, grid.p_min, grid.p_max)
            if not all(_is_finite(x) for x in bounds):
                raise ConfigError(f"husimi grid bounds must be finite numbers, got {bounds}")
            reach = max_abs_alpha(grid)
            if reach > ALPHA_MAX:
                raise ConfigError(f"husimi grid corners reach |alpha| = {reach:.3g}, past "
                                  f"the {ALPHA_MAX:g} that the Husimi kernel is valid to")
            if not (_is_int(grid.n_q) and _is_int(grid.n_p)):
                raise ConfigError(f"husimi n_q and n_p must be integers, "
                                  f"got {grid.n_q!r} and {grid.n_p!r}")
            if grid.n_q * grid.n_p > MAX_GRID_POINTS:
                raise ConfigError(f"husimi grid n_q x n_p = {grid.n_q} x {grid.n_p} is past "
                                  f"the cap of {MAX_GRID_POINTS} points")
            # the cap first, so a long list is refused without a scan
            if isinstance(times, tuple) and len(times) > MAX_SNAPSHOTS:
                raise ConfigError(f"husimi asks for {len(times)} snapshot times, past "
                                  f"the cap of {MAX_SNAPSHOTS}")
            if not (isinstance(times, tuple) and times and all(_is_finite(t) for t in times)):
                raise ConfigError(f"husimi snapshot times must be a non-empty list of finite "
                                  f"numbers, got {times!r}")
        fit = self.fit
        if fit is not None and fit.auto:
            if not (_is_finite(fit.min_span) and fit.min_span > 0):
                raise ConfigError(f"fit min_span must be positive and finite, "
                                  f"got {fit.min_span!r}")
            if fit.search is not None and not _is_interval(fit.search):
                raise ConfigError(f"fit search {fit.search!r} is not (t_lo, t_hi) with t_lo < t_hi")
        elif fit is not None:
            if not _is_interval(fit.window):
                raise ConfigError(f'fit window {fit.window!r} is neither "auto" '
                                  f"nor (t_lo, t_hi) with t_lo < t_hi")
            if fit.min_span is not None or fit.search is not None:
                raise ConfigError('fit min_span and search apply only to window "auto"')

    def check_coherent_tails(self):
        """The precondition of the commands that build coherent states, each
        of which calls this before any other check of its own: every point's
        Poisson tail past every n_p is below TAIL_TOL. ``portrait`` builds
        none, so it does not call this."""
        for k in self.n_p:
            dim = FockDim(k)
            for pt in self.points:
                mu = abs(CoherentParams(pt.q, pt.p).beta) ** 2
                if coherent_tail(mu, dim) >= TAIL_TOL:
                    raise ConfigError(
                        f"point {pt.label} ({pt.q}, {pt.p}) violates the coherent "
                        f"tail precondition at n_p={k}"
                    )


def _is_finite(x) -> bool:
    """An int or float with a finite float value: not NaN or +-Infinity,
    which json reads, nor an int past the float range, nor JSON's true/false,
    which load as bool, a subclass of int."""
    return (isinstance(x, (int, float)) and not isinstance(x, bool)
            and abs(x) <= sys.float_info.max)


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_interval(w) -> bool:
    """A (t_lo, t_hi) pair of finite numbers with t_lo < t_hi."""
    return (isinstance(w, tuple) and len(w) == 2
            and all(_is_finite(x) for x in w) and w[0] < w[1])


def _without_none(d: dict) -> dict:
    return {k: _without_none(v) if isinstance(v, dict) else v
            for k, v in d.items() if v is not None}


def config_to_dict(cfg: ExperimentConfig) -> dict:
    """The file's JSON object: the dataclass fields, the Husimi grid flat in
    ``husimi``, None values left out."""
    d = asdict(cfg)
    if cfg.husimi is not None:
        d["husimi"] = {**d["husimi"]["grid"], "snapshot_times": cfg.husimi.snapshot_times}
    return _without_none(d)


def _object(d, where: str) -> dict:
    if not isinstance(d, dict):
        raise ConfigError(f"{where} must be a JSON object, got {d!r}")
    return d


def _build(cls, d, where: str):
    """``cls(**d)`` with JSON lists made tuples; a key that names no field
    of ``cls`` is a ConfigError."""
    names = [f.name for f in fields(cls)]
    unknown = sorted(set(_object(d, where)) - set(names))
    if unknown:
        raise ConfigError(f"unknown key {', '.join(map(repr, unknown))} in {where}; "
                          f"the keys are {', '.join(names)}")
    return cls(**{k: tuple(v) if isinstance(v, list) else v for k, v in d.items()})


def config_from_dict(d: dict) -> ExperimentConfig:
    """Build, and so validate, the config a file's JSON object states."""
    d = dict(_object(d, "a config"))
    try:
        if "points" in d:
            d["points"] = [_build(LabeledPoint, p, "a point") for p in d["points"]]
        if d.get("fit") is not None:
            d["fit"] = _build(FitSpec, d["fit"], "fit")
        if d.get("husimi") is not None:
            grid = dict(_object(d["husimi"], "husimi"))
            times = grid.pop("snapshot_times")
            d["husimi"] = HusimiSpec(_build(PhaseGrid, grid, "husimi"), tuple(times))
        return _build(ExperimentConfig, d, "the config")
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed config: {exc}") from exc


def serialize(cfg: ExperimentConfig) -> str:
    return json.dumps(config_to_dict(cfg), sort_keys=True, indent=2) + "\n"


def parse(text: str) -> ExperimentConfig:
    try:
        d = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON: {exc}") from exc
    return config_from_dict(d)


def load(path) -> ExperimentConfig:
    """The config in the file at ``path``, read through ``output``'s one
    file-system boundary: a file that cannot be read or decoded is a
    ConfigError naming it."""
    with _opened(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return parse(text)


def config_hash(cfg: ExperimentConfig) -> str:
    canon = json.dumps(config_to_dict(cfg), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()
