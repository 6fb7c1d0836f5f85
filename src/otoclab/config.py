"""Experiment configuration: a JSON-serializable dataclass mirroring the
run parameters of the figure reproductions, with validation and hashing."""
from __future__ import annotations

import hashlib
import json
import os
import sys
from dataclasses import dataclass, field

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
from .husimi import PhaseGrid


@dataclass(frozen=True)
class LabeledPoint:
    label: str
    q: float
    p: float


@dataclass(frozen=True)
class FitSpec:
    """Either a fixed window (t_lo, t_hi) or an auto window search."""

    window: tuple[float, float] | None = None
    auto: bool = False
    min_span: float = 0.08
    search: tuple[float, float] | None = None


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
    output_dir: str | None = None

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
        for name in ("gamma", "g"):
            value = getattr(self, name)
            if value is not None and not _is_finite(value):
                raise ConfigError(f"{name} must be a finite number, got {value!r}")
        if self.system == "hiho":
            if self.gamma is None or self.g is None:
                raise ConfigError("hiho requires gamma and g")
            if self.gamma <= 0 or self.g <= 0:
                raise ConfigError("gamma and g must be positive")
        if not self.n_p or not all(_is_int(k) and k >= 1 for k in self.n_p):
            raise ConfigError(f"n_p must be a non-empty list of integers >= 1, got {self.n_p!r}")
        if not self.points:
            raise ConfigError("at least one initial point is required")
        for pt in self.points:
            # labels name the output files
            if not (isinstance(pt.label, str) and pt.label
                    and "/" not in pt.label and os.sep not in pt.label):
                raise ConfigError(f"point label {pt.label!r} must be a non-empty "
                                  f"string without a path separator")
            if not (_is_finite(pt.q) and _is_finite(pt.p)):
                raise ConfigError(f"point {pt.label} needs finite numbers q and p, "
                                  f"got ({pt.q!r}, {pt.p!r})")
        labels = [pt.label for pt in self.points]
        if len(set(labels)) != len(labels):
            raise ConfigError(f"point labels must be distinct, got {labels}")
        # json reads NaN and Infinity, and NaN fails every comparison
        if not (_is_finite(self.t_end) and self.t_end > 0):
            raise ConfigError(f"t_end must be positive and finite, got {self.t_end!r}")
        if not (_is_int(self.n_samples) and self.n_samples >= 2):
            raise ConfigError(f"n_samples must be an integer >= 2, got {self.n_samples!r}")
        if not (_is_finite(self.dt) and self.dt > 0):
            raise ConfigError(f"dt must be positive and finite, got {self.dt!r}")
        if self.husimi is not None:
            grid = self.husimi.grid
            bounds = (grid.q_min, grid.q_max, grid.p_min, grid.p_max)
            if not all(_is_finite(x) for x in bounds):
                raise ConfigError(f"husimi grid bounds must be finite numbers, got {bounds}")
            if not (_is_int(grid.n_q) and _is_int(grid.n_p)):
                raise ConfigError(f"husimi n_q and n_p must be integers, "
                                  f"got {grid.n_q!r} and {grid.n_p!r}")
            if not all(_is_finite(t) for t in self.husimi.snapshot_times):
                raise ConfigError(f"husimi snapshot times must be finite numbers, "
                                  f"got {list(self.husimi.snapshot_times)}")
        fit = self.fit
        if fit is not None and fit.auto:
            if not (_is_number(fit.min_span) and fit.min_span > 0):
                raise ConfigError(f"fit min_span must be positive, got {fit.min_span!r}")
            if fit.search is not None and not _is_interval(fit.search):
                raise ConfigError(f"fit search {fit.search!r} is not (t_lo, t_hi) with t_lo < t_hi")
        elif fit is not None and not _is_interval(fit.window):
            raise ConfigError(f"fit window {fit.window!r} is not (t_lo, t_hi) with t_lo < t_hi")
        for k in self.n_p:
            dim = FockDim(k)
            for pt in self.points:
                mu = abs(CoherentParams(pt.q, pt.p).beta) ** 2
                if coherent_tail(mu, dim) >= TAIL_TOL:
                    raise ConfigError(
                        f"point {pt.label} ({pt.q}, {pt.p}) violates the coherent "
                        f"tail precondition at n_p={k}"
                    )


def _is_number(x) -> bool:
    """An int or float; JSON's true/false load as bool, a subclass of int."""
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _is_finite(x) -> bool:
    """A number with a finite float value: not NaN or +-Infinity, which json
    reads, nor an int past the float range."""
    return _is_number(x) and abs(x) <= sys.float_info.max


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_interval(w) -> bool:
    """A (t_lo, t_hi) pair of numbers with t_lo < t_hi."""
    return (w is not None and len(w) == 2
            and all(_is_number(x) for x in w) and w[0] < w[1])


def config_to_dict(cfg: ExperimentConfig) -> dict:
    d = {
        "system": cfg.system,
        "n_p": list(cfg.n_p),
        "points": [{"label": p.label, "q": p.q, "p": p.p} for p in cfg.points],
        "t_end": cfg.t_end,
        "n_samples": cfg.n_samples,
        "dt": cfg.dt,
    }
    if cfg.gamma is not None:
        d["gamma"] = cfg.gamma
    if cfg.g is not None:
        d["g"] = cfg.g
    if cfg.husimi is not None:
        g = cfg.husimi.grid
        d["husimi"] = {
            "q_min": g.q_min,
            "q_max": g.q_max,
            "p_min": g.p_min,
            "p_max": g.p_max,
            "n_q": g.n_q,
            "n_p": g.n_p,
            "snapshot_times": list(cfg.husimi.snapshot_times),
        }
    if cfg.fit is not None:
        if cfg.fit.auto:
            f = {"window": "auto", "min_span": cfg.fit.min_span}
            if cfg.fit.search is not None:
                f["search"] = list(cfg.fit.search)
        else:
            f = {"window": list(cfg.fit.window)}
        d["fit"] = f
    if cfg.output_dir is not None:
        d["output_dir"] = cfg.output_dir
    return d


def config_from_dict(d: dict) -> ExperimentConfig:
    try:
        husimi = None
        if "husimi" in d:
            h = d["husimi"]
            husimi = HusimiSpec(
                grid=PhaseGrid(
                    q_min=h["q_min"],
                    q_max=h["q_max"],
                    p_min=h["p_min"],
                    p_max=h["p_max"],
                    n_q=h["n_q"],
                    n_p=h["n_p"],
                ),
                snapshot_times=tuple(h["snapshot_times"]),
            )
        fit = None
        if "fit" in d:
            f = d["fit"]
            if f.get("window") == "auto":
                fit = FitSpec(
                    auto=True,
                    min_span=f.get("min_span", 0.08),
                    search=tuple(f["search"]) if "search" in f else None,
                )
            else:
                fit = FitSpec(window=tuple(f["window"]))
        return ExperimentConfig(
            system=d["system"],
            n_p=tuple(d["n_p"]),
            points=tuple(
                LabeledPoint(label=p["label"], q=p["q"], p=p["p"])
                for p in d["points"]
            ),
            t_end=d["t_end"],
            n_samples=d["n_samples"],
            gamma=d.get("gamma"),
            g=d.get("g"),
            dt=d.get("dt", 1e-3),
            husimi=husimi,
            fit=fit,
            output_dir=d.get("output_dir"),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed config: {exc}") from exc


def serialize(cfg: ExperimentConfig) -> str:
    return json.dumps(config_to_dict(cfg), sort_keys=True, indent=2) + "\n"


def parse(text: str) -> ExperimentConfig:
    try:
        return config_from_dict(json.loads(text))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON: {exc}") from exc


def load(path) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        cfg = parse(fh.read())
    cfg.validate()
    return cfg


def config_hash(cfg: ExperimentConfig) -> str:
    canon = json.dumps(config_to_dict(cfg), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()
