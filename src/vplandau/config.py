"""Run configuration: INI-style text, validation with full violation lists.

Constraint names cited by the validator:

* ``k below k0``: the weight index must satisfy k >= 10 (Landau) or
  k >= 17 (Boltzmann weights).
* ``gamma range``: gamma in [-3, 1] (Landau) or (-3, 1] (Boltzmann).
* ``s range`` / ``gamma+2s``: s in [1/2, 1) and gamma + 2s > -1 (Boltzmann).
"""

from __future__ import annotations

import configparser
import os
from dataclasses import dataclass

from .errors import ConfigError
from .grid import PhaseGrid, SpatialGrid, VelocityGrid
from .weights import WeightSpec

K0 = {"landau": 10.0, "boltzmann": 17.0}

_DEFAULTS = {
    "model": {"model": "landau", "gamma": "-3.0", "s": "", "k": "10.0"},
    "grid": {"dim_x": "1", "n_x": "16", "n_v": "16", "cutoff": "8.0"},
    "time": {"dt": "0.01", "t_final": "1.0", "scheme": "strang_rk4",
             "picard_tol": "1e-10", "picard_max_iters": "25"},
    "initial": {"family": "single_mode", "amplitude": "1e-3", "modes": "1",
                "profile": "maxwellian", "tail_power": "4.0",
                "species": "opposite", "seed": "1234"},
    "output": {"directory": "out", "csv": "series.csv",
               "summary": "summary.json", "checkpoint_every": "0",
               "record_every": "1"},
    "flags": {"conservative_correction": "true", "mode": "nonlinear",
              "transient_fraction": "0.1"},
}


@dataclass
class RunConfig:
    model: str
    gamma: float
    s: float | None
    k: float
    dim_x: int
    n_x: int
    n_v: int
    cutoff: float
    dt: float
    t_final: float
    scheme: str
    picard_tol: float
    picard_max_iters: int
    family: str
    amplitude: float
    modes: tuple
    profile: str
    tail_power: float
    species: str
    seed: int
    directory: str
    csv: str
    summary: str
    checkpoint_every: int
    record_every: int
    conservative_correction: bool
    mode: str
    transient_fraction: float
    workers: int | None = None

    def phase_grid(self):
        return PhaseGrid(SpatialGrid(self.dim_x, self.n_x),
                         VelocityGrid(self.n_v, self.cutoff))

    def weight_spec(self):
        return WeightSpec(model=self.model, gamma=self.gamma, k=self.k,
                          s=self.s)

    def echo(self):
        """Flat key=value view of the effective configuration."""
        return dict(vars(self))


def _parse_bool(text, key, violations):
    t = text.strip().lower()
    if t in ("true", "1", "yes", "on"):
        return True
    if t in ("false", "0", "no", "off"):
        return False
    violations.append(f"{key}: not a boolean: {text!r}")
    return False


def _unknown_keys(text, overrides):
    """Violations naming each section or key absent from ``_DEFAULTS``."""
    # no default section, so a "[DEFAULT]" header is an ordinary, unknown one
    given = configparser.ConfigParser(default_section="")
    given.read_string(text)
    violations = [f"[{section}]: unknown section" for section in
                  given.sections() if section not in _DEFAULTS]
    names = [f"{section}.{key}" for section in given.sections()
             if section in _DEFAULTS for key in given[section]]
    for name in names + list(overrides or ()):
        section, _, key = name.partition(".")
        if section not in _DEFAULTS:
            violations.append(f"{name}: unknown section {section!r}")
        elif key.lower() not in _DEFAULTS[section]:
            violations.append(f"{name}: unknown key")
    return violations


def parse_config(text, overrides=None):
    """Parse and validate configuration text; collect every violation.

    ``overrides`` is an optional mapping of ``section.key`` to raw string
    values applied after the file content (the CLI's --set flags).  Every
    section and key, in the text and in the overrides, must be one that
    ``_DEFAULTS`` names.
    """
    parser = configparser.ConfigParser()
    for section, defaults in _DEFAULTS.items():
        parser[section] = dict(defaults)
    parser.read_string(text)
    violations = _unknown_keys(text, overrides)
    for dotted, value in (overrides or {}).items():
        section, _, key = dotted.partition(".")
        if section in _DEFAULTS:
            parser[section][key] = value

    def get_float(section, key, allow_empty=False):
        raw = parser[section][key].strip()
        if raw == "" and allow_empty:
            return None
        try:
            return float(raw)
        except ValueError:
            violations.append(f"{section}.{key}: not a number: {raw!r}")
            return None

    def get_int(section, key):
        raw = parser[section][key].strip()
        try:
            return int(raw)
        except ValueError:
            violations.append(f"{section}.{key}: not an integer: {raw!r}")
            return 0

    model = parser["model"]["model"].strip().lower()
    if model not in ("landau", "boltzmann"):
        violations.append(f"model.model: unknown model {model!r}")
        model = "landau"
    gamma = get_float("model", "gamma")
    s = get_float("model", "s", allow_empty=True)
    k = get_float("model", "k")

    if gamma is not None:
        if model == "landau" and not (-3.0 <= gamma <= 1.0):
            violations.append(
                f"gamma range: Landau requires gamma in [-3, 1], got {gamma}")
        if model == "boltzmann" and not (-3.0 < gamma <= 1.0):
            violations.append(
                f"gamma range: Boltzmann requires gamma in (-3, 1], got {gamma}")
    if model == "boltzmann":
        if s is None:
            violations.append("s range: Boltzmann weights require model.s")
        else:
            if not (0.5 <= s < 1.0):
                violations.append(
                    f"s range: s must lie in [1/2, 1), got {s}")
            if gamma is not None and gamma + 2.0 * s <= -1.0:
                violations.append(
                    f"gamma+2s: must exceed -1, got {gamma + 2.0 * s}")
    if k is not None and k < K0[model]:
        violations.append(
            f"k below k0={K0[model]:g} for {model.capitalize()}: got {k}")

    dim_x = get_int("grid", "dim_x")
    n_x = get_int("grid", "n_x")
    n_v = get_int("grid", "n_v")
    cutoff = get_float("grid", "cutoff")
    if dim_x not in (1, 2, 3):
        violations.append(f"grid.dim_x: must be 1, 2 or 3, got {dim_x}")
    for name, n in (("n_x", n_x), ("n_v", n_v)):
        if n < 4 or (n & (n - 1)) != 0:
            violations.append(f"grid.{name}: power of two >= 4 required, got {n}")
    if cutoff is not None and cutoff <= 0:
        violations.append(f"grid.cutoff: must be positive, got {cutoff}")

    dt = get_float("time", "dt")
    t_final = get_float("time", "t_final")
    scheme = parser["time"]["scheme"].strip()
    picard_tol = get_float("time", "picard_tol")
    picard_max_iters = get_int("time", "picard_max_iters")
    if dt is not None and dt <= 0:
        violations.append(f"time.dt: must be positive, got {dt}")
    if scheme not in ("strang_rk4", "picard_implicit"):
        violations.append(f"time.scheme: unknown scheme {scheme!r}")
    if picard_tol is not None and picard_tol <= 0:
        violations.append(f"time.picard_tol: must be positive, got {picard_tol}")

    family = parser["initial"]["family"].strip()
    if family not in ("single_mode", "two_mode", "random_bandlimited"):
        violations.append(f"initial.family: unknown family {family!r}")
    amplitude = get_float("initial", "amplitude")
    try:
        modes = tuple(int(tok) for tok in
                      parser["initial"]["modes"].replace(",", " ").split())
    except ValueError:
        violations.append(
            f"initial.modes: integers required, got "
            f"{parser['initial']['modes']!r}")
        modes = (1,)
    profile = parser["initial"]["profile"].strip()
    if profile not in ("maxwellian", "vmu", "weighted_maxwellian",
                       "hermite", "offdiag"):
        violations.append(f"initial.profile: unknown profile {profile!r}")
    tail_power = get_float("initial", "tail_power")
    species = parser["initial"]["species"].strip()
    if species not in ("opposite", "same"):
        violations.append(f"initial.species: must be opposite or same, "
                          f"got {species!r}")
    seed = get_int("initial", "seed")

    mode = parser["flags"]["mode"].strip()
    if mode not in ("nonlinear", "linearized", "operator_test"):
        violations.append(f"flags.mode: unknown mode {mode!r}")
    conservative = _parse_bool(parser["flags"]["conservative_correction"],
                               "flags.conservative_correction", violations)
    transient_fraction = get_float("flags", "transient_fraction")

    workers = None
    env = os.environ.get("VPLANDAU_THREADS", "").strip()
    if env:
        try:
            workers = int(env)
        except ValueError:
            workers = 0
        if workers < 1:
            violations.append(
                f"VPLANDAU_THREADS: positive integer required, got {env!r}")

    if violations:
        raise ConfigError(violations)

    return RunConfig(
        model=model, gamma=gamma, s=s, k=k,
        dim_x=dim_x, n_x=n_x, n_v=n_v, cutoff=cutoff,
        dt=dt, t_final=t_final, scheme=scheme, picard_tol=picard_tol,
        picard_max_iters=picard_max_iters,
        family=family, amplitude=amplitude, modes=modes, profile=profile,
        tail_power=tail_power, species=species, seed=seed,
        directory=parser["output"]["directory"].strip(),
        csv=parser["output"]["csv"].strip(),
        summary=parser["output"]["summary"].strip(),
        checkpoint_every=get_int("output", "checkpoint_every"),
        record_every=max(1, get_int("output", "record_every")),
        conservative_correction=conservative, mode=mode,
        transient_fraction=transient_fraction, workers=workers,
    )


def load_config(path, overrides=None):
    with open(path) as fh:
        return parse_config(fh.read(), overrides)
