"""Run configuration: INI-style text, validation with full violation lists.

``_KEYS`` declares every key once: its section, its default text, and the
converter that turns its text into a value (raising ``ValueError`` with the
reason on bad text) or the tuple of its admissible values.  Constraint
names cited by the validator:

* ``k below k0``: the weight index must satisfy k >= 10 (Landau) or
  k >= 17 (Boltzmann weights).
* ``gamma range``, ``s range``, ``gamma+2s``: the model's own constraints,
  reported by :meth:`vplandau.weights.WeightSpec.violations`.

The parser also checks ``VPLANDAU_THREADS`` and echoes its count as
``workers``; the run itself reads the variable where it splits the spatial
nodes (:func:`vplandau.grid.split_nodes`).
"""

from __future__ import annotations

import configparser
import math
from types import SimpleNamespace

from .errors import ConfigError
from .grid import PhaseGrid, SpatialGrid, VelocityGrid, threads_from_env
from .weights import MODELS, WeightSpec

K0 = {"landau": 10.0, "boltzmann": 17.0}


def _rejecting(convert, bad, need):
    """``convert``, refusing the values for which ``bad`` holds."""
    def checked(text):
        value = convert(text)
        if bad(value):
            raise ValueError(f"{need}, got {value}")
        return value
    return checked


def _boolean(text):
    state = configparser.ConfigParser.BOOLEAN_STATES.get(text.strip().lower())
    if state is None:
        raise ValueError(f"not a boolean: {text!r}")
    return state


_POSITIVE_INT = _rejecting(int, lambda n: n < 1, "positive integer required")
_POSITIVE = _rejecting(float, lambda x: not 0 < x < math.inf,
                       "must be positive and finite")
_FINITE = _rejecting(float, lambda x: not math.isfinite(x), "must be finite")
_GRID_SIZE = _rejecting(int, lambda n: n < 4 or n & (n - 1) != 0,
                        "power of two >= 4 required")
_NON_NEGATIVE_INT = _rejecting(int, lambda n: n < 0, "must be >= 0")

_KEYS = {
    "model": {"model": ("landau", MODELS), "gamma": ("-3.0", float),
              "s": ("", lambda t: float(t) if t.strip() else None),
              "k": ("10.0", float)},
    "grid": {"dim_x": ("1", _rejecting(int, lambda d: d not in (1, 2, 3),
                                       "must be 1, 2 or 3")),
             "n_x": ("16", _GRID_SIZE), "n_v": ("16", _GRID_SIZE),
             "cutoff": ("8.0", _POSITIVE)},
    "time": {"dt": ("0.01", _POSITIVE), "t_final": ("1.0", _POSITIVE),
             "scheme": ("strang_rk4", ("strang_rk4", "picard_implicit")),
             "picard_tol": ("1e-10", _POSITIVE),
             "picard_max_iters": ("25", _POSITIVE_INT)},
    "initial": {
        "family": ("single_mode",
                   ("single_mode", "two_mode", "random_bandlimited")),
        "amplitude": ("1e-3", _FINITE),
        "modes": ("1", lambda t: tuple(int(tok) for tok in
                                       t.replace(",", " ").split())),
        "profile": ("maxwellian", ("maxwellian", "vmu", "weighted_maxwellian",
                                   "hermite", "offdiag")),
        "tail_power": ("4.0", _FINITE),
        "species": ("opposite", ("opposite", "same")),
        "seed": ("1234", _NON_NEGATIVE_INT)},
    "output": {"directory": ("out", str.strip),
               "csv": ("series.csv", str.strip),
               "summary": ("summary.json", str.strip),
               "checkpoint_every": ("0", _NON_NEGATIVE_INT),
               "record_every": ("1", _POSITIVE_INT)},
    "flags": {"conservative_correction": ("true", _boolean),
              "mode": ("nonlinear",
                       ("nonlinear", "linearized", "operator_test")),
              "transient_fraction": ("0.1", _rejecting(
                  float, lambda x: not 0 <= x < 1, "must lie in [0, 1)"))},
}


class RunConfig(SimpleNamespace):
    """The effective configuration: one attribute per key of ``_KEYS``, in
    its order, then ``workers``, the ``VPLANDAU_THREADS`` count the summary
    echoes."""

    def phase_grid(self):
        return PhaseGrid(SpatialGrid(self.dim_x, self.n_x),
                         VelocityGrid(self.n_v, self.cutoff))

    def weight_spec(self):
        return WeightSpec(model=self.model, gamma=self.gamma, k=self.k,
                          s=self.s)

    def echo(self):
        """Flat key=value view of the effective configuration."""
        return dict(vars(self))


def _convert(convert, text):
    """``text`` as a value: through ``convert``, or checked against its tuple."""
    if not isinstance(convert, tuple):
        return convert(text)
    if text.strip() not in convert:
        raise ValueError(f"{text.strip()!r} is not one of {', '.join(convert)}")
    return text.strip()


def defaults():
    """``{"section.key": value}`` of a config that sets no key, in the order
    of ``_KEYS``."""
    return {f"{section}.{key}": _convert(convert, text)
            for section, keys in _KEYS.items()
            for key, (text, convert) in keys.items()}


def _unreadable(exc):
    """The violation, naming its line, of text ``configparser`` cannot read."""
    if isinstance(exc, configparser.DuplicateSectionError):
        what = f"section [{exc.section}] appears twice"
    elif isinstance(exc, configparser.DuplicateOptionError):
        what = f"key {exc.section}.{exc.option} appears twice"
    elif isinstance(exc, configparser.MissingSectionHeaderError):
        what = "text before the first section header"
    else:
        what = "neither a section header nor key = value"
    line = getattr(exc, "lineno", None) or exc.errors[0][0]
    return f"line {line}: {what}"


def parse_config(text, overrides=None):
    """Parse and validate configuration text; collect every violation.

    ``overrides`` is an optional mapping of ``section.key`` to raw string
    values applied after the file content (the CLI's --set flags).  Every
    section and key, in the text and in the overrides, must be one that
    ``_KEYS`` names.  Values are taken literally: ``%`` is no interpolation.
    """
    # no default section, so a "[DEFAULT]" header is an ordinary, unknown one
    parser = configparser.ConfigParser(default_section="", interpolation=None)
    parser.read_dict({section: {key: entry[0] for key, entry in keys.items()}
                      for section, keys in _KEYS.items()})
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError([_unreadable(exc)]) from None
    violations = [f"[{section}]: unknown section" for section in
                  parser.sections() if section not in _KEYS]
    violations += [f"{section}.{key}: unknown key" for section in _KEYS
                   for key in parser[section] if key not in _KEYS[section]]
    for dotted, value in (overrides or {}).items():
        section, _, key = dotted.partition(".")
        if section not in _KEYS:
            violations.append(f"{dotted}: unknown section {section!r}")
        elif key.lower() not in _KEYS[section]:
            violations.append(f"{dotted}: unknown key")
        else:
            parser[section][key] = value
    # model names are case-insensitive; the other choices are not
    parser["model"]["model"] = parser["model"]["model"].lower()

    values = {}
    for section, keys in _KEYS.items():
        for key, (_, convert) in keys.items():
            try:
                values[key] = _convert(convert, parser[section][key])
            except ValueError as exc:
                violations.append(f"{section}.{key}: {exc}")

    model, gamma, k = (values.get(key) for key in ("model", "gamma", "k"))
    if None not in (model, gamma, k):
        violations += WeightSpec.violations(model, gamma, k, values.get("s"))
    if model is not None and k is not None and k < K0[model]:
        violations.append(
            f"k below k0={K0[model]:g} for {model.capitalize()}: got {k}")
    if values.get("mode") == "linearized" and values.get("checkpoint_every"):
        violations.append("output.checkpoint_every: the linearized mode "
                          "writes no checkpoints; 0 required, got "
                          f"{values['checkpoint_every']}")

    try:
        values["workers"] = threads_from_env()
    except ValueError as exc:
        violations.append(str(exc))

    if violations:
        raise ConfigError(violations)
    return RunConfig(**values)


def load_config(path, overrides=None):
    with open(path) as fh:
        return parse_config(fh.read(), overrides)
