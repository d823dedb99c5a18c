"""Flat key-value configs for the command line tools.

One ``section.key = value`` assignment per line, ``#`` starts a comment,
blank lines are ignored.  Errors carry the file path and line number of the
offending entry.  Values stay strings until a stage asks for them with a
typed getter.  Numbers are finite: the getters refuse NaN and ±inf.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .empirics import law_quantiles


class ConfigError(Exception):
    pass


_MISSING = object()


@dataclass
class Config:
    path: str
    entries: dict = field(default_factory=dict)
    read: set = field(default_factory=set, init=False)  # every key a getter was asked for

    @classmethod
    def from_text(cls, text, path="<config>"):
        entries = {}
        for lineno, raw in enumerate(text.splitlines(), 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(
                    f"{path}:{lineno}: expected 'section.key = value', got {line!r}"
                )
            key, value = line.split("=", 1)
            key, value = key.strip(), value.strip()
            if not key or "." not in key:
                raise ConfigError(
                    f"{path}:{lineno}: keys are dotted like 'run.seed', got {key!r}"
                )
            if key in entries:
                raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
            entries[key] = (value, lineno)
        return cls(path, entries)

    @classmethod
    def from_file(cls, path):
        try:
            with open(path, "r") as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(f"{path}: cannot read config: {exc}") from exc
        return cls.from_text(text, str(path))

    def override(self, key, value):
        # line 0 marks command-line overrides in error messages
        if "." not in key:
            raise ConfigError(f"{self.path}: override keys are dotted, got {key!r}")
        self.entries[key] = (str(value), 0)

    def has(self, key):
        return key in self.entries

    def _where(self, key):
        if key not in self.entries:  # a default was used
            return self.path
        lineno = self.entries[key][1]
        return f"{self.path}:{lineno}" if lineno else f"{self.path} (--set {key})"

    def fail(self, key, message):
        raise ConfigError(f"{self._where(key)}: {message}")

    def check_keys(self, known):
        """Fails naming the first key outside ``known``, most likely a misspelling."""
        for key in self.entries:
            if key not in known:
                self.fail(key, f"unknown key {key!r}")

    def check_read(self):
        """Fails naming the first set key that no getter was asked for: the key of an option
        that was not chosen, which would otherwise be ignored."""
        for key in self.entries:
            if key not in self.read:
                self.fail(key, f"{key} is not read under the chosen options; remove it")

    def _get(self, key, default, cast, what=None, check=None):
        """``cast`` of the key's text, or ``default`` if it is absent; a ValueError from
        ``cast``, or from ``check`` on the cast value, fails naming the key."""
        self.read.add(key)
        if key not in self.entries:
            if default is _MISSING:
                raise ConfigError(f"{self.path}: missing required key {key!r}")
            return default
        raw = self.entries[key][0]
        try:
            value = cast(raw)
        except ValueError as exc:
            self.fail(key, f"{key} must be {what}, got {raw!r}" if what else f"{key}: {exc}")
        if check is not None:
            try:
                check(value)
            except ValueError as exc:
                self.fail(key, f"{key}: {exc}")
        return value

    def get_str(self, key, default=_MISSING, *, choices=None, check=None):
        value = self._get(key, default, str, "text", check)
        if choices is not None and value not in choices:
            self.fail(key, f"{key} must be one of {', '.join(choices)}; got {value!r}")
        return value

    def get_int(self, key, default=_MISSING, *, check=None):
        return self._get(key, default, int, "an integer", check)

    def get_float(self, key, default=_MISSING, *, check=None):
        return self._get(key, default, parse_number, "a finite number", check)

    def get_bool(self, key, default=_MISSING, *, check=None):
        def cast(raw):
            low = raw.lower()
            if low in ("true", "yes", "1", "on"):
                return True
            if low in ("false", "no", "0", "off"):
                return False
            raise ValueError(raw)

        return self._get(key, default, cast, "a boolean (true/false)", check)

    def get_floats(self, key, default=_MISSING, *, check=None):
        return self._get(key, default, parse_floats, "a comma list of finite numbers", check)

    def get_grid(self, key, default=_MISSING, *, quantile=False, check=np.asarray):
        """The :func:`parse_grid` result of a grid spec (``default``: a spec or None): quantile
        specs only if ``quantile``, the values of any other spec checked by ``check``."""
        def cast(raw):
            grid = parse_grid(raw)
            if grid[0] == "array" or not quantile:
                check(resolve_grid(grid))  # refuses a quantile grid: there is no data yet
            return grid

        if key not in self.entries and isinstance(default, str):
            return cast(default)
        return self._get(key, default, cast)


def parse_number(text):
    """The number ``text`` spells; ValueError unless it is finite."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{value!r} is not a finite number")
    return value


def parse_floats(text):
    """The finite numbers of a comma list, empty items skipped; ValueError if there is none."""
    values = [parse_number(tok) for tok in text.split(",") if tok.strip()]
    if not values:
        raise ValueError(f"empty list {text!r}")
    return values


def parse_grid(spec):
    """Grid specs: ``lin:LO:HI:K``, ``log:LO:HI:K``, ``quantile:QLO:QHI:K``,
    or a plain comma list of values.

    Returns ("array", values) for resolved grids and ("quantile", (qlo, qhi,
    k)) when the grid must be placed on data quantiles by the caller.
    """
    spec = spec.strip()
    head = spec.split(":", 1)[0]
    if head in ("lin", "log", "quantile"):
        parts = spec.split(":")
        if len(parts) != 4:
            raise ValueError(f"grid spec {spec!r} needs the form {head}:LO:HI:K")
        lo, hi, k = float(parts[1]), float(parts[2]), int(parts[3])
        if k < 2:
            raise ValueError("grids need at least 2 points")
        if head == "lin":
            return "array", np.linspace(lo, hi, k)
        if head == "log":
            if lo <= 0 or hi <= lo:
                raise ValueError("log grids need 0 < LO < HI")
            return "array", np.geomspace(lo, hi, k)
        if not (0 <= lo < hi <= 1):
            raise ValueError("quantile grids need 0 <= QLO < QHI <= 1")
        return "quantile", (lo, hi, k)
    return "array", np.array(parse_floats(spec))


def resolve_grid(grid, data=None, counts=None):
    """The values of a :func:`parse_grid` result, a quantile grid placed on the given data,
    each value taken ``counts`` times (once by default); levels that coincide count once."""
    kind, payload = grid
    if kind == "array":
        return payload
    if data is None:
        raise ValueError("quantile grid used where no calibration data exists")
    qlo, qhi, k = payload
    levels = np.sort(law_quantiles(data, np.linspace(qlo, qhi, k), counts))
    return levels[np.append(True, levels[1:] != levels[:-1])]
