"""Scenario files: ``key = value`` lines describing one simulation setup.

Grammar: one ``key = value`` per line, ``#`` starts a comment, blank lines
ignored. Keys are flat or dotted (``traffic.twostep.n_periodic``). Unknown
keys and malformed values are hard errors that name the offending line;
range violations name the offending key. ``emit_scenario`` writes a file
that parses back to an identical Scenario.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

from . import core

_MODES = ("on", "off", "oracle")
_DETECTIONS = ("model", "perfect")


class ScenarioError(ValueError):
    """Raised for unknown keys, bad values, or out-of-range settings."""


@dataclass(frozen=True)
class Scenario:
    """One complete simulation configuration (all times in ms)."""

    duration_ms: float = 10_000.0
    seed: int = 1
    t_tti_ms: float = 0.5
    t_p: int = 3
    n_total: int = 64
    n_cf: int = 10
    n_cr: int = 4
    estimator_mode: str = "on"
    detection: str = "model"
    ids_per_cell: int = 10
    max_attempts: int = 10
    rar_window_ms: float = 2.5
    backoff_avg_ms: float = 5.0
    conres_timer_ms: float = 24.0
    t_inactive_ms: float = 5.0
    t_initial_ms: float = 5_000.0
    t_up_ms: float = core.UP_DATA_MS
    r_threshold: int = 10
    var_threshold: float = 0.1
    twostep_n_periodic: int = 0
    twostep_n_event: int = 0
    twostep_period_ms: float = 50.0
    twostep_event_rate_per_s: float = 6.8
    fourstep_n_ue: int = 0
    fourstep_rate_per_s: float = 0.5

    def __post_init__(self):
        # NaN passes every range check below, and no setting can be infinite
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ScenarioError(f"{f.name} must be finite, got {value!r}")
        if self.seed < 0:
            raise ScenarioError("seed must be >= 0")
        if self.t_tti_ms <= 0 or self.t_tti_ms % core.TTI_GRID_MS != 0:
            raise ScenarioError(
                f"t_tti_ms must be a positive multiple of {core.TTI_GRID_MS} ms, "
                f"got {self.t_tti_ms!r}"
            )
        if not math.isfinite(self.duration_ms / self.t_tti_ms):
            raise ScenarioError(f"duration_ms gives an infinite slot count: {self.duration_ms!r}")
        if self.duration_slots < 1:
            raise ScenarioError(
                f"duration_ms must span at least one {self.t_tti_ms} ms slot, "
                f"got {self.duration_ms!r}"
            )
        if self.t_p not in (1, 2, 3):
            raise ScenarioError("t_p must be 1, 2 or 3")
        if self.n_total < 1:
            raise ScenarioError("n_total must be >= 1")
        if self.n_cf < 0:
            raise ScenarioError("n_cf must be >= 0")
        if self.n_cr < 0:
            raise ScenarioError("n_cr must be >= 0")
        if self.n_cb < 0:
            raise ScenarioError(
                f"n_cr exceeds the contention pool: n_cr={self.n_cr} leaves "
                f"n_cb={self.n_cb} but n_cb + n_cr = {self.n_total - self.n_cf} "
                "must hold with n_cb >= 0"
            )
        if self.estimator_mode not in _MODES:
            raise ScenarioError(f"estimator_mode must be one of {_MODES}")
        if self.detection not in _DETECTIONS:
            raise ScenarioError(f"detection must be one of {_DETECTIONS}")
        if self.ids_per_cell < 1:
            raise ScenarioError("ids_per_cell must be >= 1")
        if self.max_attempts < 1:
            raise ScenarioError("max_attempts must be >= 1")
        for key in ("rar_window_ms", "backoff_avg_ms", "conres_timer_ms",
                    "t_inactive_ms", "t_up_ms"):
            if getattr(self, key) < 0:
                raise ScenarioError(f"{key} must be >= 0")
        if self.t_initial_ms <= 0:
            raise ScenarioError("t_initial_ms must be > 0")
        if self.r_threshold < 2:
            raise ScenarioError("r_threshold must be >= 2")
        if self.t_p == 2 and self.r_threshold % 2 == 0:
            raise ScenarioError(
                "r_threshold must be odd when t_p = 2 so offset votes cannot tie"
            )
        if self.var_threshold <= 0:
            raise ScenarioError("var_threshold must be > 0")
        for key in ("twostep_n_periodic", "twostep_n_event", "fourstep_n_ue"):
            if getattr(self, key) < 0:
                raise ScenarioError(f"{key} must be >= 0")
        if self.twostep_n_periodic > 0 and self.twostep_period_ms <= 0:
            raise ScenarioError("twostep_period_ms must be > 0")
        if self.twostep_n_event > 0 and self.twostep_event_rate_per_s <= 0:
            raise ScenarioError("twostep_event_rate_per_s must be > 0")
        if self.fourstep_n_ue > 0 and self.fourstep_rate_per_s <= 0:
            raise ScenarioError("fourstep_rate_per_s must be > 0")
        if self.fourstep_n_ue > 0 and self.n_cb < 1:
            raise ScenarioError(
                f"n_cb must be >= 1 to serve four-step devices, got n_cb={self.n_cb}"
            )
        n_twostep = self.twostep_n_periodic + self.twostep_n_event
        if n_twostep > 0 and self.estimator_mode == "oracle":
            if self.twostep_n_event > 0 and self.n_cr < 2:
                raise ScenarioError("n_cr must be >= 2 to serve event devices")
            if self.n_cr < 1:
                raise ScenarioError("n_cr must be >= 1 to serve two-step devices")
        elif n_twostep > 0 and self.n_cr < 2:
            # "off" serves every two-step device as event traffic, and "on"
            # may classify any of them as event traffic at run time (an
            # observation timer that expires first does), so both need an
            # event preamble next to the reserved one
            raise ScenarioError(
                f"n_cr must be >= 2 to serve two-step devices with "
                f"estimator_mode={self.estimator_mode}, got n_cr={self.n_cr}"
            )

    @property
    def n_cb(self) -> int:
        return self.n_total - self.n_cf - self.n_cr

    @property
    def duration_slots(self) -> int:
        return int(round(self.duration_ms / self.t_tti_ms))


def _key(name: str) -> str:
    """The scenario-file key of a field: ``twostep_*``/``fourstep_*`` fields
    become ``traffic.<procedure>.<rest>``, every other key is the field name."""
    proc, _, rest = name.partition("_")
    return f"traffic.{proc}.{rest}" if proc in ("twostep", "fourstep") else name


# scenario-file key -> (dataclass field, type of its default), in field order
_KEYS: dict[str, tuple[str, type]] = {
    _key(f.name): (f.name, type(f.default)) for f in dataclasses.fields(Scenario)
}


def _field_value(key: str, raw: str, where: str) -> tuple[str, object]:
    """The (field, value) that one ``key = value`` pair sets; ``where``
    (``line N`` or ``override N``) starts every error message."""
    if key not in _KEYS:
        raise ScenarioError(f"{where}: unknown key {key!r}")
    if not raw:
        raise ScenarioError(f"{where}: key {key!r} has no value")
    field, typ = _KEYS[key]
    try:
        return field, int(raw, 10) if typ is int else typ(raw)
    except ValueError:
        raise ScenarioError(
            f"{where}: value {raw!r} for key {key!r} is not a valid {typ.__name__}"
        ) from None


def parse_scenario(text: str) -> Scenario:
    """Parse scenario text. Unknown keys and bad values raise ScenarioError."""
    overrides: dict[str, object] = {}
    seen: dict[str, int] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ScenarioError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, raw = body.partition("=")
        key = key.strip()
        if key in seen:
            raise ScenarioError(
                f"line {lineno}: key {key!r} already set on line {seen[key]}"
            )
        field, value = _field_value(key, raw.strip(), f"line {lineno}")
        seen[key] = lineno
        overrides[field] = value
    return Scenario(**overrides)


def read_scenario(path) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_scenario(fh.read())


def emit_scenario(scenario: Scenario) -> str:
    """Canonical text form; parse_scenario(emit_scenario(s)) == s exactly."""
    lines = []
    for key, (field, typ) in _KEYS.items():
        value = getattr(scenario, field)
        lines.append(f"{key} = {value}" if typ is str else f"{key} = {value!r}")
    return "\n".join(lines) + "\n"


def apply_overrides(scenario: Scenario, pairs) -> Scenario:
    """Apply ``key=value`` override strings (CLI --set) to a scenario."""
    overrides: dict[str, object] = {}
    for i, pair in enumerate(pairs, start=1):
        if "=" not in pair:
            raise ScenarioError(f"override {i}: expected key=value, got {pair!r}")
        key, _, raw = pair.partition("=")
        field, value = _field_value(key.strip(), raw.strip(), f"override {i}")
        overrides[field] = value
    return dataclasses.replace(scenario, **overrides)
