"""Audit configuration: default grids plus a flat key=value config file
with per-entry overrides in bracketed sections."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from pathlib import Path

__all__ = ["GridSpec", "AuditConfig", "ConfigError", "load_config", "DEFAULT_LAMBDAS"]

DEFAULT_LAMBDAS: tuple[Fraction, ...] = tuple(
    Fraction(s) for s in ("-2", "-1", "-1/2", "1/2", "1", "2", "3")
)


@dataclass(frozen=True)
class GridSpec:
    """Parameter bounds for one identity's verification grid."""

    m_max: int = 8
    n_max: int = 8
    p_max: int = 4
    lambdas: tuple[Fraction, ...] = DEFAULT_LAMBDAS


@dataclass(frozen=True)
class AuditConfig:
    default: GridSpec = field(default_factory=GridSpec)
    overrides: dict[str, GridSpec] = field(default_factory=dict)

    def for_entry(self, entry_id: str) -> GridSpec:
        return self.overrides.get(entry_id, self.default)


class ConfigError(ValueError):
    pass


def _apply(spec: GridSpec, key: str, value: str, lineno: int) -> GridSpec:
    try:
        if key in ("m_max", "n_max", "p_max"):
            bound = int(value)
            if bound > 10_000:  # each grid axis is built as a tuple
                raise ValueError(f"{bound} is above the largest grid bound 10000")
            return replace(spec, **{key: bound})
        if key == "lambdas":
            lams = tuple(Fraction(v.strip()) for v in value.split(",") if v.strip())
            if not lams:
                raise ValueError("empty lambda list")
            if len(set(lams)) < len(lams):
                raise ValueError("a lambda is listed twice")
            return replace(spec, lambdas=lams)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"line {lineno}: bad value for {key}: {exc}") from exc
    raise ConfigError(f"line {lineno}: unknown key {key!r}")


def load_config(path: str | Path | None) -> AuditConfig:
    """Parse the flat config format; None gives the built-in defaults."""
    if path is None:
        return AuditConfig()
    text = Path(path).read_text()
    default = GridSpec()
    overrides: dict[str, GridSpec] = {}
    section: str | None = None
    seen: set[tuple[str | None, str]] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if not section:
                raise ConfigError(f"line {lineno}: empty section name")
            if section in overrides:
                raise ConfigError(f"line {lineno}: section [{section}] given twice")
            overrides[section] = default
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if (section, key) in seen:
            raise ConfigError(f"line {lineno}: key {key!r} given twice")
        seen.add((section, key))
        if section is None:
            default = _apply(default, key, value, lineno)
            # sections seen so far inherit nothing retroactively by design
        else:
            overrides[section] = _apply(overrides[section], key, value, lineno)
    return AuditConfig(default=default, overrides=overrides)
