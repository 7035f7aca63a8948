"""Run provenance: enough metadata to reproduce any saved number.

A saved ``RunResult`` or ``results/figure_*.json`` used to be an orphan —
no record of the seed, the config, or the code version that produced it.
Every engine run now stamps a *manifest*: a plain JSON-ready dict with
the full configuration, the seed, the engine, the package / python /
numpy versions, a UTC timestamp, and the elapsed wall time.  Figure
sweeps attach the analogous sweep-level manifest (the
:class:`~repro.experiments.base.Profile` plus versions).

Manifests are deliberately plain dicts, not dataclasses: they ride along
inside pickled results through process pools, serialize with ``json``
as-is, and tolerate fields added by future versions.
"""

from __future__ import annotations

import enum
import platform
from dataclasses import asdict, is_dataclass
from datetime import datetime, timezone
from typing import Any, Optional

__all__ = [
    "MANIFEST_VERSION",
    "config_from_dict",
    "config_to_dict",
    "diff_manifests",
    "package_version",
    "run_manifest",
    "sweep_manifest",
]

#: Bumped when the manifest layout changes incompatibly.
MANIFEST_VERSION = 1

_VERSION_CACHE: Optional[str] = None


def package_version() -> str:
    """The installed ``repro`` version (source-tree fallback), cached."""
    global _VERSION_CACHE
    if _VERSION_CACHE is None:
        try:
            from importlib.metadata import version

            _VERSION_CACHE = version("repro")
        except Exception:
            # Running from a source tree: import lazily to dodge the
            # repro -> core -> obs import cycle at module-load time.
            from repro import __version__

            _VERSION_CACHE = __version__
    return _VERSION_CACHE


def config_to_dict(config: Any) -> dict:
    """A :class:`~repro.core.config.SystemConfig` as a JSON-ready dict.

    Accepts any dataclass; enum values are flattened to their ``.value``.
    """
    if not is_dataclass(config):
        raise TypeError(f"expected a dataclass, got {type(config).__name__}")

    def convert(value):
        if isinstance(value, enum.Enum):
            return value.value
        if isinstance(value, dict):
            return {key: convert(v) for key, v in value.items()}
        if isinstance(value, (list, tuple)):
            return [convert(v) for v in value]
        return value

    return convert(asdict(config))


def _known_fields(cls, data: dict) -> dict:
    """``data`` restricted to ``cls``'s dataclass fields.

    Manifests tolerate fields added by future versions; the inverse
    direction must too, so unknown keys are dropped rather than raised.
    """
    from dataclasses import fields

    names = {f.name for f in fields(cls)}
    return {key: value for key, value in data.items() if key in names}


def config_from_dict(data: dict):
    """Rebuild a :class:`~repro.core.config.SystemConfig` from its dict.

    The inverse of :func:`config_to_dict` for system configs — accepts
    the ``config`` section of a run manifest (or anything that round-
    tripped through JSON): the algorithm enum is revived from its value,
    JSON lists turn back into the tuples the dataclasses expect, and
    keys unknown to this version are ignored.
    """
    from dataclasses import fields

    from repro.core.algorithms import Algorithm
    from repro.core.config import SystemConfig

    # Every dataclass-valued field of SystemConfig is a section, so one
    # added later round-trips without an edit here.  A section missing
    # from an older manifest (pre-fleet, pre-scheduler) takes defaults.
    defaults = SystemConfig()
    sections = {}
    for spec in fields(SystemConfig):
        section = type(getattr(defaults, spec.name))
        if is_dataclass(section):
            known = _known_fields(section, data.get(spec.name, {}))
            sections[spec.name] = section(**{
                key: tuple(value) if isinstance(value, list) else value
                for key, value in known.items()})
    return SystemConfig(algorithm=Algorithm(data["algorithm"]), **sections)


def _environment() -> dict:
    """The version stamps shared by run- and sweep-level manifests."""
    import numpy

    return {
        "manifest_version": MANIFEST_VERSION,
        "package": "repro",
        "package_version": package_version(),
        "python_version": platform.python_version(),
        "numpy_version": numpy.__version__,
        "created_utc": datetime.now(timezone.utc).isoformat(
            timespec="seconds"),
    }


#: Manifest keys that differ on every run by construction and therefore
#: carry no drift signal (matched against the last dotted-path component).
EPHEMERAL_MANIFEST_KEYS: tuple[str, ...] = ("created_utc", "elapsed_seconds")


def _flatten(mapping: dict, prefix: str = "") -> dict[str, Any]:
    """Nested dicts as a flat ``dotted.key -> leaf value`` map."""
    flat: dict[str, Any] = {}
    for key in sorted(mapping):
        value = mapping[key]
        path = f"{prefix}{key}"
        if isinstance(value, dict):
            flat.update(_flatten(value, f"{path}."))
        else:
            flat[path] = value
    return flat


def diff_manifests(left: Optional[dict], right: Optional[dict],
                   ignore: tuple[str, ...] = EPHEMERAL_MANIFEST_KEYS,
                   ) -> dict[str, tuple[Any, Any]]:
    """Dotted-key deltas between two manifests.

    Nested sections (the embedded config) are flattened, so a drifting
    knob reports as e.g. ``config.server.pull_bw: (0.5, 0.3)``.  Keys
    present on one side only pair with ``None``; a manifest that is
    itself ``None`` (v1 archives) is treated as empty.  Keys whose final
    path component is in ``ignore`` are skipped — by default the
    per-run timestamp and wall time, which differ on every run.
    """
    flat_left = _flatten(left or {})
    flat_right = _flatten(right or {})
    deltas: dict[str, tuple[Any, Any]] = {}
    for key in sorted(set(flat_left) | set(flat_right)):
        if key.rsplit(".", 1)[-1] in ignore:
            continue
        if flat_left.get(key) != flat_right.get(key):
            deltas[key] = (flat_left.get(key), flat_right.get(key))
    return deltas


def run_manifest(config: Any, engine: str,
                 elapsed_seconds: Optional[float] = None) -> dict:
    """Provenance for one engine run of ``config``.

    Args:
        config: the :class:`~repro.core.config.SystemConfig` simulated.
        engine: ``"fast"`` or ``"reference"``.
        elapsed_seconds: wall time of the run, when the caller timed it.
    """
    manifest = _environment()
    manifest["engine"] = engine
    manifest["seed"] = config.run.seed
    manifest["config"] = config_to_dict(config)
    if elapsed_seconds is not None:
        manifest["elapsed_seconds"] = elapsed_seconds
    return manifest


def sweep_manifest(profile: Any, engine: str = "fast",
                   elapsed_seconds: Optional[float] = None) -> dict:
    """Provenance for a figure sweep run under ``profile``.

    The profile *is* the sweep-level configuration (run-scale knobs plus
    the base seed); per-run configs live in the figure functions.
    """
    manifest = _environment()
    manifest["engine"] = engine
    manifest["seed"] = profile.base_seed
    manifest["config"] = config_to_dict(profile)
    if elapsed_seconds is not None:
        manifest["elapsed_seconds"] = elapsed_seconds
    return manifest
