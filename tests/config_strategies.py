"""Hypothesis strategies derived from the config fields' declared domains.

``legal(dotted)`` draws values a field's :class:`~repro.core.config.Domain`
admits and ``illegal(dotted)`` values it rejects; :func:`system_configs`
draws a whole configuration field by field.  Nothing here restates a
field's bounds.  The one hand-written override is :data:`LAYOUTS`:
``db_size``, ``disk_sizes`` and ``rel_freqs`` are coupled (the disks sum
to the database and align with the frequencies), so they are drawn
together, and the layout bounds the two fields coupled to it.
"""

from __future__ import annotations

import math
from dataclasses import fields, is_dataclass, replace

from hypothesis import strategies as st

from repro.core.algorithms import Algorithm
from repro.core.config import Domain, SystemConfig, config_field

_DEFAULTS = SystemConfig()

#: Every field of every SystemConfig section, dotted: ``"client.noise"``...
FIELDS: tuple[str, ...] = tuple(
    f"{section.name}.{spec.name}"
    for section in fields(SystemConfig)
    if is_dataclass(getattr(_DEFAULTS, section.name))
    for spec in fields(getattr(_DEFAULTS, section.name)))

#: ``(db_size, disk_sizes, rel_freqs)`` layouts that satisfy the coupling.
LAYOUTS = st.sampled_from((
    (20, (4, 6, 10), (3, 2, 1)), (20, (8, 12), (2, 1)), (20, (20,), (1,)),
    (1000, (100, 400, 500), (3, 2, 1))))
_LAYOUT_FIELDS = ("server.db_size", "server.disk_sizes", "server.rel_freqs")

#: Values outside every numeric domain, whatever its bounds.
_NOT_NUMBERS = (None, "1", "0.5", True, False, [1], 1j)


def domain_of(dotted: str) -> Domain:
    """The declared domain of a dotted field name."""
    return config_field(dotted).metadata["domain"]


def _bounds(domain: Domain, scale=(None, None)):
    """``(low, low_open, high, high_open)``, narrowed to ``scale``."""
    low = domain.ge if domain.ge is not None else domain.gt
    high = domain.le if domain.le is not None else domain.lt
    low_open, high_open = domain.gt is not None, domain.lt is not None
    floor, cap = scale
    if floor is not None and (low is None or floor > low):
        low, low_open = floor, False
    if cap is not None and (high is None or cap < high):
        high, high_open = cap, False
    return low, low_open, high, high_open


def _integers(low, low_open, high, high_open):
    """The integers within the bounds."""
    return st.integers(
        None if low is None
        else math.floor(low) + 1 if low_open else math.ceil(low),
        None if high is None
        else math.ceil(high) - 1 if high_open else math.floor(high))


def _legal(domain: Domain, scale=(None, None)):
    if domain.each:
        return st.lists(_legal(replace(domain, each=False), scale),
                        max_size=4).map(tuple)
    if domain.kind is bool:
        return st.booleans()
    if domain.kind is str:
        return st.sampled_from(domain.values)
    low, low_open, high, high_open = _bounds(domain, scale)
    whole = _integers(low, low_open, high, high_open)
    if domain.kind is int:
        return whole
    # A float field takes any real, an int included, stored as given.
    return st.floats(low, high, exclude_min=low_open, exclude_max=high_open,
                     allow_nan=False, allow_infinity=False) | whole


def _illegal(domain: Domain):
    if domain.each:
        element = replace(domain, each=False)
        padding = st.lists(_legal(element), max_size=2)
        return (st.lists(_legal(element), max_size=3)  # a list, not a tuple
                | st.tuples(padding, _illegal(element), padding).map(
                    lambda parts: (*parts[0], parts[1], *parts[2])))
    if domain.kind is bool:
        return st.sampled_from((0, 1, 1.0, "no", "True", None))
    if domain.kind is str:
        return (st.text().filter(lambda value: value not in domain.values)
                | st.sampled_from(domain.values).map(str.upper)
                | st.sampled_from((None, 1, b"fifo")))
    # Any float is not an int, nor nan / inf a float field's value.
    parts = [st.sampled_from(_NOT_NUMBERS),
             st.floats() if domain.kind is int
             else st.sampled_from((math.nan, math.inf, -math.inf))]
    low, low_open, high, high_open = _bounds(domain)
    if low is not None:
        parts.append(_integers(None, False, low, not low_open)
                     | st.floats(max_value=low, exclude_max=not low_open))
    if high is not None:
        parts.append(_integers(high, not high_open, None, False)
                     | st.floats(min_value=high, exclude_min=not high_open))
    # Hypothesis counts -0.0 as below a closed 0; ``>=`` does not.
    return st.one_of(parts).filter(lambda value: not domain.admits(value))


def legal(dotted: str, scale=(None, None)):
    """Values ``dotted``'s domain admits, within ``scale = (floor, cap)``
    where the test keeps a field small."""
    return _legal(domain_of(dotted), scale)


def illegal(dotted: str):
    """Values ``dotted``'s domain rejects: a wrong type, nan / inf, or a
    number just or far past a bound."""
    return _illegal(domain_of(dotted))


def _legal_or_default(dotted: str, scale=(None, None)):
    """A legal value, or half the time the field's default when it lies
    within ``scale``: defaults satisfy every cross-field rule together,
    so mixing them in keeps most drawn systems constructible."""
    default = config_field(dotted).default
    floor, cap = scale
    if ((floor is not None and default < floor)
            or (cap is not None and default > cap)):
        return legal(dotted, scale)
    return st.just(default) | legal(dotted, scale)


@st.composite
def system_configs(draw, scale=None, broken_fields=2, algorithms=None):
    """``(algorithm, updates, broken)`` for
    ``SystemConfig(algorithm=algorithm).with_(**updates)``.

    Every field is drawn legal (within ``scale[dotted]``, a
    ``(floor, cap)`` where given) except the up to ``broken_fields``
    dotted names in ``broken``, which are drawn illegal.  The layout
    also caps the two fields coupled to it: ``client.cache_size`` fits
    the slowest disk and ``server.chop`` leaves a page on the air.
    """
    scale = dict(scale or {})
    broken = draw(st.sets(st.sampled_from(FIELDS), max_size=broken_fields))
    db_size, disk_sizes, _ = layout = draw(LAYOUTS)
    scale["client.cache_size"] = (None, disk_sizes[-1])
    scale["server.chop"] = (None, db_size - 1)
    updates = {}
    for dotted in FIELDS:
        if dotted in broken:
            value = draw(illegal(dotted))
        elif dotted in _LAYOUT_FIELDS:
            value = layout[_LAYOUT_FIELDS.index(dotted)]
        else:
            value = draw(_legal_or_default(
                dotted, scale.get(dotted, (None, None))))
        updates[dotted.replace(".", "__")] = value
    algorithm = draw(st.sampled_from(algorithms or tuple(Algorithm)))
    return algorithm, updates, broken
