"""Source-tree guards that stand where a static check pays its way.

Three plain ``ast`` / introspection checks over the shipped package,
kept on the record of what the retired domain linter caught
(docs/DETERMINISM.md):

- the event vocabularies the server layer cannot import mirror the
  registry tuples in ``obs/events.py``;
- every module that imports a host clock or reaches numpy's global RNG
  is on an explicit allowlist with its reason;
- every ``SystemConfig`` leaf reaches both engines, or is a
  ``PARITY_EXEMPT`` field that exactly one engine reads.

Whether a host clock or an unseeded generator reaches a *result* is
checked at run time by ``repro-broadcast sanitize``, which replays a
config and diffs the traces bit-exactly (``test_sanitize.py``).
"""

from __future__ import annotations

import ast
from dataclasses import fields, is_dataclass
from pathlib import Path

import repro
from repro.core.config import PARITY_EXEMPT, SystemConfig
from repro.obs.events import OFFER_OUTCOMES, SCHEDULER_DISCIPLINES, SLOT_KINDS
from repro.server.broadcast_server import SlotKind
from repro.server.queue import Offer
from repro.server.schedulers import DISCIPLINES

PACKAGE = Path(repro.__file__).parent

#: Every (module, host-state import) in the package, with why it never
#: reaches a simulated result.  A new one fails the inventory test until
#: it is listed here with its reason.
HOST_STATE_ALLOWED = {
    ("cli.py", "time"):
        "user-facing elapsed wall time, never enters sim state",
    ("core/runtime.py", "time"):
        "wall-clock run duration for the manifest",
    ("obs/manifest.py", "datetime"):
        "provenance timestamp, never enters sim state",
    ("net/client.py", "time"):
        "the serving layer measures wall-clock time by design",
}

#: Modules that read the host clock or the global RNG when imported.
HOST_STATE_MODULES = ("time", "datetime", "random")

#: numpy.random's seeded Generator API; any other name there is the
#: legacy global RNG.
GENERATOR_API = frozenset({
    "default_rng", "Generator", "SeedSequence", "BitGenerator", "PCG64",
    "PCG64DXSM", "MT19937", "Philox", "SFC64"})


def _host_state(name: str) -> str | None:
    """The inventory entry for an imported or referenced dotted name."""
    top, _, rest = name.partition(".")
    if top in HOST_STATE_MODULES:
        return top
    if top == "numpy" and (rest == "random" or (
            rest.startswith("random.")
            and rest.split(".")[1] not in GENERATOR_API)):
        return name
    return None


def _names(node: ast.AST) -> list[str]:
    """Dotted names ``node`` imports or reads from ``np.random``."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom) and node.level == 0:
        return [f"{node.module}.{alias.name}" for alias in node.names]
    if (isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Attribute)
            and node.value.attr == "random"
            and isinstance(node.value.value, ast.Name)
            and node.value.value.id in ("np", "numpy")):
        return [f"numpy.random.{node.attr}"]
    return []


def host_state_uses() -> set[tuple[str, str]]:
    """(module, entry) for every host-clock / global-RNG use in the tree."""
    found = set()
    for path in sorted(PACKAGE.rglob("*.py")):
        module = path.relative_to(PACKAGE).as_posix()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            for name in _names(node):
                entry = _host_state(name)
                if entry is not None:
                    found.add((module, entry))
    return found


def test_registry_mirror():
    assert tuple(kind.value for kind in SlotKind) == SLOT_KINDS
    assert tuple(outcome.value for outcome in Offer) == OFFER_OUTCOMES
    assert DISCIPLINES == SCHEDULER_DISCIPLINES


def test_exemption_inventory():
    found = host_state_uses()
    allowed = set(HOST_STATE_ALLOWED)
    assert found == allowed, (f"unlisted: {sorted(found - allowed)}; "
                              f"stale: {sorted(allowed - found)}")


def _attributes(*names: str) -> set[str]:
    """Every attribute name read in the given ``core/`` modules."""
    return {node.attr for name in names
            for node in ast.walk(ast.parse(
                (PACKAGE / "core" / name).read_text(encoding="utf-8")))
            if isinstance(node, ast.Attribute)}


def config_leaves() -> dict[str, str]:
    """Qualified leaf name (``run.seed``) -> attribute name (``seed``)."""
    config = SystemConfig()
    leaves = {}
    for section in fields(config):
        value = getattr(config, section.name)
        if is_dataclass(value):
            for leaf in fields(value):
                leaves[f"{section.name}.{leaf.name}"] = leaf.name
        else:
            leaves[section.name] = section.name
    return leaves


def test_config_parity():
    # build.py and runtime.py are the construction path and run protocol
    # both engines share: a read there reaches both.
    fast = _attributes("fast.py", "build.py", "runtime.py")
    reference = _attributes("simulation.py", "build.py", "runtime.py")
    leaves = config_leaves()
    assert PARITY_EXEMPT <= set(leaves), \
        f"not a config field: {sorted(PARITY_EXEMPT - set(leaves))}"
    one_sided = {qualified for qualified, leaf in leaves.items()
                 if not (leaf in fast and leaf in reference)}
    assert one_sided - PARITY_EXEMPT == set(), "not read by both engines"
    assert {qualified for qualified in PARITY_EXEMPT
            if (leaves[qualified] in fast)
            == (leaves[qualified] in reference)} == set(), \
        "a PARITY_EXEMPT field must be read by exactly one engine"
