"""Observer attachment: shadow bound methods on component *instances*.

Every runtime reaches the shared components through an instance lookup
(``tick = server.tick``, ``mc.lookup(page, now)``), so an instance
attribute of the same name shadows the class's method.  An
:class:`Attachment` places such shadows and takes them away again.  The
slot tracer, the request tracer and the profiler are each a handful of
them, so the engines carry no observer code and an unobserved run has no
branch to pay for.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Iterable, Optional, Protocol

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (obs -> core)
    from repro.core.build import SystemState

__all__ = ["Attachment", "Observer"]

_ABSENT: Any = object()


class Attachment:
    """Shadows placed together and removed together.

    A shadow is ``(component, method name, stand_in)``; while attached,
    ``component.name(*args)`` runs ``stand_in(inner, *args)``, ``inner``
    being what the name resolved to before.  Shadows stack — a later one
    wraps whatever it finds on the instance — and each puts back exactly
    what it found, so attachments come off in the reverse of the order
    they went on.  Placing is all-or-nothing; ``on_detach`` is called
    once, after the shadows are gone.
    """

    def __init__(self,
                 shadows: Iterable[tuple[Any, str, Callable[..., Any]]],
                 on_detach: Optional[Callable[[], None]] = None) -> None:
        #: ``(component, name, what vars() held before)``.
        self._placed: list[tuple[Any, str, Any]] = []
        #: Emptied by detach(): a loop that hoisted a shadow before then
        #: still holds it, and from then on it calls straight through.
        self._live = [True]
        self._on_detach: Optional[Callable[[], None]] = None
        try:
            for target, name, stand_in in shadows:
                self._place(target, name, stand_in)
        except BaseException:
            self.detach()
            raise
        self._on_detach = on_detach

    def _place(self, target: Any, name: str,
               stand_in: Callable[..., Any]) -> None:
        found = vars(target).get(name, _ABSENT)
        inner = getattr(target, name)
        live = self._live

        def shadow(*args: Any) -> Any:
            if live:
                return stand_in(inner, *args)
            return inner(*args)

        setattr(target, name, shadow)
        self._placed.append((target, name, found))

    def detach(self) -> None:
        """Remove the shadows, last placed first (idempotent)."""
        self._live.clear()
        while self._placed:
            target, name, found = self._placed.pop()
            if found is _ABSENT:
                delattr(target, name)
            else:
                setattr(target, name, found)
        on_detach, self._on_detach = self._on_detach, None
        if on_detach is not None:
            on_detach()

    def __enter__(self) -> "Attachment":
        return self

    def __exit__(self, *exc: object) -> None:
        self.detach()


class Observer(Protocol):
    """What ``RunProtocol`` attaches for the length of a run."""

    def attach(self, state: "SystemState") -> Attachment:
        """Shadow the component calls of ``state`` this observer watches."""
        ...
