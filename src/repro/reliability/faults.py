"""Declarative fault injection: failures on demand, keyed like the work.

A :class:`FaultPlan` is a list of :class:`FaultSpec` entries — *at this
site, for this key, do this, this many times*.  Sites are dotted strings
chosen by the instrumented component (``"executor.job"``,
``"store.commit"``, ``"serve.score"``); keys are whatever identifies the
unit of work there (a job ``run_key``, a user id).  The harness stays
out of production paths entirely: every seam accepts ``None`` and does
nothing.

Two triggering modes cover the two process topologies:

* **explicit attempt** — the process-pool executor passes each job's
  attempt number into :meth:`FaultInjector.fire`, so matching is a pure
  function of ``(site, key, attempt)`` and works identically in any
  worker process (``attempt < times`` triggers).  Plans cross the
  process boundary as plain JSON via :meth:`FaultPlan.to_payload`.
* **internal counting** — in-process components (store, serving) omit
  the attempt and the injector counts invocations per ``(site, key)``
  under its own lock.

Actions: ``"raise"`` (any builtin exception by name, default
``IOError``), ``"crash"`` (``os._exit`` — a worker death the pool sees
as :class:`~concurrent.futures.process.BrokenProcessPool`), ``"delay"``
(sleep via an injectable sleeper), and ``"corrupt"`` (garble bytes
passing through :meth:`FaultInjector.corrupt`).
"""

from __future__ import annotations

import builtins
import os
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = ["FaultInjected", "FaultInjector", "FaultPlan", "FaultSpec"]

_ACTIONS = ("raise", "crash", "delay", "corrupt")

#: Anything matches this key.
WILDCARD = "*"


class FaultInjected(IOError):
    """Default exception for ``raise`` faults (an IOError subclass, so
    generic IO-retry paths treat it like the real thing)."""


@dataclass(frozen=True)
class FaultSpec:
    """One planned fault.

    Parameters
    ----------
    site:
        Instrumentation point, e.g. ``"executor.job"``.
    key:
        Work identity the fault applies to (``"*"`` for every key).
    action:
        ``"raise"``, ``"crash"``, ``"delay"`` or ``"corrupt"``.
    times:
        How many attempts/invocations trigger before the fault retires.
    exception:
        Builtin exception name for ``raise`` (default: ``FaultInjected``).
    message:
        Carried into the raised exception / corruption marker.
    delay_seconds:
        Sleep length for ``delay``.
    """

    site: str
    key: str
    action: str
    times: int = 1
    exception: Optional[str] = None
    message: str = "injected fault"
    delay_seconds: float = 0.0

    def __post_init__(self) -> None:
        if self.action not in _ACTIONS:
            raise ValueError(
                f"unknown fault action {self.action!r}; expected one of {_ACTIONS}"
            )
        if self.times < 1:
            raise ValueError(f"times must be >= 1, got {self.times}")
        if self.delay_seconds < 0:
            raise ValueError(
                f"delay_seconds must be >= 0, got {self.delay_seconds}"
            )

    def matches(self, site: str, key: str) -> bool:
        return self.site == site and (self.key == WILDCARD or self.key == key)

    def exception_type(self) -> type:
        if self.exception is None:
            return FaultInjected
        resolved = getattr(builtins, self.exception, None)
        if not (isinstance(resolved, type) and issubclass(resolved, BaseException)):
            raise ValueError(
                f"exception {self.exception!r} is not a builtin exception type"
            )
        return resolved

    def to_payload(self) -> dict:
        return {
            "site": self.site,
            "key": self.key,
            "action": self.action,
            "times": self.times,
            "exception": self.exception,
            "message": self.message,
            "delay_seconds": self.delay_seconds,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "FaultSpec":
        return cls(**payload)


class FaultPlan:
    """An ordered collection of fault specs (jsonable for pool workers)."""

    def __init__(self, specs: Iterable[FaultSpec] = ()) -> None:
        self.specs: Tuple[FaultSpec, ...] = tuple(specs)

    def to_payload(self) -> List[dict]:
        return [spec.to_payload() for spec in self.specs]

    @classmethod
    def from_payload(cls, payload: Sequence[dict]) -> "FaultPlan":
        return cls(FaultSpec.from_payload(entry) for entry in payload)

    def __len__(self) -> int:
        return len(self.specs)

    def __bool__(self) -> bool:
        return bool(self.specs)

    def __repr__(self) -> str:
        return f"FaultPlan({list(self.specs)!r})"


class FaultInjector:
    """Execute a :class:`FaultPlan` at instrumented sites.

    Thread-safe; *not* picklable (it holds a lock) — ship the plan's
    payload across process boundaries and rebuild the injector there.
    """

    def __init__(
        self,
        plan: FaultPlan,
        *,
        sleeper: Callable[[float], None] = time.sleep,
    ) -> None:
        self.plan = plan
        self._sleeper = sleeper
        self._lock = threading.Lock()
        self._counts: Dict[Tuple[str, str, int], int] = {}
        #: ``(site, key, action)`` of every fault that actually fired —
        #: chaos tests assert the planned failures really happened.
        self.fired: List[Tuple[str, str, str]] = []

    # ------------------------------------------------------------------ #

    def fire(self, site: str, key: str, *, attempt: Optional[int] = None) -> None:
        """Trigger any matching ``raise``/``crash``/``delay`` fault.

        ``attempt`` (0-based) makes triggering stateless — the fault
        fires while ``attempt < times``.  Without it the injector counts
        invocations per spec internally.
        """
        for index, spec in enumerate(self.plan.specs):
            if not spec.matches(site, key) or spec.action == "corrupt":
                continue
            if not self._should_trigger(spec, index, key, attempt):
                continue
            self._record(site, key, spec.action)
            if spec.action == "delay":
                self._sleeper(spec.delay_seconds)
                continue
            if spec.action == "crash":
                # A hard worker death: no exception crosses the pipe, the
                # pool discovers a broken process.  (Never reached in
                # normal operation — only under an explicit fault plan.)
                os._exit(17)
            raise spec.exception_type()(
                f"{spec.message} [site={site} key={key[:12]}]"
            )

    def corrupt(
        self,
        site: str,
        key: str,
        data: bytes,
        *,
        attempt: Optional[int] = None,
    ) -> bytes:
        """Pass ``data`` through, garbling it when a ``corrupt`` fault
        matches (truncated + marker bytes: breaks JSON and checksums)."""
        for index, spec in enumerate(self.plan.specs):
            if not spec.matches(site, key) or spec.action != "corrupt":
                continue
            if not self._should_trigger(spec, index, key, attempt):
                continue
            self._record(site, key, spec.action)
            marker = f"\x00!{spec.message}!".encode("utf-8")
            return data[: max(0, len(data) // 2)] + marker
        return data

    # ------------------------------------------------------------------ #

    def _should_trigger(
        self, spec: FaultSpec, index: int, key: str, attempt: Optional[int]
    ) -> bool:
        if attempt is not None:
            return attempt < spec.times
        with self._lock:
            count_key = (spec.site, key, index)
            seen = self._counts.get(count_key, 0)
            self._counts[count_key] = seen + 1
            return seen < spec.times

    def _record(self, site: str, key: str, action: str) -> None:
        with self._lock:
            self.fired.append((site, key, action))

    def __repr__(self) -> str:
        return f"FaultInjector(plan={self.plan!r}, fired={len(self.fired)})"
