"""Run-scoped observability state.

One process hosts at most one *observed run* at a time: a run directory
(optional), a run id, and run-scoped context fields that are merged
into every emitted event.  The whole subsystem is **disabled by
default** — every hot-path entry point checks a single attribute read
(:func:`is_enabled`) and returns immediately, so instrumented code pays
essentially nothing when observability is off.

Sinks
-----
With a ``run_dir`` configured, events stream to JSONL files as they
happen (one JSON object per line, crash-safe because each line is
flushed):

- ``events.jsonl`` — structured log records (:mod:`repro.obs.logging`);
- ``trace.jsonl``  — completed spans (:mod:`repro.obs.trace`);
- ``metrics.json`` — the metrics registry snapshot, written by
  :func:`shutdown` / :func:`flush_metrics`.

Without a ``run_dir`` the same records accumulate in memory
(``state.events`` / ``state.spans``), which is what the tests use.
"""

from __future__ import annotations

import json
import os
import time
from typing import IO, List, Optional, Tuple

_RUN_COUNTER = 0


class ObsState:
    """Mutable global observability state (one instance per process)."""

    def __init__(self) -> None:
        self.enabled: bool = False
        self.run_dir: Optional[str] = None
        self.run_id: Optional[str] = None
        self.context: dict = {}
        # In-memory sinks (always populated when enabled; mirrors files).
        self.events: List[dict] = []
        self.spans: List[dict] = []
        # Keep the in-memory mirrors bounded for long runs.
        self.max_buffered: int = 100_000
        self._events_fp: Optional[IO[str]] = None
        self._trace_fp: Optional[IO[str]] = None


_STATE = ObsState()


def state() -> ObsState:
    """The process-global observability state (mostly for tests)."""
    return _STATE


def is_enabled() -> bool:
    """Cheap hot-path check: is an observed run active?"""
    return _STATE.enabled


def configure(
    run_dir: Optional[str] = None,
    enabled: bool = True,
    profile: bool = False,
    **context,
) -> ObsState:
    """Start an observed run.

    Parameters
    ----------
    run_dir:
        Directory for the JSONL sinks (created if missing).  ``None``
        keeps everything in memory.
    enabled:
        Master switch; ``configure(enabled=False)`` is equivalent to
        :func:`shutdown`.
    profile:
        Also record an op-level performance profile
        (:mod:`repro.obs.profile`) into ``run_dir`` — ``profile.jsonl``
        plus ``profile_summary.json`` at shutdown.  Requires a run
        directory.
    context:
        Run-scoped fields merged into every event (e.g. ``arch=...``).
    """
    global _RUN_COUNTER
    if profile and enabled and run_dir is None:
        raise ValueError("profile=True requires a run_dir")
    shutdown()
    if not enabled:
        return _STATE
    _RUN_COUNTER += 1
    # A run's metrics.json must describe *that* run: successive observed
    # runs in one process must not accumulate into each other's
    # snapshots (the diff engine compares them).
    from .metrics import reset_registry

    reset_registry()
    _STATE.run_id = f"run-{os.getpid()}-{_RUN_COUNTER}"
    _STATE.context = dict(context)
    _STATE.run_dir = run_dir
    _STATE.events = []
    _STATE.spans = []
    if run_dir is not None:
        os.makedirs(run_dir, exist_ok=True)
        _STATE._events_fp = open(
            os.path.join(run_dir, "events.jsonl"), "a", encoding="utf-8"
        )
        _STATE._trace_fp = open(
            os.path.join(run_dir, "trace.jsonl"), "a", encoding="utf-8"
        )
    _STATE.enabled = True
    emit_event(
        {"kind": "run_start", "ts": time.time(), "run_id": _STATE.run_id}
    )
    if run_dir is not None:
        # Runs with artefacts are worth finding later: index them and
        # watch their training health by default.  Lazy imports — both
        # modules import this one.
        from . import health, registry

        registry.register_run_start(_STATE.run_id, run_dir, _STATE.context)
        health.install(health.HealthMonitor(run_dir=run_dir))
    if profile:
        from . import profile as profile_mod

        profile_mod.start_session(run_dir)
    return _STATE


def shutdown(status: str = "completed") -> None:
    """End the observed run: dump metrics, close sinks, disable.

    ``status`` lands in the run registry's terminal record
    (``"completed"`` / ``"error"``).
    """
    run_id, run_dir = _STATE.run_id, _STATE.run_dir
    was_enabled = _STATE.enabled
    if was_enabled:
        from . import health, profile as profile_mod

        health.uninstall()
        # Before the registry end-record below: the profiler's summary
        # must exist on disk when the artefact inventory is scanned.
        profile_mod.end_session()
        emit_event(
            {
                "kind": "run_end",
                "ts": time.time(),
                "run_id": run_id,
                "status": status,
            }
        )
        flush_metrics()
    for name in ("_events_fp", "_trace_fp"):
        fp = getattr(_STATE, name)
        if fp is not None:
            fp.close()
            setattr(_STATE, name, None)
    # The in-memory mirrors survive shutdown so a finished run stays
    # inspectable; the next configure() starts them fresh.
    _STATE.enabled = False
    _STATE.run_dir = None
    _STATE.run_id = None
    _STATE.context = {}
    if was_enabled and run_dir is not None:
        # After the sinks close, so the artefact inventory sees final sizes.
        from . import registry

        registry.register_run_end(run_id, run_dir, status)


def flush_metrics() -> Optional[str]:
    """Write the global metrics registry snapshot to ``metrics.json``.

    Returns the path written, or ``None`` when no run directory is
    configured (the in-memory registry remains queryable either way).
    """
    if not _STATE.enabled or _STATE.run_dir is None:
        return None
    from .metrics import get_registry

    path = os.path.join(_STATE.run_dir, "metrics.json")
    with open(path, "w", encoding="utf-8") as fp:
        json.dump(get_registry().snapshot(), fp, indent=2, sort_keys=True)
    return path


class observe:
    """Context manager sugar: ``with observe(run_dir): ...``."""

    def __init__(self, run_dir: Optional[str] = None, **context) -> None:
        self._run_dir = run_dir
        self._context = context

    def __enter__(self) -> ObsState:
        return configure(run_dir=self._run_dir, **self._context)

    def __exit__(self, exc_type, exc, tb) -> None:
        shutdown(status="error" if exc_type is not None else "completed")


def _write_line(fp: Optional[IO[str]], record: dict) -> None:
    if fp is not None:
        fp.write(json.dumps(record, default=_json_default) + "\n")
        fp.flush()


def read_jsonl(path: str) -> Tuple[List[dict], int]:
    """All JSON-object lines of ``path`` plus the count of malformed
    ones (a torn tail from a killed run must not discard the good
    lines).  Blank lines are ignored; a missing file raises ``OSError``.
    """
    records, skipped = [], 0
    with open(path, "r", encoding="utf-8") as fp:
        for line in fp:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                skipped += 1
                continue
            if isinstance(record, dict):
                records.append(record)
            else:
                skipped += 1
    return records, skipped


def _json_default(value):
    """Fallback encoder: numpy scalars/arrays and arbitrary objects."""
    if hasattr(value, "item") and not hasattr(value, "__len__"):
        return value.item()
    if hasattr(value, "tolist"):
        return value.tolist()
    return repr(value)


def _buffer(buffer: List[dict], record: dict) -> None:
    buffer.append(record)
    if len(buffer) > _STATE.max_buffered:
        del buffer[: len(buffer) // 2]


def emit_event(record: dict) -> None:
    """Record one log/console event (no-op when disabled)."""
    if not _STATE.enabled:
        return
    if _STATE.context:
        record = {**_STATE.context, **record}
    _buffer(_STATE.events, record)
    _write_line(_STATE._events_fp, record)


def emit_span(record: dict) -> None:
    """Record one completed span (no-op when disabled)."""
    if not _STATE.enabled:
        return
    if _STATE.context:
        record = {**_STATE.context, **record}
    _buffer(_STATE.spans, record)
    _write_line(_STATE._trace_fp, record)
