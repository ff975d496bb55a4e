"""``grr`` -- inspect, verify, replay, store, slice and serve GPUReplay
recordings. ``grr --help`` lists the commands, ``grr CMD --help`` their
flags.

Each subsystem's commands live in a module of their own, every
sub-parser next to the handler that reads its flags:

- :mod:`repro.tools.grr_recording` -- one recording file: ``info``,
  ``actions``, ``verify``, ``replay``, ``trace``, ``stats``,
  ``inspect``, ``counters``, ``doctor``, ``patch``;
- :mod:`repro.tools.grr_surgery` -- ``surgery slice | compose | ls``;
- :mod:`repro.tools.grr_store` -- the vault: ``store pack | ls |
  fetch | verify | gc | reindex``;
- :mod:`repro.tools.grr_bench` -- ``bench``, the pinned suites;
- :mod:`repro.tools.grr_serve` -- ``serve`` and ``fleet`` on a seeded
  synthetic load;
- :mod:`repro.tools.grr_viewers` -- what ``serve`` writes, read back:
  ``profile``, ``dash``, ``top``, ``attribute``, ``slo``.

This module holds what they share: number formats, JSON and file
output, and the exit-code table :data:`EXIT_CODES`.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.core.replay import UsageError
from repro.errors import (ReproError, SerializationError,
                          StoreLayoutError, StoreNotFoundError)
from repro.units import GIB, KIB, MIB, MS, SEC, US

#: What a command that raises exits with, first match first: a file,
#: vault, board or flag the command cannot use is a usage error (2,
#: like argparse's own); a recording that fails to verify or replay
#: and a corrupt vault (``StoreCorruptionError``) are failures (1).
EXIT_CODES = ((UsageError, 2), (SerializationError, 2),
              (StoreNotFoundError, 2), (StoreLayoutError, 2),
              (ReproError, 1), (OSError, 2))


def fmt_ns(ns: int) -> str:
    """Render a nanosecond duration as a human-readable string."""
    if ns >= SEC:
        return f"{ns / SEC:.3f} s"
    if ns >= MS:
        return f"{ns / MS:.3f} ms"
    if ns >= US:
        return f"{ns / US:.3f} us"
    return f"{ns} ns"


def fmt_bytes(n: int) -> str:
    """Render a byte count as a human-readable string."""
    if n >= GIB:
        return f"{n / GIB:.2f} GiB"
    if n >= MIB:
        return f"{n / MIB:.2f} MiB"
    if n >= KIB:
        return f"{n / KIB:.2f} KiB"
    return f"{n} B"


def usage(message: str) -> UsageError:
    """``raise usage(...)``: exit 2, saying ``error: message``."""
    return UsageError(f"error: {message}")


def comma_list(text: Optional[str]) -> tuple:
    """The non-empty names in a comma list (None: none)."""
    return tuple(name.strip() for name in (text or "").split(",")
                 if name.strip())


def command(sub, name: str, func, **kwargs) -> argparse.ArgumentParser:
    """The sub-parser of ``grr ... NAME``, which runs ``func(args)``."""
    parser = sub.add_parser(name, **kwargs)
    parser.set_defaults(func=func)
    return parser


def print_json(value) -> None:
    print(json.dumps(value, indent=1, sort_keys=True))


def write_file(path: str, text: str, note: str, file=None) -> None:
    """Write ``text`` to ``path`` and say so."""
    with open(path, "w") as handle:
        handle.write(text)
    print(f"wrote {path} ({note})", file=file)


def invalid(what: str, problems: List[str], file=None) -> bool:
    """Say what is wrong with ``what`` (the first ten problems), if
    anything; True if something is."""
    if problems:
        print(f"INVALID {what} ({len(problems)} problems):", file=file)
        for problem in problems[:10]:
            print(f"  {problem}", file=file)
    return bool(problems)


def build_parser() -> argparse.ArgumentParser:
    from repro.tools import (grr_bench, grr_recording, grr_serve,
                             grr_store, grr_surgery, grr_viewers)

    rec, viewers = grr_recording, grr_viewers
    parser = argparse.ArgumentParser(
        prog="grr", description="GPUReplay recording tool")
    sub = parser.add_subparsers(dest="command", required=True)
    for add in (rec.add_info, rec.add_actions, rec.add_verify,
                rec.add_replay, rec.add_trace, rec.add_stats,
                rec.add_inspect, grr_surgery.add_surgery,
                grr_store.add_store, grr_bench.add_bench,
                grr_serve.add_serve, grr_serve.add_fleet,
                viewers.add_profile, rec.add_counters, viewers.add_dash,
                viewers.add_top, viewers.add_attribute, viewers.add_slo,
                rec.add_doctor, rec.add_patch):
        add(sub)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except tuple(kind for kind, _ in EXIT_CODES) as error:
        print(error if isinstance(error, UsageError) else f"error: {error}",
              file=sys.stderr)
        return next(code for kind, code in EXIT_CODES
                    if isinstance(error, kind))


if __name__ == "__main__":
    sys.exit(main())
