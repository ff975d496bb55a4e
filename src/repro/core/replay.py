"""The deployable: ``python -m repro.core.replay file.grr``.

Boots the recording's board, loads the recording and replays it on
seeded inputs, printing each output's sha256, the virtual duration and
the attempt count. Exit codes follow ``grr``: 0 replayed, 1 the replay
failed, 2 unreadable file or unknown board.

Import nothing here but ``repro.errors``, ``repro.units``,
``repro.soc``, ``repro.gpu`` and the replayer half of ``repro.core``:
that closure is what a TEE would have to trust, and
``tests/analysis/test_closure.py`` holds it to a budget. The helpers
are the one copy ``grr``, the doctor, the smokes, surgery and the
serving engine share.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core.recording import Recording
from repro.core.replayer import Replayer, ReplayResult
from repro.errors import ReproError, SerializationError
from repro.soc.boards import BOARDS
from repro.soc.machine import Machine, host_kernel_configures_gpu


def seeded_inputs(recording: Recording,
                  seed: int) -> Dict[str, np.ndarray]:
    """The recording's required input tensors, fully determined by
    ``seed`` (standard-normal float32, one draw per input in order)."""
    rng = np.random.default_rng(seed)
    inputs: Dict[str, np.ndarray] = {}
    for io in recording.meta.inputs:
        if io.optional:
            continue
        shape = io.shape or (io.size // 4,)
        inputs[io.name] = rng.standard_normal(shape).astype(np.float32)
    return inputs


def boot_replayer(recording: Recording, board: Optional[str], seed: int,
                  fast_path: bool = True,
                  prepare: Optional[Callable[[Machine], object]] = None
                  ) -> Tuple[Machine, Replayer]:
    """A fresh ``board`` (None: the recording's own), GPU powered by
    the host kernel, and an initialised replayer holding ``recording``.
    ``prepare`` sees the machine before anything else touches it
    (``grr trace`` and ``stats`` enable observability there)."""
    machine = Machine.create(board or recording.meta.board, seed=seed)
    if prepare is not None:
        prepare(machine)
    host_kernel_configures_gpu(machine)
    replayer = Replayer(machine, fast_path=fast_path)
    replayer.init()
    replayer.load(recording)
    return machine, replayer


def fresh_replay(recording: Recording, board: Optional[str], seed: int,
                 prepare: Optional[Callable[[Machine], object]] = None
                 ) -> Tuple[Machine, Replayer, ReplayResult]:
    """Boot, load and replay once on ``seed``'s inputs. The replayer
    is still initialised so callers can inspect it before cleanup()."""
    machine, replayer = boot_replayer(recording, board, seed, prepare=prepare)
    result = replayer.replay(inputs=seeded_inputs(recording, seed))
    return machine, replayer, result


def add_replay_arguments(parser: argparse.ArgumentParser,
                         **file_kwargs: object) -> None:
    """``file``, ``--board`` and ``--seed``: what every command that
    replays a recording on a fresh board takes."""
    parser.add_argument("file", **file_kwargs)
    parser.add_argument("--board", default=None,
                        help="defaults to the recording's board")
    parser.add_argument("--seed", type=int, default=2026)


class UsageError(Exception):
    """A command line this tool cannot act on: exit 2, ``str(self)``
    the whole line said on stderr."""


def resolve_board(args, recording: Recording) -> str:
    """``--board`` or the recording's own; a usage error if unknown."""
    board = getattr(args, "board", None) or recording.meta.board
    if board not in BOARDS:
        raise UsageError(f"error: unknown board {board!r}; "
                         f"known: {', '.join(sorted(BOARDS))}")
    return board


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.core.replay",
        description="Replay a recording on a fresh simulated board.")
    add_replay_arguments(parser)
    parser.add_argument("--repeat", type=int, default=1,
                        help="replays on the one booted replayer")
    args = parser.parse_args(argv)
    try:
        recording = Recording.load(args.file)
        machine, replayer = boot_replayer(
            recording, resolve_board(args, recording), args.seed)
        inputs = seeded_inputs(recording, args.seed)
        for round_ in range(1, args.repeat + 1):
            result = replayer.replay(inputs=inputs)
            print(f"replay {round_}/{args.repeat} of "
                  f"{recording.meta.workload} on "
                  f"{machine.gpu.model_name}: {result.duration_ns} ns "
                  f"virtual, attempt {result.attempts}")
            for name, value in result.outputs.items():
                digest = hashlib.sha256(value.tobytes()).hexdigest()
                print(f"  output {name} {tuple(value.shape)} "
                      f"sha256 {digest}")
        replayer.cleanup()
    except UsageError as error:
        print(error, file=sys.stderr)
        return 2
    except (SerializationError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
