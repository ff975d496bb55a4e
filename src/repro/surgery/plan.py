"""Seeded surgery plans: a corpus of composed sessions from one seed.

A plan is the declarative input to the ``synthetic`` workload source:
given a family, a model corpus and a seed, :func:`generate_plan` draws
K session descriptions (which op, which job slices, how many repeats /
rounds), and :func:`realize_plan` turns them into actual composed
recordings. Everything downstream of the seed is deterministic --
same seed, same corpus, same plan JSON, same composed digests -- which
is what lets two serve runs on opposite ends of a fleet draw the same
synthetic sessions without shipping recordings around.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.recording import Recording
from repro.errors import SurgeryError
from repro.obs.session import NULL_OBS
from repro.surgery.analyze import analyze_recording
from repro.surgery.composer import Composed, compose, interleave, reorder, \
    repeat
from repro.surgery.slicer import Slice, slice_job

_OPS = ("repeat", "reorder", "interleave")


@dataclass
class SurgeryPlan:
    """K composed-session descriptions drawn from one seed."""

    schema: str
    family: str
    seed: int
    input_seed: int
    models: List[str]
    #: Each entry: {"op", "picks": [[model, job], ...], "param"}.
    sessions: List[Dict[str, object]] = field(default_factory=list)

    SCHEMA = "surgery.plan.v1"

    def to_json(self) -> str:
        return json.dumps(self.__dict__, indent=1, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "SurgeryPlan":
        raw = json.loads(text)
        if raw.get("schema") != cls.SCHEMA:
            raise SurgeryError(
                f"not a {cls.SCHEMA} plan: {raw.get('schema')!r}")
        return cls(**{k: raw[k] for k in cls.__dataclass_fields__
                      if k in raw})

    def save(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_json())

    @classmethod
    def load(cls, path: str) -> "SurgeryPlan":
        with open(path) as fh:
            return cls.from_json(fh.read())


def generate_plan(family: str, corpus: Dict[str, int], sessions: int,
                  seed: int, input_seed: int = 0) -> SurgeryPlan:
    """Draw ``sessions`` composed-session descriptions.

    ``corpus`` maps model name -> its job count (what
    :func:`repro.surgery.analyze.analyze_recording` reports). One
    ``random.Random(seed)`` drives every choice, so the resulting plan
    JSON is byte-identical across runs.
    """
    if not corpus:
        raise SurgeryError("generate_plan needs a non-empty corpus")
    if sessions < 1:
        raise SurgeryError(f"generate_plan needs sessions >= 1, "
                           f"got {sessions}")
    rng = random.Random(seed)
    models = sorted(corpus)
    pool: List[Tuple[str, int]] = [
        (model, job) for model in models
        for job in range(corpus[model])]
    plan = SurgeryPlan(schema=SurgeryPlan.SCHEMA, family=family,
                       seed=seed, input_seed=input_seed, models=models)
    for _ in range(sessions):
        op = rng.choice(_OPS)
        if op == "repeat":
            picks = [rng.choice(pool)]
            param = rng.randint(2, 4)
        else:
            count = rng.randint(2, min(3, len(pool)))
            picks = rng.sample(pool, count)
            param = rng.randint(1, 2) if op == "interleave" \
                else rng.randint(0, 1 << 20)
        plan.sessions.append({
            "op": op,
            "picks": [[model, job] for model, job in picks],
            "param": param,
        })
    return plan


def realize_plan(plan: SurgeryPlan,
                 recordings: Dict[str, Recording],
                 board: Optional[str] = None,
                 obs=NULL_OBS) -> List[Tuple[str, Composed]]:
    """Slice and compose every session the plan describes.

    ``recordings`` maps each plan model to its parent recording. Each
    distinct (model, job) is sliced once and reused across sessions.
    Returns ``[("syn0", composed), ...]`` in plan order.
    """
    missing = [m for m in plan.models if m not in recordings]
    if missing:
        raise SurgeryError(f"plan needs recordings for {missing}")

    analyses = {model: analyze_recording(recordings[model])
                for model in plan.models}
    cache: Dict[Tuple[str, int], Slice] = {}

    def slice_for(model: str, job: int) -> Slice:
        key = (model, job)
        if key not in cache:
            cache[key] = slice_job(recordings[model], job,
                                   input_seed=plan.input_seed,
                                   board=board,
                                   analysis=analyses[model], obs=obs)
        return cache[key]

    out: List[Tuple[str, Composed]] = []
    for index, session in enumerate(plan.sessions):
        op = session["op"]
        picks = [(model, job) for model, job in session["picks"]]
        param = session["param"]
        slices = [slice_for(model, job) for model, job in picks]
        if op == "repeat":
            composed = repeat(slices[0], param, obs=obs)
        elif op == "reorder":
            composed = reorder(slices, param, obs=obs)
        elif op == "interleave":
            composed = interleave(slices, param, obs=obs)
        else:
            raise SurgeryError(f"unknown plan op {op!r}")
        out.append((f"syn{index}", composed))
        obs.counter("surgery.plan.sessions").inc()
    return out
