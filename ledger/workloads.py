"""The five workloads of the ledger.

Each workload builds its inputs from the run seed in :meth:`setup`
(recordings of zoo models, a vault on disk under the run's scratch
directory, CPU-reference answers), then runs *rounds*. A round is the
same seeded set of ops every time; an op is timed on
``time.process_time_ns`` and its answer is checked against the CPU
reference outside the timed region.

Closed loops (``replay_hot``, ``cold_start``, ``record_pack``): one
client, next op when the previous one returns. ``cold_start`` and
``record_pack`` build a fresh machine per op from the same seed, so
every round repeats the first one's virtual numbers exactly and the
harness asserts that.

Open loops in virtual time (``serve_knee``, ``fleet_skew``): the
arrival schedule, model mix and fault schedule are part of the
workload definition and come from :data:`SCHEDULE_SEED`; the run seed
draws every request's input tensor and every worker machine (physical
layout and GPU timing jitter), differently in each round. The serving
path is chaotic in the queueing sense -- one more fault in a
300-request stream moves the tail by a tenth -- so a schedule redrawn
per run seed would bury a regression under seed-to-seed spread.
Virtual per-op values are pooled over a fixed number of rounds.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import random
import shutil
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

import repro.bench.workloads as zoo
import repro.core.harness as recorder
import repro.surgery as surgery
from repro.core.patching import patch_recording_for_sku
from repro.core.recording import Recording
from repro.core.replayer import Replayer, clear_load_cache
from repro.fleet import Fleet, FleetConfig, ReplicatedVaultStore
from repro.serve import (LoadgenConfig, RecordingStore, ReplayServer,
                         ServerConfig, VaultRecordingStore,
                         generate_requests, request_inputs, verify_report)
from repro.store import Vault
from repro.units import MS, US

from spans import OP_LAYER, Tracer

# Program entry points are called through their modules (zoo.build_stack,
# surgery.slice_job, ...) so that the span wrappers of a traced run,
# which replace module attributes, are the ones reached.

#: Seed of the arrival/mix/fault schedule of the open-loop workloads.
SCHEDULE_SEED = 2026

_now = time.process_time_ns

Pair = Tuple[str, str]


def derive(seed: int, *labels: object) -> int:
    """A stable 31-bit sub-seed (``hash()`` is salted per process)."""
    text = ":".join(str(x) for x in (seed,) + labels)
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:4],
                          "big") >> 1


def scaled(count: int, scale: int, floor: int = 1) -> int:
    return max(floor, count // scale)


@dataclass
class Round:
    """What one round produced."""

    cpu_ns: int
    #: Per-op CPU ns (closed loops; empty on open loops, whose host
    #: cost per op is the round's CPU time over its requests).
    op_cpu_ns: List[int]
    #: Per-op modelled latency, answered ops only.
    virtual_ns: List[int]
    makespan_ns: int
    attempted: int
    failed: int = 0
    degraded: int = 0
    #: Answers that are wrong, missing or doubled -- never acceptable.
    incorrect: int = 0
    #: Digest of every answer's bytes, to compare rounds and runs.
    answers: str = ""
    notes: Dict[str, object] = field(default_factory=dict)

    @classmethod
    def closed(cls, op_cpu_ns: List[int], virtual_ns: List[int],
               incorrect: int, answers) -> "Round":
        """A closed-loop round: its CPU time and virtual makespan are
        the sums over its ops; nothing is shed, so an op fails only by
        a wrong answer."""
        return cls(cpu_ns=sum(op_cpu_ns), op_cpu_ns=op_cpu_ns,
                   virtual_ns=virtual_ns, makespan_ns=sum(virtual_ns),
                   attempted=len(op_cpu_ns), failed=incorrect,
                   incorrect=incorrect, answers=answers.hexdigest())


class Op:
    """Times one op; in a traced run also the root span of its tree."""

    __slots__ = ("tracer", "name", "cpu_ns", "_row", "_t0")

    def __init__(self, tracer: Optional[Tracer], name: str):
        self.tracer = tracer
        self.name = name
        self.cpu_ns = 0

    def __enter__(self) -> "Op":
        if self.tracer is not None:
            self._row = self.tracer.begin(self.name, OP_LAYER)
        self._t0 = _now()
        return self

    def __exit__(self, *exc) -> None:
        self.cpu_ns = _now() - self._t0
        if self.tracer is not None:
            self.tracer.end(self._row)


def record_model(family: str, model: str, seed: int,
                 board: Optional[str] = None):
    """Full stack up, one warm run, one recorded run. Returns the
    recording and the recorded run's virtual ns (the full-stack
    baseline the paper compares replay against)."""
    stack = zoo.build_stack(family, model, seed=seed, board=board)
    stack.net.run(np.zeros(stack.net.model.input_shape, np.float32))
    t0 = stack.machine.clock.now()
    recording = recorder.record_inference(stack.net).recording
    return recording, stack.machine.clock.now() - t0


def outputs_match(got: Dict[str, np.ndarray],
                  want: Dict[str, np.ndarray]) -> bool:
    return all(name in got and np.array_equal(got[name].reshape(-1),
                                              value.reshape(-1))
               for name, value in want.items())


def digest_outputs(h, outputs: Dict[str, np.ndarray]) -> None:
    for name in sorted(outputs):
        h.update(name.encode())
        h.update(np.ascontiguousarray(outputs[name]).tobytes())


class Workload:
    """Base: scratch directory, seed plumbing, default no-op hooks."""

    name = ""
    #: Closed loops repeat identical rounds; the harness asserts their
    #: virtual numbers are equal across rounds.
    identical_rounds = True
    min_rounds = 2
    #: None = rounds until ``--seconds`` is used up; open loops fix it
    #: so that pooled virtual numbers do not depend on host speed.
    fixed_rounds: Optional[int] = None

    def __init__(self, seed: int, scale: int, scratch: str,
                 tracer: Optional[Tracer] = None):
        self.seed = seed
        self.scale = scale
        self.scratch = scratch
        self.tracer = tracer
        self._dirs = 0
        self._stream = ""
        #: (family, model[, board]) the run uses, and their recordings.
        self.pairs: Sequence[tuple] = ()
        self.recordings: Dict[Pair, Recording] = {}
        #: Virtual ns of every recorded full-stack run.
        self.stack_run_ns: List[int] = []
        #: GPU counter-tape totals of the machines the ops ran on.
        self.gpu_totals: Dict[str, float] = {}
        self.loadgen_ns = 0
        #: Root of the workload's own vault on disk, if it has one.
        self.vault_root: Optional[str] = None

    def fresh_dir(self, label: str) -> str:
        self._dirs += 1
        path = os.path.join(self.scratch, f"{label}-{self._dirs}")
        os.makedirs(path)
        return path

    def record(self, family: str, model: str,
               board: Optional[str] = None) -> Recording:
        recording, run_ns = record_model(
            family, model, derive(self.seed, "record", family, model),
            board=board)
        self.stack_run_ns.append(run_ns)
        return recording

    def note_gpu(self, totals: Dict[str, float]) -> None:
        for key, value in totals.items():
            self.gpu_totals[key] = self.gpu_totals.get(key, 0) + value

    def setup(self) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        """Undo :meth:`setup` so it can run again (set-up is timed as
        the median of several builds)."""
        shutil.rmtree(self.scratch, ignore_errors=True)
        os.makedirs(self.scratch)

    def warmup(self) -> None:
        pass

    def round(self, index: int) -> Round:
        raise NotImplementedError

    def primary(self) -> Tuple[str, str, Recording]:
        """(family, model, recording) the layer micro-pass isolates."""
        family, model = self.pairs[0][:2]
        return family, model, self.recordings[(family, model)]

    def arms(self, baseline: Round) -> Dict[str, float]:
        """Extra measurements of a traced run (per-layer metrics that
        need a second configuration of this workload)."""
        return {}

    def stream_digest(self) -> str:
        """Digest of the seeded inputs (differs between run seeds)."""
        return self._stream

    def gpu_counter_totals(self, round_: Round) -> Dict[str, float]:
        """Summed GPU counter tapes behind the traced round's ops."""
        return self.gpu_totals

    def report_metrics(self, round_: Round) -> Dict[str, float]:
        """Per-layer metrics out of the program's own report of the
        traced round (serving workloads only)."""
        return {}


def _reference_store(recordings: Dict[Pair, Recording]) -> RecordingStore:
    store = RecordingStore()
    for (family, model), recording in recordings.items():
        store.add(family, model, recording)
    return store


# ---------------------------------------------------------------------------


class ReplayHot(Workload):
    """Run as recorded, many times: warm replays on loaded replayers."""

    name = "replay_hot"
    # Replays on one machine draw from one GPU jitter stream, so later
    # rounds are not copies of the first: the count is fixed and the
    # virtual values are pooled, as on the open loops.
    identical_rounds = False
    fixed_rounds = 8
    # Five recordings with distinct replay costs, equally often: the
    # median op then sits inside the middle one's cluster of times
    # rather than in a gap between two clusters.
    PAIRS: Tuple[Pair, ...] = (("mali", "dense-serve"), ("mali", "alexnet"),
                               ("mali", "mnist"), ("v3d", "mnist"),
                               ("adreno", "mnist"))
    REPLAYS_PER_ROUND = 50
    INPUTS = 16
    WARMUPS = 5

    def setup(self) -> None:
        self.per_round = scaled(self.REPLAYS_PER_ROUND, self.scale, 2)
        n_inputs = scaled(self.INPUTS, self.scale, 2)
        self.replayers: Dict[Pair, Replayer] = {}
        self.inputs: Dict[Pair, List[Dict[str, np.ndarray]]] = {}
        self.wants: Dict[Pair, List[Dict[str, np.ndarray]]] = {}
        digest = hashlib.sha256()
        self.pairs = self.PAIRS[-scaled(len(self.PAIRS), self.scale, 2):]
        for family, model in self.pairs:
            pair = (family, model)
            recording = self.record(family, model)
            self.recordings[pair] = recording
            replayer = Replayer(zoo.fresh_replay_machine(
                family, seed=derive(self.seed, "replay", *pair)))
            replayer.init()
            replayer.load(recording)
            self.replayers[pair] = replayer
            store = _reference_store({pair: recording})
            seeds = [derive(self.seed, "input", *pair, k)
                     for k in range(n_inputs)]
            self.inputs[pair] = [request_inputs(recording, s)
                                 for s in seeds]
            self.wants[pair] = [store.reference_outputs(family, model, s)
                                for s in seeds]
            for inputs in self.inputs[pair]:
                digest_outputs(digest, inputs)
        self._stream = digest.hexdigest()

    def teardown(self) -> None:
        for replayer in self.replayers.values():
            replayer.cleanup()
        super().teardown()

    def warmup(self) -> None:
        for pair, replayer in self.replayers.items():
            for k in range(self.WARMUPS):
                replayer.replay(inputs=self.inputs[pair][0])

    def round(self, index: int) -> Round:
        op_cpu: List[int] = []
        virtual: List[int] = []
        incorrect = 0
        answers = hashlib.sha256()
        for pair, replayer in self.replayers.items():
            inputs, wants = self.inputs[pair], self.wants[pair]
            for k in range(self.per_round):
                with Op(self.tracer, "op.replay") as op:
                    result = replayer.replay(inputs=inputs[k % len(inputs)])
                op_cpu.append(op.cpu_ns)
                virtual.append(result.duration_ns)
                if not outputs_match(result.outputs,
                                     wants[k % len(wants)]):
                    incorrect += 1
                digest_outputs(answers, result.outputs)
        return Round.closed(op_cpu, virtual, incorrect, answers)

    def gpu_counter_totals(self, round_: Round) -> Dict[str, float]:
        for replayer in self.replayers.values():
            self.note_gpu(replayer.machine.require_gpu().counters.totals())
        return self.gpu_totals

    def arms(self, baseline: Round) -> Dict[str, float]:
        from layers import kernel_micro
        return kernel_micro(self.pairs, self.recordings,
                            derive(self.seed, "kernel"),
                            replays=scaled(200, self.scale, 5))


# ---------------------------------------------------------------------------


class ColdStart(Workload):
    """The paper's startup path: boot, init, fetch, load, first replay."""

    name = "cold_start"
    PAIRS: Tuple[Pair, ...] = (("mali", "dense-serve"), ("mali", "alexnet"),
                               ("mali", "mnist"), ("v3d", "mnist"),
                               ("adreno", "mnist"))

    def setup(self) -> None:
        pairs = self.PAIRS[-scaled(len(self.PAIRS), self.scale, 2):]
        self.pairs = pairs
        self.vault_root = self.fresh_dir("vault")
        vault = Vault(self.vault_root)
        self.digests: Dict[Pair, str] = {}
        self.inputs: Dict[Pair, Dict[str, np.ndarray]] = {}
        self.wants: Dict[Pair, Dict[str, np.ndarray]] = {}
        digest = hashlib.sha256()
        for pair in pairs:
            family, model = pair
            recording = self.record(family, model)
            self.recordings[pair] = recording
            self.digests[pair] = vault.pack(recording).digest
            input_seed = derive(self.seed, "input", *pair)
            self.inputs[pair] = request_inputs(recording, input_seed)
            self.wants[pair] = _reference_store(
                {pair: recording}).reference_outputs(family, model,
                                                     input_seed)
            digest_outputs(digest, self.inputs[pair])
        self._stream = digest.hexdigest()

    def round(self, index: int) -> Round:
        op_cpu: List[int] = []
        virtual: List[int] = []
        incorrect = 0
        answers = hashlib.sha256()
        for pair in self.pairs:
            with Op(self.tracer, "op.cold_start") as op:
                clear_load_cache()
                replayer = Replayer(zoo.fresh_replay_machine(
                    pair[0], seed=derive(self.seed, "boot", *pair)))
                replayer.init()
                recording = Vault.open(self.vault_root).fetch(
                    self.digests[pair], verify=True)
                replayer.load(recording)
                result = replayer.replay(inputs=self.inputs[pair])
            op_cpu.append(op.cpu_ns)
            virtual.append(replayer.init_ns + replayer.load_ns
                           + result.duration_ns)
            if not outputs_match(result.outputs, self.wants[pair]):
                incorrect += 1
            digest_outputs(answers, result.outputs)
            self.note_gpu(replayer.machine.require_gpu().counters.totals())
            replayer.cleanup()
        return Round.closed(op_cpu, virtual, incorrect, answers)


# ---------------------------------------------------------------------------


def redraw_inputs(schedule, seed: int):
    """The schedule with every request's input tensor seed redrawn."""
    rng = random.Random(seed)
    return [dataclasses.replace(r, input_seed=rng.randrange(1 << 31))
            for r in schedule]


def stream_digest(stream) -> str:
    h = hashlib.sha256()
    for r in stream:
        h.update(f"{r.rid}:{r.family}:{r.model}:{r.arrival_ns}:"
                 f"{r.input_seed}:{r.fault.kind if r.fault else ''}"
                 .encode())
    return h.hexdigest()


def judged_round(report, store, cpu_ns: int,
                 duplicates: Sequence[int] = (), **notes) -> Round:
    """One serving run as a :class:`Round`: every served answer is
    checked against the CPU reference; shed, lost, doubled and wrong
    ones are counted."""
    responses = report.responses
    shed = sum(1 for r in responses if r.status == "shed")
    mismatched = verify_report(report, store)
    incorrect = len(mismatched) + len(report.lost) + len(duplicates)
    answers = hashlib.sha256()
    for response in responses:
        answers.update(f"{response.rid}:{response.status}:".encode())
        digest_outputs(answers, response.outputs)
    latencies = [r.latency_ns for r in responses if r.status != "shed"]
    if latencies and max(latencies) > report.makespan_ns:
        raise AssertionError(
            f"p100 {max(latencies)} ns beyond makespan "
            f"{report.makespan_ns} ns")
    return Round(
        cpu_ns=cpu_ns, op_cpu_ns=[], virtual_ns=latencies,
        makespan_ns=report.makespan_ns, attempted=report.submitted,
        failed=shed + incorrect, incorrect=incorrect,
        degraded=sum(1 for r in responses if r.status == "degraded"),
        answers=answers.hexdigest(),
        notes=dict(notes, report=report, mismatched=mismatched))


class ServeKnee(Workload):
    """``grr serve`` as shipped, at the knee of its latency curve."""

    name = "serve_knee"
    identical_rounds = False
    fixed_rounds = 3
    MIX: Tuple[Pair, ...] = (("mali", "mnist"), ("v3d", "mnist"),
                             ("adreno", "mnist"), ("mali", "kws"),
                             ("v3d", "kws"), ("mali", "alexnet"))
    POOL = ("mali", "mali", "v3d", "adreno")
    REQUESTS = 400
    #: ~0.8 of the pool's modelled capacity on this mix: median latency
    #: is 1.5x its light-load value and nothing is shed.
    INTERARRIVAL_NS = 2500 * US
    DEADLINE_NS = 200 * MS
    FAULT_RATE = 0.05

    def loadgen(self, interarrival_ns: int) -> LoadgenConfig:
        return LoadgenConfig(
            requests=scaled(self.REQUESTS, self.scale, 20),
            seed=SCHEDULE_SEED, mix=self.pairs,
            mean_interarrival_ns=interarrival_ns,
            deadline_ns=self.DEADLINE_NS, fault_rate=self.FAULT_RATE,
            popularity="zipf")

    def setup(self) -> None:
        self.pairs = self.MIX if self.scale == 1 else self.MIX[:3]
        self.vault_root = self.fresh_dir("vault")
        vault = Vault(self.vault_root)
        for pair in self.pairs:
            self.recordings[pair] = self.record(*pair)
            vault.pack(self.recordings[pair])
        t0 = _now()
        self.schedule = generate_requests(
            self.loadgen(self.INTERARRIVAL_NS))
        self.loadgen_ns = _now() - t0
        self._stream = stream_digest(redraw_inputs(
            self.schedule, derive(self.seed, "inputs", 0)))

    def config(self, index: int, **overrides) -> ServerConfig:
        return ServerConfig(families=self.POOL,
                            seed=derive(self.seed, "pool", index),
                            max_batch=4, mega_batch=True, **overrides)

    def serve(self, schedule, index: int, **overrides) -> Round:
        """One build + serve of ``schedule``, judged. The load cache is
        process-wide, so it is cleared: each round is a fresh
        ``grr serve``."""
        stream = redraw_inputs(schedule, derive(self.seed, "inputs", index))
        clear_load_cache()
        store = VaultRecordingStore(Vault.open(self.vault_root),
                                    list(self.pairs))
        with Op(self.tracer, "op.serve_round") as op:
            server = ReplayServer(store, self.config(index, **overrides))
            report = server.serve(stream)
            server.close()
        return judged_round(report, store, op.cpu_ns)

    def round(self, index: int) -> Round:
        return self.serve(self.schedule, index)

    def gpu_counter_totals(self, round_: Round) -> Dict[str, float]:
        return round_.notes["report"].gpu_counters.get("totals", {})

    def report_metrics(self, round_: Round) -> Dict[str, float]:
        import layers
        report = round_.notes["report"]
        return {**layers.serve_report_metrics(report, round_.cpu_ns),
                **layers.obs_export_metrics(report)}

    def arms(self, baseline: Round) -> Dict[str, float]:
        """Observability off (round 0's stream again; answers must not
        change) and the half-rate arm."""
        from layers import exact_percentile
        # on, off, on: whatever the process's growing heap costs the
        # later serve falls on both sides of the ratio.
        quiet = dict(trace=False, timeseries=False, gpu_counters=False)
        arms = [self.serve(self.schedule, 0, **config)
                for config in ({}, quiet, {})]
        for arm in arms:
            arm.notes.clear()
            if arm.answers != baseline.answers:
                raise AssertionError("observability changed served answers")
        on_ns = (arms[0].cpu_ns + arms[2].cpu_ns) / 2
        lo = self.serve(
            generate_requests(self.loadgen(2 * self.INTERARRIVAL_NS)), 0)
        if lo.incorrect:
            raise AssertionError("half-rate arm served wrong answers")
        return {
            "obs.host_overhead_ratio": on_ns / arms[1].cpu_ns,
            "serve.lo_rate_host_us_per_request":
                lo.cpu_ns / 1e3 / lo.attempted,
            "serve.lo_rate_virtual_p95_ns":
                exact_percentile(lo.virtual_ns, 95),
        }


# ---------------------------------------------------------------------------


class FleetSkew(Workload):
    """``grr fleet``: three nodes, skewed popularity, saturating."""

    name = "fleet_skew"
    identical_rounds = False
    fixed_rounds = 2
    MIX: Tuple[Pair, ...] = (("mali", "mnist"), ("mali", "kws"),
                             ("v3d", "mnist"))
    NODES = 3
    REQUESTS = 300
    INTERARRIVAL_NS = 200 * US
    FAULT_RATE = 0.05
    TENANTS = ("tenant-a", "tenant-b", "tenant-c")

    def setup(self) -> None:
        self.pairs = self.MIX
        self.vault_root = self.fresh_dir("vault-origin")
        origin = Vault(self.vault_root)
        for pair in self.pairs:
            self.recordings[pair] = self.record(*pair)
            origin.pack(self.recordings[pair])
        t0 = _now()
        self.schedule = generate_requests(LoadgenConfig(
            requests=scaled(self.REQUESTS, self.scale, 15),
            seed=SCHEDULE_SEED, mix=self.pairs,
            mean_interarrival_ns=self.INTERARRIVAL_NS, deadline_ns=0,
            fault_rate=self.FAULT_RATE, shape="diurnal",
            popularity="zipf", zipf_s=1.2, tenants=self.TENANTS))
        self.loadgen_ns = _now() - t0
        self._stream = stream_digest(redraw_inputs(
            self.schedule, derive(self.seed, "inputs", 0)))

    def stores(self) -> List[ReplicatedVaultStore]:
        """Node 0 holds the packed vault; the other nodes start empty
        and replicate from their peers on first miss. Fresh empty
        vaults each round, so every round replicates the same."""
        vaults = [Vault.open(self.vault_root)] + [
            Vault(self.fresh_dir("vault-node"))
            for _ in range(self.NODES - 1)]
        return [ReplicatedVaultStore(
            vault, list(self.pairs),
            peers=[v for v in vaults if v is not vault])
            for vault in vaults]

    def round(self, index: int) -> Round:
        n = len(self.schedule)
        stream = redraw_inputs(self.schedule,
                               derive(self.seed, "inputs", index))
        clear_load_cache()
        stores = self.stores()
        with Op(self.tracer, "op.fleet_round") as op:
            fleet = Fleet(stores, FleetConfig(
                nodes=self.NODES, queue_depth=n,
                seed=derive(self.seed, "fleet", index),
                quotas=tuple((tenant, n) for tenant in self.TENANTS)))
            report = fleet.serve(stream)
            fleet.close()
        replicated = sum(
            1 for store in stores for entry in store.replication_log
            if entry["outcome"] == "replicated")
        return judged_round(
            report, _reference_store(self.recordings), op.cpu_ns,
            duplicates=report.duplicates, stream=stream,
            replicated=replicated)

    def gpu_counter_totals(self, round_: Round) -> Dict[str, float]:
        for node in round_.notes["report"].node_reports:
            self.note_gpu(node.gpu_counters.get("totals", {}))
        return self.gpu_totals

    def report_metrics(self, round_: Round) -> Dict[str, float]:
        import layers
        report = round_.notes["report"]
        return {**layers.serve_report_metrics(report, round_.cpu_ns),
                **layers.fleet_report_metrics(report, round_.cpu_ns,
                                              round_.notes["replicated"])}

    def arms(self, baseline: Round) -> Dict[str, float]:
        """One node, booted like a fleet node, on round 0's stream."""
        stream = baseline.notes["stream"]
        clear_load_cache()
        store = _reference_store(self.recordings)
        with Op(self.tracer, "arm.single_node") as op:
            server = ReplayServer(store, ServerConfig(
                families=("mali", "v3d"),
                seed=derive(self.seed, "fleet", 0),
                queue_depth=len(stream), timeseries=False))
            report = server.serve(stream)
            server.close()
        if judged_round(report, store, op.cpu_ns).incorrect:
            raise AssertionError("single-node arm served wrong answers")
        return {"fleet.host_overhead_ratio": baseline.cpu_ns / op.cpu_ns}


# ---------------------------------------------------------------------------


class RecordPack(Workload):
    """The write side: record, serialize, pack, patch, slice, fetch."""

    name = "record_pack"
    #: (family, model, board), one per GPU family; the odroid-c4 (G31)
    #: mali recording is also patched up to two bigger SKUs and packed,
    #: which is where chunk dedup earns its keep.
    PAIRS = (("mali", "mnist", "odroid-c4"), ("v3d", "mnist", None),
             ("adreno", "mnist", None))
    SKUS = ("g52", "g71")

    def setup(self) -> None:
        self.pairs = self.PAIRS[:scaled(len(self.PAIRS), self.scale, 1)]
        digest = hashlib.sha256()
        for pair in self.pairs:
            digest.update(f"{pair}:{derive(self.seed, 'record', *pair)}"
                          .encode())
        self._stream = digest.hexdigest()
        self.slices: list = []

    def round(self, index: int) -> Round:
        self.vault_root = self.fresh_dir("vault")
        vault = Vault(self.vault_root)
        self.slices = []
        op_cpu: List[int] = []
        virtual: List[int] = []
        incorrect = 0
        answers = hashlib.sha256()
        for family, model, board in self.pairs:
            with Op(self.tracer, "op.record_pack") as op:
                recording = self.record(family, model, board)
                blob = recording.to_bytes()
                manifest = vault.pack(recording)
                if board == "odroid-c4":
                    for sku in self.SKUS:
                        patched, _report = patch_recording_for_sku(
                            recording, sku)
                        vault.pack(patched)
                analysis = surgery.analyze_recording(recording)
                slice_ = surgery.slice_job(recording, 0, analysis=analysis)
                slice_ok = surgery.verify_slice(recording, slice_,
                                        analysis=analysis)
                fetched = vault.fetch(manifest.digest, verify=True)
                same = fetched.to_bytes() == blob
            op_cpu.append(op.cpu_ns)
            virtual.append(self.stack_run_ns[-1])
            self.recordings[(family, model)] = recording
            self.slices.append(slice_)
            # The answer of a write-side op: what came back out of the
            # vault replays to the CPU reference's bytes.
            input_seed = derive(self.seed, "input", family, model)
            replayer = Replayer(zoo.fresh_replay_machine(
                family, seed=derive(self.seed, "check", family, model),
                board=fetched.meta.board))
            replayer.init()
            replayer.load(fetched)
            result = replayer.replay(
                inputs=request_inputs(fetched, input_seed))
            replayer.cleanup()
            want = _reference_store(
                {(family, model): fetched}).reference_outputs(
                    family, model, input_seed)
            if not (same and slice_ok
                    and outputs_match(result.outputs, want)):
                incorrect += 1
            answers.update(manifest.digest.encode())
            digest_outputs(answers, result.outputs)
        return Round.closed(op_cpu, virtual, incorrect, answers)

    def arms(self, baseline: Round) -> Dict[str, float]:
        """Stitch two jobs of the first recording into one session;
        the closure share of the round's slices."""
        family, model, _board = self.pairs[0]
        parent = self.recordings[(family, model)]
        analysis = surgery.analyze_recording(parent)
        mid = surgery.slice_job(parent, len(analysis.jobs) // 2, analysis=analysis)
        t0 = _now()
        surgery.interleave([self.slices[0], mid], rounds=2)
        compose_ns = _now() - t0
        closure = sum(size for slice_ in self.slices
                      for _va, size in slice_.manifest.closure)
        parents = sum(self.recordings[(f, m)].dump_bytes()
                      for f, m, _b in self.pairs)
        return {"surgery.compose_host_ms": compose_ns / 1e6,
                "surgery.closure_share": closure / parents}


WORKLOADS = {cls.name: cls for cls in (ReplayHot, ColdStart, ServeKnee,
                                       FleetSkew, RecordPack)}
