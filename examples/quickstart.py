#!/usr/bin/env python3
"""Quickstart: record an NN inference once, replay it anywhere.

Walks the full GPUReplay workflow on the simulated SoC:

1. developer machine -- bring up the *full* GPU stack (ACL + OpenCL +
   Mali driver on a Hikey960), run MNIST once under the record harness;
2. ship the recording (a few tens of KB, zlib-compressed);
3. target machine -- a *different* simulated board with no GPU stack at
   all: a 50-KB-class replayer loads the recording and runs inference
   on fresh inputs;
4. verify the replayed outputs bit-match a CPU reference.
"""

import numpy as np

from repro.core import Recording, Replayer, record_inference
from repro.soc import Machine
from repro.stack.driver import MaliDriver
from repro.stack.framework import AclNetwork, build_model
from repro.stack.reference import run_reference
from repro.stack.runtime import OpenClRuntime


def develop_and_record():
    """Development time: full stack + recorder (Figure 1, left)."""
    print("== development machine: recording MNIST on the full stack ==")
    machine = Machine.create("hikey960", seed=7)
    driver = MaliDriver(machine)
    runtime = OpenClRuntime(driver)
    model = build_model("mnist")
    network = AclNetwork(runtime, model, fuse=False)

    network.configure()
    print(f"  stack startup: {network.startup_ns / 1e6:.1f} ms "
          f"(bottleneck: "
          f"{max(network.startup_phases, key=network.startup_phases.get)})")

    # Warm up once so job-binary memory comes from the runtime's pool,
    # then record with taint-discovered input/output addresses.
    network.run(np.zeros(model.input_shape, np.float32))
    workload = record_inference(network)
    recording = workload.recording
    print(f"  recorded {recording.meta.n_jobs} GPU jobs, "
          f"{len(recording.actions)} replay actions, "
          f"{recording.meta.reg_io} register accesses")
    print(f"  recording size: {recording.size_unzipped() / 1024:.0f} KB "
          f"raw, {recording.size_zipped() / 1024:.0f} KB zipped")
    print(f"  discovered input at GPU VA "
          f"{recording.meta.inputs[0].gaddr:#x}, output at "
          f"{recording.meta.outputs[0].gaddr:#x}")
    return recording.to_bytes()


def deploy_and_replay(blob: bytes):
    """Run time: replayer only -- no framework, runtime, or driver."""
    print("\n== target machine: replaying on a fresh board ==")
    machine = Machine.create("hikey960", seed=99)  # different layout!
    replayer = Replayer(machine)
    replayer.init()
    report = replayer.load(Recording.from_bytes(blob))
    print(f"  verified: {report.actions} actions, "
          f"{len(report.registers_used)} registers, peak GPU memory "
          f"{report.peak_mapped_bytes / 1e6:.1f} MB")
    print(f"  replayer startup (init+load): "
          f"{(replayer.init_ns + replayer.load_ns) / 1e6:.2f} ms")

    model = build_model("mnist")
    rng = np.random.default_rng(2026)
    for i in range(3):
        x = rng.standard_normal(model.input_shape).astype(np.float32)
        result = replayer.replay(inputs={"input": x})
        expected = run_reference(model, x, fuse=False)
        assert np.array_equal(result.output,
                              expected.reshape(result.output.shape)), \
            "replayed output diverged from the CPU reference!"
        print(f"  inference {i}: class={int(result.output.argmax())} "
              f"in {result.duration_ns / 1e6:.2f} ms virtual "
              f"(matches CPU reference)")
    replayer.cleanup()


def main():
    blob = develop_and_record()
    deploy_and_replay(blob)
    print("\nquickstart OK: record once, replay anywhere.")


if __name__ == "__main__":
    main()
