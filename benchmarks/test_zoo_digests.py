"""Every zoo recording keeps its digest.

Records all 14 zoo models on mali, v3d and adreno, the way
``benchmarks/test_store_raw_rule.py`` does, and checks each
recording's digest against the pin below. How record time holds a
page's bytes (a copy, or a reference to the model's weights) may
change; which bytes land in a recording may not. Tier-1 pins five of
these pairs (``tests/core/test_recorder.py``). Run the file as a
script (``PYTHONPATH=src python benchmarks/test_zoo_digests.py``) to
print the table for any tree.
"""

import numpy as np
import pytest

from repro.bench.workloads import STACKS, build_stack
from repro.core.harness import record_inference
from repro.stack.framework import MODEL_ZOO

DIGESTS = {
    ("adreno", "alexnet"):
        "f627ceef2b815bcfaea63dfeb74161ac"
        "5317993f295b7e2eb418bb3fc05fbc04",
    ("adreno", "autoencoder"):
        "e45ebea2286679e9c304625534f8de6a"
        "39adfb604ae0f7108db5f2244bb5f4f6",
    ("adreno", "dense-serve"):
        "9e120d5c344c23a7ab1614b57430ed43"
        "5a859ab5a2ca202f24199c0df2e3a046",
    ("adreno", "googlenet-lite"):
        "d7f75e30835da4dfc5c52513924cdbb2"
        "595274766f1074c5d070380831ccd7c0",
    ("adreno", "har"):
        "2f70c4e436a28d9335c19190fdd02cca"
        "21e544623da387236b4d986e6a4ff9f5",
    ("adreno", "kws"):
        "4e03d84702d9b2ed01bea32fd8eb8a62"
        "7a1908b669523804c1b8881d34631448",
    ("adreno", "lenet5"):
        "56e0b5db889cbbf39f04ee805404b38e"
        "7cb8f6b88e24c3cdcf7a73709817953e",
    ("adreno", "mnist"):
        "5f7dffdc851f2dff0248a7d01bf7c535"
        "ea1058c2a3cd6cc11071e8d4ee08ab36",
    ("adreno", "mobilenet"):
        "0ead669d83d2fdf9956b3f886f525230"
        "127276d92d08951312c66f5c4798b525",
    ("adreno", "resnet12"):
        "c8a7a527054755464b86d2af37614228"
        "66daa7c62dd021d1daa5c30ddb9036c7",
    ("adreno", "resnet18"):
        "d26b82d682916752755cce4efaf9e551"
        "e7343af182a8164ee0363befd3721b3c",
    ("adreno", "squeezenet"):
        "7e018161112e0b6612eb6f019e3d61c6"
        "5cda72cfc5c1bfb445950e197c59ce3b",
    ("adreno", "vgg16"):
        "9005675a3a29b284891fd22eafbcede3"
        "96ef9978280cf16230f98000a63eb2e7",
    ("adreno", "yolov4-tiny"):
        "5bb0a4ba5f19a11bc15e2bdc0e5eca8e"
        "7b65e4073bd1a8434f4b90c00a975a4b",
    ("mali", "alexnet"):
        "f429822fa4c9ca273e82752113498d0e"
        "7395d0781e084f821cc8fdf3ef300ca3",
    ("mali", "autoencoder"):
        "2cd68422d59e0455343e04c1e5054f50"
        "53a381a26ac040dc0ffacb2111365631",
    ("mali", "dense-serve"):
        "240da118a35767004cd04cf309f1c4db"
        "44120ec3891ae1d7c5fb4359f27a79d6",
    ("mali", "googlenet-lite"):
        "134fa73449e6dea4c5d5e508357f7e06"
        "c0c0aef05566708106d603dceeac6181",
    ("mali", "har"):
        "3a9ac6e9bdbf7e7500f88fabb66c8dfd"
        "fcf573f19d1d78ce6b2831e9b24e1758",
    ("mali", "kws"):
        "a17b886652e17e09207e261196f9f194"
        "e84e6c92c68fb148c3edb8a310a85dd8",
    ("mali", "lenet5"):
        "5a799bf817a8b8e16b536e20291b0425"
        "c7a31d5efe031df90732c89bcdce0ad9",
    ("mali", "mnist"):
        "b577552758b31d0fb544c650c31ac181"
        "a1ce9a3e7c675e841fb314ccea25eb7b",
    ("mali", "mobilenet"):
        "5fca9494bc6260d2047875fd4f8c190b"
        "ba2f4e5db636c19dd393471c11ba87cb",
    ("mali", "resnet12"):
        "0e4b3c9239b74fe0fc80f8d5aee53342"
        "cf92a4fdb0d50c8c6fce8ca092a9a723",
    ("mali", "resnet18"):
        "106396d8fd94ab13eec3c09860a09f7c"
        "0442f78ecdf0d0ead73a348996159c3c",
    ("mali", "squeezenet"):
        "85f2b578d43ee54cdf513baaf2f10832"
        "873c8f56cdb6130ad9a005a1a524baa5",
    ("mali", "vgg16"):
        "6e3d7c651429b4129c1a414a8493f3e9"
        "35c81d83ecb602d711ce6fa8ec2f2ca8",
    ("mali", "yolov4-tiny"):
        "dc0c38e0989c2624968e82235ba97a56"
        "3a3a0b049acacaf0394dc025f40eaea9",
    ("v3d", "alexnet"):
        "ec92d112211a1903be5445dfd7090df7"
        "b2a291f6726de73af6331a8ec1ba173c",
    ("v3d", "autoencoder"):
        "7f2eba80b5f2249eb52466adbc733a5b"
        "8349a506b0787faed4b22e1d29ec6c20",
    ("v3d", "dense-serve"):
        "3876c0446f3038030b69082921fb977f"
        "d25e0573b02bd2eea48be84210152bad",
    ("v3d", "googlenet-lite"):
        "338d2acd8f7ea93b22be0d2b6a407044"
        "bd9e22aab03e297d7d70f1d8ee85a8e3",
    ("v3d", "har"):
        "7ac1949636ae9a8db8dd01456dc81655"
        "a779573ddc5c294d86d040bed2ef8b16",
    ("v3d", "kws"):
        "d43542cb714af9199f086fde7907865c"
        "b7d8ecdde1933ec947057dbbb9cd811b",
    ("v3d", "lenet5"):
        "1d592045f12de4c23779ce495a89c1e6"
        "f25ddefcc0d03f4bae084d5c73fe47a1",
    ("v3d", "mnist"):
        "aa6eb8480d965a6219f6e218bf816fd2"
        "4043f540b6a6e8e6830b3663db8c45c8",
    ("v3d", "mobilenet"):
        "4dc615432c21d6bfcad0358d20f00d4f"
        "4a8b86b217c91edccc8d9efa084b2f75",
    ("v3d", "resnet12"):
        "9c7a3c00b8c5af831f7fa72677ba8aa4"
        "283a347e05400bfc36365aa28305bbde",
    ("v3d", "resnet18"):
        "512f90c43782140c1574fdacfa5f8136"
        "c24733441b42a6b498749e8cb3352fd7",
    ("v3d", "squeezenet"):
        "124939fa932fe71d5bd69e62bdef2486"
        "578bee3904a7067fc5475d682f70d02f",
    ("v3d", "vgg16"):
        "98058e721a0824d38b8565b9fff453c5"
        "48e8feff5d3383b68095c5fc2f9fd3ae",
    ("v3d", "yolov4-tiny"):
        "e93e04cc0e97a9349455b773cdbf35e0"
        "837d4c9e90beef43fae71734b0c664df",
}


def zoo_digests(family):
    """``{(family, model): digest}`` of every zoo model on ``family``."""
    out = {}
    for model in sorted(MODEL_ZOO):
        stack = build_stack(family, model)
        stack.net.run(np.zeros(stack.net.model.input_shape, np.float32))
        out[family, model] = record_inference(stack.net).recording.digest()
    return out


@pytest.mark.parametrize("family", sorted(STACKS))
def test_every_zoo_recording_keeps_its_digest(family):
    got = zoo_digests(family)
    assert len(got) == len(MODEL_ZOO)
    assert got == {key: DIGESTS[key] for key in got}


if __name__ == "__main__":
    print("DIGESTS = {")
    for family in sorted(STACKS):
        for (_family, model), digest in zoo_digests(family).items():
            print(f'    ("{family}", "{model}"):\n'
                  f'        "{digest[:32]}"\n        "{digest[32:]}",')
    print("}")
