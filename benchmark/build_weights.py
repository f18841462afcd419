"""Train detector weights for the detect workloads and save them as a checkpoint.

    python3 benchmark/build_weights.py OUT.msfr '{"n_scenes": 256, "iterations": 400, ...}'

The benchmark runs this in a child process, so the training's memory and
heap never show in the measuring process.  msfacedet must be importable.
"""

import json
import sys

from msfacedet import TrainConfig, generate_toy_dataset, train


def main(out_path: str, spec_json: str):
    spec = json.loads(spec_json)
    scenes = generate_toy_dataset(
        spec["n_scenes"], spec["image_size"], tuple(spec["face_range"]), seed=spec["seed"]
    )
    result = train(scenes, TrainConfig(iterations=spec["iterations"]), trace_every=spec["iterations"])
    result.model.save(out_path)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
