"""Cross-camera vehicle matching: the paper's Example 2.

"Suppose we are given two videos from two different cameras, we want to
find all cars that appear in both videos ... pre-compute the relevant
features and build a multidimensional index over one of the sets of
SSDPatch objects."

Camera B watches the same street from the opposite side (simulated as a
mirrored viewpoint), so every vehicle appears in both feeds with the same
paint but different trajectories. The join predicate is over *pixel
content* (colour histograms), exactly the case the paper says existing
systems handle poorly — DeepLens runs it as an On-The-Fly Ball-tree
similarity join.

Run: ``python examples/cross_camera_match.py``
"""

import tempfile

import numpy as np

from repro.bench.metrics import Timer, assign_identity
from repro.core import DeepLens
from repro.core.operators import BallTreeSimilarityJoin, MetadataScan
from repro.datasets import TrafficCamDataset
from repro.etl import HistogramTransformer, ObjectDetectorGenerator, Pipeline
from repro.vision import SyntheticSSD

MATCH_THRESHOLD = 0.45


def main() -> None:
    dataset = TrafficCamDataset(scale=0.004, seed=19)
    camera_a = list(dataset.frames())
    camera_b = [np.fliplr(frame) for frame in camera_a]  # opposite roadside
    print(f"two feeds of {len(camera_a)} frames each, same street")

    pipeline = Pipeline(
        [
            ObjectDetectorGenerator(SyntheticSSD()),
            HistogramTransformer(bins=4, key="hist"),
        ]
    )

    with tempfile.TemporaryDirectory() as workdir, DeepLens(workdir) as db:
        db.ingest_video("cam-a", iter(camera_a), layout="segmented")
        db.ingest_video("cam-b", iter(camera_b), layout="segmented")
        collections = {}
        for cam in ("cam-a", "cam-b"):
            patches = (
                patch
                for patch in pipeline.run(db.load(cam))
                if patch["label"] == "vehicle"
            )
            collections[cam] = db.materialize(patches, f"{cam}-vehicles")
            print(f"{cam}: {len(collections[cam])} vehicle patches")

        # On-The-Fly Index Similarity Join: cam-b (the smaller relation in
        # general) is loaded into an in-memory Ball-tree; cam-a probes it
        join = BallTreeSimilarityJoin(
            MetadataScan(collections["cam-a"]),
            MetadataScan(collections["cam-b"]),
            threshold=MATCH_THRESHOLD,
            features=lambda patch: patch["hist"],
        )
        with Timer() as timer:
            matched_identities = set()
            for left, right in join:
                identity = assign_identity(
                    left.bbox,
                    dataset.ground_truth(left["frameno"]),
                    category="vehicle",
                )
                if identity is not None:
                    matched_identities.add(identity)
        print(
            f"\nsimilarity join: {timer.seconds * 1000:.0f} ms; vehicles "
            f"seen by both cameras: {sorted(matched_identities)}"
        )
        truth = {
            box.object_id
            for frame in range(dataset.n_frames)
            for box in dataset.ground_truth(frame)
            if box.category == "vehicle"
        }
        print(f"ground truth (every vehicle crosses both views): {sorted(truth)}")
        recall = len(matched_identities & truth) / len(truth) if truth else 1.0
        print(f"identity recall: {recall:.2f}")


if __name__ == "__main__":
    main()
