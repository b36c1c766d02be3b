"""Pins on what a seed must keep giving: a synthetic flows.csv, one trained
forest's bytes and the g of a few fixed flows. numpy's Generator may
change what choice, integers and uniform return between releases (NEP 19),
and the reference builder in test_iforest draws through the same calls,
so only fixed values catch such a change. A change that alters a model on
purpose updates these pins."""

import functools
import hashlib
import json

from natwatch.cli import main
from natwatch.detect import TrainConfig, train_pipeline
from natwatch.flowdata import DeviceModelId, chronological_split
from natwatch.iforest import CHUNK_ROWS, _forest_to_dict, load_artifact, normality_scores, \
    save_artifact
from natwatch.preprocess import transform_many
from natwatch.synth import builtin_scenario, generate_flows

FOREST_SHA256 = "e2d3e5f448471d69b99af4c0b7404e8585078d5ab17ec12b9e833d5b71b17893"
FLOWS_CSV_SHA256 = "8cca9e6cec66b87e8135f91e7db36b67b4b1914e22a7942386034156f1fe3adc"
G_HEX = ["-0x1.31b029f316028p-4", "0x1.7b015736f3240p-8", "0x1.94c072c200cf0p-5",
         "-0x1.5b17947e36b60p-5", "0x1.02f4876c2d400p-10"]


@functools.lru_cache(maxsize=1)
def _trained():
    """separable-13 at 200 flows per device (seed 1), the first IoT model
    trained at master seed 3 (psi 140), and its test split."""
    dataset = generate_flows(builtin_scenario("separable-13", flows_per_device=200, seed=1))
    model = next(lf.label for lf in dataset if isinstance(lf.label, DeviceModelId))
    artifact = train_pipeline(dataset, TrainConfig(model=model, master_seed=3))
    return model, artifact, chronological_split(dataset).test


def _forest_sha256(forest) -> str:
    body = json.dumps(_forest_to_dict(forest), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(body.encode()).hexdigest()


def test_a_seed_gives_the_pinned_forest_and_g(tmp_path):
    model, artifact, test = _trained()
    assert _forest_sha256(artifact.forest) == FOREST_SHA256
    # and once saved and loaded, which writes it from the loaded table
    save_artifact(artifact, tmp_path / "model.json")
    assert _forest_sha256(load_artifact(tmp_path / "model.json").forest) == FOREST_SHA256
    # the model's first 5 test flows, alone and leading a 200-row batch and
    # a batch of more than one chunk
    own = [lf.flow for lf in test if lf.label == model][:5]
    others = [lf.flow for lf in test if lf.label != model]
    for rows in (200, 2 * CHUNK_ROWS + 5):
        X = transform_many(artifact.schema, own + others[:rows - 5])
        assert len(X) == rows
        assert [float(g).hex() for g in normality_scores(artifact.forest, X)[:5]] == G_HEX
    assert [float(normality_scores(artifact.forest, X[i:i + 1])[0]).hex()
            for i in range(5)] == G_HEX


def test_a_seed_gives_the_pinned_flows_csv(tmp_path):
    """natwatch synth's flows.csv of separable-13 at 20 flows per device."""
    out = tmp_path / "data"
    assert main(["synth", "--scenario", "separable-13", "--flows", "20", "--seed", "1",
                 "--out", str(out)]) == 0
    assert hashlib.sha256((out / "flows.csv").read_bytes()).hexdigest() == FLOWS_CSV_SHA256
