"""Pins on what a seed must keep giving: one trained forest's bytes and the
g of a few fixed flows. numpy's Generator may change what choice, integers
and uniform return between releases (NEP 19), and the reference builder in
test_iforest draws through the same calls, so only fixed values catch such
a change. A change that alters a model on purpose updates these pins."""

import functools
import hashlib
import json

from natwatch.detect import TrainConfig, train_pipeline
from natwatch.flowdata import DeviceModelId, chronological_split
from natwatch.iforest import _forest_to_dict, normality_scores
from natwatch.preprocess import transform_many
from natwatch.synth import builtin_scenario, generate_flows

FOREST_SHA256 = "e2d3e5f448471d69b99af4c0b7404e8585078d5ab17ec12b9e833d5b71b17893"
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


def test_a_seed_gives_the_pinned_forest_and_g():
    model, artifact, test = _trained()
    body = json.dumps(_forest_to_dict(artifact.forest), sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(body.encode()).hexdigest() == FOREST_SHA256
    # the model's first 5 test flows, alone and leading a 200-row batch
    own = [lf.flow for lf in test if lf.label == model][:5]
    batch = own + [lf.flow for lf in test if lf.label != model][:195]
    X = transform_many(artifact.schema, batch)
    assert [float(normality_scores(artifact.forest, X[i:i + 1])[0]).hex()
            for i in range(5)] == G_HEX
    assert [float(g).hex() for g in normality_scores(artifact.forest, X)[:5]] == G_HEX
