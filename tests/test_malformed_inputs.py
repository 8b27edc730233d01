"""Property tests of the exit-code contract for the three JSON documents the
program reads: a dataset's ``meta.json``, a run config and a checkpoint's
metadata.

Each example replaces one field of a valid document with an arbitrary JSON
value, or deletes it. The matching loader must then either return or raise
one of the errors that ``cli.main`` maps to exit 2, never anything else. A
run config it returns must also hold the changed field as written.
"""

import copy
import json
import math
from dataclasses import fields

import pytest
from hypothesis import given, settings, strategies as st

from gzslgen.config import effective_dict, load_checkpoint, parse_run_config, save_checkpoint
from gzslgen.data import SyntheticSpec, load_dataset, make_synthetic_dataset, save_dataset
from gzslgen.errors import ContractViolation, DataLoadError, FormatError, ValidationError
from gzslgen.evaluation import EvalConfig
from gzslgen.losses import LossWeights
from gzslgen.matio import write_archive
from gzslgen.trainer import OptimizerConfig, TrainConfig, train

from helpers import archive_contents

EXIT_TWO = (ValidationError, FormatError, DataLoadError, ContractViolation)
DELETE = object()

SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.sampled_from([-1, 0, 2**31, 2**63, 10**9, 10**400, -(10**400)]),
    st.floats(),
    st.text(max_size=6),
)
VALUES = st.one_of(
    SCALARS,
    st.lists(SCALARS, max_size=4),
    st.dictionaries(st.text(max_size=4), SCALARS, max_size=3),
    st.just(DELETE),
)
PROPERTY = settings(derandomize=True, deadline=None, max_examples=300, database=None)

RUN_DOC = {
    "synthetic": {"n_seen_classes": 2, "n_unseen_classes": 1, "feature_dim": 6,
                  "attribute_dim": 2, "samples_per_class": 4, "cluster_std": 0.05,
                  "projection_seed": 1, "noise_seed": 2},
    "train": {"batch_size": 8, "epochs": 1, "n1": 1, "n2": 1, "hidden_dim": 4, "seed": 0},
    "eval": {"n_per_class": 2, "counts": [1, 2]},
    "out": "run",
}
# every run-config field annotated float, as (section, name)
FLOAT_FIELDS = [(section, f.name) for section, declared in (
    ("synthetic", fields(SyntheticSpec)),
    ("train", (*fields(LossWeights), *fields(OptimizerConfig), *fields(TrainConfig))),
    ("eval", fields(EvalConfig)),
) for f in declared if f.type == "float"]
# every field present, with the data source given either way
RUN_DOCS = [
    effective_dict(parse_run_config(RUN_DOC)),
    effective_dict(parse_run_config(
        {**{k: v for k, v in RUN_DOC.items() if k != "synthetic"}, "dataset": "ds"})),
]


def field_paths(doc, prefix=()):
    """Every key path of the nested JSON object ``doc``, objects included."""
    paths = []
    for key, value in doc.items():
        paths.append(prefix + (key,))
        if isinstance(value, dict):
            paths.extend(field_paths(value, prefix + (key,)))
    return paths


def mutated(doc, path, value):
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is DELETE:
        parent.pop(path[-1], None)
    else:
        parent[path[-1]] = value
    return doc


def lookup(doc, path):
    """The value at ``path`` in ``doc``, or None where it is absent."""
    for key in path:
        if not isinstance(doc, dict) or key not in doc:
            return None
        doc = doc[key]
    return doc


def kind(value):
    """The JSON type of ``value``, integers and floats both being numbers."""
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    return "number" if number else type(value).__name__


def same(echoed, written):
    if isinstance(echoed, float):  # every float field is converted, integers included
        return echoed == float(written)
    return echoed == written


def returns_or_exits_two(load, *args):
    try:
        load(*args)
    except EXIT_TWO:
        pass


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("ds")
    save_dataset(make_synthetic_dataset(parse_run_config(RUN_DOC).synthetic), str(root))
    return root, json.loads((root / "meta.json").read_text())


@pytest.fixture(scope="module")
def checkpoint(tmp_path_factory):
    cfg = parse_run_config(RUN_DOC)
    params, _ = train(cfg.resolve_bundle(), cfg.train)
    path = str(tmp_path_factory.mktemp("ckpt") / "checkpoint.zip")
    save_checkpoint(path, params, cfg)
    meta, arrays = archive_contents(path)
    return path, meta, arrays


@PROPERTY
@given(data=st.data())
def test_dataset_meta_field(dataset, data):
    root, meta = dataset
    field = data.draw(st.sampled_from(field_paths(meta)), label="field")
    (root / "meta.json").write_text(json.dumps(mutated(meta, field, data.draw(VALUES, label="value"))))
    returns_or_exits_two(load_dataset, str(root))


@PROPERTY
@given(data=st.data())
def test_run_config_field(data):
    doc = data.draw(st.sampled_from(RUN_DOCS), label="doc")
    path = data.draw(st.sampled_from(field_paths(doc) + [("dataset",)]), label="field")
    value = data.draw(VALUES, label="value")
    try:
        cfg = parse_run_config(mutated(doc, path, value))
    except EXIT_TWO:
        return
    echo = effective_dict(cfg)
    for float_path in FLOAT_FIELDS:
        if float_path[0] in echo:
            echoed = lookup(echo, float_path)
            assert type(echoed) is float and math.isfinite(echoed), float_path
    if value is not DELETE and not isinstance(lookup(doc, path), dict):
        echoed = lookup(echo, path)
        assert kind(echoed) == kind(value) == kind(lookup(doc, path)) and same(echoed, value)


@PROPERTY
@given(data=st.data())
def test_checkpoint_metadata_field(checkpoint, data):
    path, meta, arrays = checkpoint
    field = data.draw(st.sampled_from(field_paths(meta)), label="field")
    write_archive(path, mutated(meta, field, data.draw(VALUES, label="value")), arrays)
    returns_or_exits_two(load_checkpoint, path)
