"""A config checks itself when built: every numeric field declares one range, and
hostile-value tables built from the type hints drive each bound and each type rule
of `RunConfig` (nested sections included) and of `SynthSpec`, through JSON and
through each document's own class."""

import dataclasses
import json
import math
import re
import typing

import numpy as np
import pytest

from segforge.data import SynthSpec
from segforge.errors import ConfigError
from segforge.model import PRESETS, ConfigDocument, ModelConfig, Range, build_model
from segforge.optim import Adam, OptimizerConfig
from segforge.tensor import Tensor
from segforge.train import (LossConfig, RunConfig, SplitConfig, apply_overrides,
                            run_preset)


def base_of(hint):
    return typing.get_args(hint)[0] if typing.get_origin(hint) is typing.Annotated else hint


def config_fields(cls, prefix=""):
    """(key, annotated hint) of every field of `cls`, each section and then its fields."""
    for name, hint in typing.get_type_hints(cls, include_extras=True).items():
        yield prefix + name, hint
        if isinstance(hint, type) and issubclass(hint, ConfigDocument):
            yield from config_fields(hint, f"{prefix}{name}.")


# SynthSpec's keys carry the "synth " prefix its messages use
ALL_FIELDS = [*config_fields(RunConfig), *config_fields(SynthSpec, SynthSpec.KEY)]
FIELDS = [(key, hint) for key, hint in ALL_FIELDS   # the int, float and tuple fields
          if base_of(hint) in (int, float) or typing.get_origin(base_of(hint)) is tuple]


def declared_range(hint):
    ranges = [m for m in getattr(hint, "__metadata__", ()) if isinstance(m, Range)]
    return ranges[0] if len(ranges) == 1 else None


def bound_rows(key, hint, default):
    """(key, value at a bound, which passes; value one step outside it, which fails)."""
    r = declared_range(hint)
    base = typing.get_args(hint)[0]
    if typing.get_origin(base) is tuple:   # the bound holds for each element
        assert r.hi is None and not r.lo_open
        inside = r.lo if isinstance(r.lo, tuple) else (r.lo,) * len(default)
        for i, lo in enumerate(inside):
            yield key, list(inside), [*inside[:i], lo - 1, *inside[i + 1:]]
        return

    def step(x, direction):
        return math.nextafter(x, direction * math.inf) if base is float else x + direction

    if r.lo is not None:
        yield (key, step(r.lo, 1), r.lo) if r.lo_open else (key, r.lo, step(r.lo, -1))
    if r.hi is not None:
        yield key, step(r.hi, -1), r.hi


def default_of(key):
    if key.startswith("synth "):
        return getattr(SynthSpec, key[len("synth "):])
    node = run_preset("desk").to_dict()
    for part in key.split("."):
        node = node[part]
    return node


ROWS = [row for key, hint in FIELDS for row in bound_rows(key, hint, default_of(key))]

# every other rule holds at any bound: reduction 1 divides any stem_width, and a
# cross-entropy weight lets the Dice weight be 0
TABLE_BASE = ["model.reduction=1", "loss.ce_weight=1.0"]
# fixed-value rules that hold the field narrower than its declared range
FIXED = {"model.in_channels": 3, "model.num_classes": 4}


def replaced(doc, key, value):
    """`doc` with dotted `key` set to `value`, each document on the way built by its own class."""
    name, _, rest = key.partition(".")
    return dataclasses.replace(doc, **{name: replaced(getattr(doc, name), rest, value)
                                       if rest else value})


def build_directly(key, value):
    """The config with `key` set to `value`, built without JSON, and checked for a run."""
    if key.startswith(SynthSpec.KEY):
        SynthSpec(**{key[len(SynthSpec.KEY):]: value})
        return
    replaced(RunConfig.from_dict(apply_overrides(run_preset("desk").to_dict(), TABLE_BASE)),
             key, value).validate()


def check(key, value):
    """Build and check the config with `key` set to JSON `value`, as the CLI does, and
    then directly, each document built by its own class."""
    if not key.startswith(SynthSpec.KEY):
        d = apply_overrides(run_preset("desk").to_dict(),
                            [*TABLE_BASE, f"{key}={json.dumps(value)}"])
        RunConfig.from_dict(d).validate()
    build_directly(key, tuple(value) if isinstance(value, list) else value)


def test_every_numeric_field_declares_one_range():
    missing = [key for key, hint in FIELDS if declared_range(hint) is None]
    assert missing == []
    assert {"seed", "split.seed", "model.seed", "model.stem_width", "model.decoder_channels",
            "optimizer.eps", "crop", "synth seed", "synth dims"} <= {key for key, _ in FIELDS}


def test_the_table_covers_every_bounded_field():
    bounded = {key for key, hint in FIELDS
               if (declared_range(hint).lo, declared_range(hint).hi) != (None, None)}
    assert bounded == {key for key, _, _ in ROWS}
    assert bounded == {key for key, _ in FIELDS} - {"split.fraction"}   # (0, 1) is cross-field


@pytest.mark.parametrize("key,inside,outside", ROWS,
                         ids=[f"{key}={outside}" for key, _, outside in ROWS])
def test_one_step_outside_a_bound_is_refused_and_the_bound_passes(key, inside, outside):
    with pytest.raises(ConfigError, match=rf"^{re.escape(key)} must be "):
        check(key, outside)
    with pytest.raises(ConfigError, match=rf"^{re.escape(key)} must be "):
        build_directly(key, tuple(outside) if isinstance(outside, list) else outside)
    if key in FIXED:
        with pytest.raises(ConfigError, match="must be 3 and 4, got"):
            check(key, inside)
        check(key, FIXED[key])
    else:
        check(key, inside)


def test_every_seed_bound_is_the_one_default_rng_takes():
    seeds = {key: declared_range(hint).lo for key, hint in FIELDS
             if re.search(r"(^|[. ])seed$", key)}
    assert set(seeds) == {"seed", "model.seed", "split.seed", "synth seed"}
    for key, lo in seeds.items():
        check(key, lo)
        np.random.default_rng(lo)
        np.random.default_rng([lo, 1])    # the run seed and synth seed are paired with an index
        with pytest.raises(ValueError):
            np.random.default_rng(lo - 1)


def wrongly_typed(hint, default):
    """Values of the wrong type for a field, `default` its JSON value: ones a casting codec
    would take included."""
    base = base_of(hint)
    if isinstance(base, type) and issubclass(base, ConfigDocument):
        return [5, None, default, SynthSpec()]
    if typing.get_origin(base) is tuple:
        d = tuple(default)
        return [list(d), d[:-1], (*d, 64), (1.5, *d[1:]), (True, *d[1:]), (str(d[0]), *d[1:]),
                5, None]
    return {int: ["3", 2.9, True, None, np.float64(3.0)], float: ["0.5", True, None, [1.0]],
            str: [5, True, None, b"x"], bool: ["no", "true", 1, 0, None]}[base]


TYPE_ROWS = [(key, value) for key, hint in ALL_FIELDS
             for value in wrongly_typed(hint, default_of(key))]


@pytest.mark.parametrize("key,value", TYPE_ROWS,
                         ids=[f"{key}={value!r}"[:60] for key, value in TYPE_ROWS])
def test_a_wrongly_typed_value_built_directly_names_its_key(key, value):
    with pytest.raises(ConfigError, match=rf"^{re.escape(key)} must be "):
        build_directly(key, value)


PARAMS = {"w": Tensor(np.zeros(1), requires_grad=True)}
# each raised a TypeError, or built without error, before construction checked every field
PROBES = [
    ("model.stem_width", lambda: ModelConfig(stem_width="16")),
    ("model.stem_width",
     lambda: build_model(dataclasses.replace(PRESETS["desk"], stem_width=16.0))),
    ("optimizer.lr", lambda: Adam(PARAMS, lr="x")),
    ("optimizer.lr", lambda: Adam(PARAMS, lr=None)),
    ("synth cases", lambda: SynthSpec(cases="2")),
    ("epochs", lambda: dataclasses.replace(run_preset("desk"), epochs="3").validate()),
    ("optimizer.lr", lambda: OptimizerConfig(lr=-1.0)),
    ("split.seed", lambda: SplitConfig(seed=-1)),
    ("loss.dice_weight", lambda: LossConfig(dice_weight=-1.0)),
    ("epochs", lambda: RunConfig(epochs=0)),
    ("synth lesions", lambda: SynthSpec(lesions=1.5)),
    ("model.stage_depths", lambda: ModelConfig(stage_depths=[1, 1, 1, 1])),
]


@pytest.mark.parametrize("key,build", PROBES, ids=[f"probe{i}-{key}" for i, (key, _) in
                                                   enumerate(PROBES)])
def test_each_document_checks_itself_when_built(key, build):
    with pytest.raises(ConfigError, match=rf"^{re.escape(key)} must be "):
        build()


SECTIONS = {name: hint for name, hint in typing.get_type_hints(RunConfig).items()
            if isinstance(hint, type) and issubclass(hint, ConfigDocument)}


def test_every_section_is_keyed_as_its_field():
    assert set(SECTIONS) == {"model", "optimizer", "split", "loss"}
    for name, hint in SECTIONS.items():
        assert hint.KEY == name + "."   # the dotted key `--override` takes
        assert "KEY" not in hint().to_dict()
    assert (RunConfig.KEY, SynthSpec.KEY) == ("", "synth ")
    assert "KEY" not in run_preset("desk").to_dict() and "KEY" not in SynthSpec().to_dict()


@pytest.mark.parametrize("cls", [RunConfig, SynthSpec, *SECTIONS.values()],
                         ids=lambda cls: cls.__name__)
def test_every_document_is_frozen(cls):
    doc = cls()
    name = dataclasses.fields(cls)[0].name
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(doc, name, getattr(doc, name))
