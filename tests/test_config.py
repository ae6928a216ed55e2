"""Declared field ranges: every numeric field carries one, and a hostile-value
table built from the type hints drives each bound of `RunConfig` (nested
sections included) and of `SynthSpec`."""

import json
import math
import re
import typing

import numpy as np
import pytest

from segforge.data import SynthSpec
from segforge.errors import ConfigError
from segforge.model import ConfigDocument, Range
from segforge.train import RunConfig, apply_overrides, run_preset


def numeric_fields(cls, prefix=""):
    """(key, annotated hint) of every int, float and tuple field of `cls`, sections walked."""
    for name, hint in typing.get_type_hints(cls, include_extras=True).items():
        base = typing.get_args(hint)[0] if typing.get_origin(hint) is typing.Annotated else hint
        if isinstance(base, type) and issubclass(base, ConfigDocument):
            yield from numeric_fields(base, f"{prefix}{name}.")
        elif base in (int, float) or typing.get_origin(base) is tuple:
            yield prefix + name, hint


# SynthSpec's keys carry the "synth " prefix its messages use
FIELDS = [*numeric_fields(RunConfig), *numeric_fields(SynthSpec, "synth ")]


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


def check(key, value):
    """Build and check the config with `key` set to `value`, as the CLI does."""
    if key.startswith("synth "):
        SynthSpec(**{key[len("synth "):]: tuple(value) if isinstance(value, list) else value})
        return
    d = apply_overrides(run_preset("desk").to_dict(),
                        [*TABLE_BASE, f"{key}={json.dumps(value)}"])
    RunConfig.from_dict(d).validate()


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
