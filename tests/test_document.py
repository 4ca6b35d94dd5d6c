import contextlib
import copy
import gc
import io
import json
import math
import os
import resource
import subprocess
import sys
import threading
import time
import tracemalloc
import weakref
from collections import Counter
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import assume, example, given, settings

from reference_pointwise import document_to_json
from fuzzymetrics import InputError, MetricSpace
from fuzzymetrics import document
from fuzzymetrics.cli import main
from fuzzymetrics.document import dumps_document, load_document, parse_document
from fuzzymetrics.generators import collapse_family, crisp_interval_family, random_family, translates_family


def write_doc(tmp_path, data, name="doc.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


MINIMAL = {
    "space": {"type": "euclidean", "dim": 1},
    "fuzzy_sets": [{"name": "u0", "levels": [{"alpha": 1.0, "points": [[0.0]]}]}],
}


def test_minimal_document(tmp_path):
    doc = load_document(write_doc(tmp_path, MINIMAL))
    assert doc.declared == ("u0",)
    assert len(doc.fuzzy("u0").levels) == 1


def test_non_nested_rejected_with_set_name(tmp_path):
    data = {
        "space": {"type": "euclidean", "dim": 1},
        "fuzzy_sets": [
            {
                "name": "bad",
                "levels": [
                    {"alpha": 1.0, "points": [[0.0]]},
                    {"alpha": 0.5, "points": [[1.0]]},
                ],
            }
        ],
    }
    with pytest.raises(InputError, match="'bad'"):
        load_document(write_doc(tmp_path, data))


def test_generator_expansion_count(tmp_path):
    data = dict(MINIMAL)
    data["families"] = [{"name": "col", "generator": {"kind": "collapse", "count": 50}}]
    doc = load_document(write_doc(tmp_path, data))
    fam = doc.family("col")
    assert len(fam.members) == 50
    assert fam.names[0] == "col[1]" and fam.names[-1] == "col[50]"
    assert doc.fuzzy("col[7]") is fam.members[6]
    # family names resolve as sequences in member order
    assert doc.sequence("col") == list(fam.members)


def test_parse_error_reports_line(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "space": \n', encoding="utf-8")
    with pytest.raises(InputError, match="line"):
        load_document(str(path))


@pytest.mark.parametrize("text", [b'{"space": {"type": "euclidean", "dim": ' + b"1" * 5000 + b"}}",
                                  b'{"space": "\xff"}'], ids=["integer-of-5000-digits", "not-utf-8"])
def test_undecodable_text_is_an_input_error(tmp_path, text):
    # each used to escape from json.load as a ValueError traceback
    path = tmp_path / "doc.json"
    path.write_bytes(text)
    with pytest.raises(InputError, match="doc.json: "):
        load_document(str(path))


def test_missing_file(tmp_path):
    with pytest.raises(InputError):
        load_document(str(tmp_path / "nope.json"))


def test_duplicate_names_rejected(tmp_path):
    data = {
        "space": {"type": "euclidean", "dim": 1},
        "fuzzy_sets": [
            {"name": "u", "levels": [{"alpha": 1.0, "points": [[0.0]]}]},
            {"name": "u", "levels": [{"alpha": 1.0, "points": [[1.0]]}]},
        ],
    }
    with pytest.raises(InputError, match="duplicate"):
        load_document(write_doc(tmp_path, data))


def test_unknown_member_rejected(tmp_path):
    data = dict(MINIMAL)
    data["sequences"] = [{"name": "s", "members": ["u0", "ghost"]}]
    with pytest.raises(InputError, match="ghost"):
        load_document(write_doc(tmp_path, data))


def test_family_needs_members_or_generator(tmp_path):
    data = dict(MINIMAL)
    data["families"] = [{"name": "f"}]
    with pytest.raises(InputError, match="members or generator"):
        load_document(write_doc(tmp_path, data))


def test_finite_space_document(tmp_path):
    data = {
        "space": {"type": "finite", "matrix": [[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]]},
        "fuzzy_sets": [
            {"name": "a", "levels": [{"alpha": 1.0, "points": [0]}, {"alpha": 0.5, "points": [0, 2]}]}
        ],
    }
    doc = load_document(write_doc(tmp_path, data))
    assert doc.fuzzy("a").levels[1][1].array[1] == 2


def test_finite_space_rejects_bad_metric(tmp_path):
    data = {
        "space": {"type": "finite", "matrix": [[0.0, 1.0, 3.0], [1.0, 0.0, 1.0], [3.0, 1.0, 0.0]]},
        "fuzzy_sets": [],
    }
    with pytest.raises(InputError, match="triangle"):
        load_document(write_doc(tmp_path, data))


def test_sequences_allow_repeats(tmp_path):
    data = {
        "space": {"type": "euclidean", "dim": 1},
        "fuzzy_sets": [
            {"name": "a", "levels": [{"alpha": 1.0, "points": [[0.0]]}]},
            {"name": "b", "levels": [{"alpha": 1.0, "points": [[1.0]]}]},
        ],
        "sequences": [{"name": "alt", "members": ["a", "b", "a", "b"]}],
    }
    doc = load_document(write_doc(tmp_path, data))
    assert len(doc.sequence("alt")) == 4


def test_round_trip_through_expansion(tmp_path):
    data = dict(MINIMAL)
    data["families"] = [
        {"name": "tr", "generator": {"kind": "translates", "count": 5, "params": {"start": 0.0, "step": 0.5}}}
    ]
    doc = load_document(write_doc(tmp_path, data))
    expanded = document_to_json(doc)
    doc2 = parse_document(expanded)
    assert doc2.declared[0] == "u0"
    assert set(doc2.family("tr").names) == set(doc.family("tr").names)
    for name in doc.family("tr").names:
        assert doc2.fuzzy(name).levels[0][1].array[0].tolist() == doc.fuzzy(name).levels[0][1].array[0].tolist()


def test_unknown_generator_kind(tmp_path):
    data = dict(MINIMAL)
    data["families"] = [{"name": "f", "generator": {"kind": "spiral", "count": 3}}]
    with pytest.raises(InputError, match="spiral"):
        load_document(write_doc(tmp_path, data))


def test_unknown_generator_param(tmp_path):
    data = dict(MINIMAL)
    data["families"] = [
        {"name": "f", "generator": {"kind": "translates", "count": 3, "params": {"speed": 2}}}
    ]
    with pytest.raises(InputError, match="speed"):
        load_document(write_doc(tmp_path, data))


def test_random_generator_seed_is_deterministic(tmp_path):
    data = dict(MINIMAL)
    data["families"] = [{"name": "r", "generator": {"kind": "random", "count": 10, "seed": 3}}]
    d1 = load_document(write_doc(tmp_path, data, "a.json"))
    d2 = load_document(write_doc(tmp_path, data, "b.json"))
    for n1, n2 in zip(d1.family("r").names, d2.family("r").names):
        u1, u2 = d1.fuzzy(n1), d2.fuzzy(n2)
        assert u1.alphas == u2.alphas
        for (_, c1), (_, c2) in zip(u1.levels, u2.levels):
            assert c1.array.tolist() == c2.array.tolist()


FINITE_OK = {
    "space": {"type": "finite", "matrix": [[0.0, 1.0], [1.0, 0.0]]},
    "fuzzy_sets": [{"name": "a", "levels": [{"alpha": 1.0, "points": [0]}]}],
}


def with_fuzzy(base, levels):
    data = dict(base)
    data["fuzzy_sets"] = [{"name": "a", "levels": levels}]
    return data


# each of these used to load, with the value silently coerced
@pytest.mark.parametrize(
    "data,field",
    [
        (with_fuzzy(MINIMAL, [{"alpha": 1.0, "points": [["1.5"]]}]), "coordinate"),
        (with_fuzzy(MINIMAL, [{"alpha": 1.0, "points": [[True]]}]), "coordinate"),
        (with_fuzzy(MINIMAL, [{"alpha": "1", "points": [[0.0]]}]), "alpha"),
        (with_fuzzy(FINITE_OK, [{"alpha": 1.0, "points": [True]}]), "integer index"),
        ({**FINITE_OK, "space": {"type": "finite", "matrix": [[0.0, "1"], [1.0, 0.0]]}}, r"matrix entry \(0,1\)"),
        ({**MINIMAL, "space": {"type": "euclidean", "dim": True}}, "dim"),
        ({**MINIMAL, "families": [{"name": "c", "generator": {"kind": "collapse", "count": True}}]}, "count"),
        ({**MINIMAL, "families": [{"name": "t", "generator": {"kind": "translates", "count": 3,
                                                               "params": {"start": "0.5"}}}]}, "'start'"),
        ({**MINIMAL, "families": [{"name": "r", "generator": {"kind": "random", "count": 3,
                                                               "params": {"box": ["0", "1"]}}}]}, "'box'"),
        ({**MINIMAL, "families": [{"name": "r", "generator": {"kind": "random", "count": 3, "seed": "7"}}]}, "seed"),
    ],
    ids=["coordinate-string", "coordinate-bool", "alpha-string", "finite-index-bool", "matrix-entry-string",
         "dim-bool", "count-bool", "generator-param-string", "box-strings", "seed-string"],
)
def test_coerced_types_rejected_naming_the_field(tmp_path, data, field):
    with pytest.raises(InputError, match=field):
        load_document(write_doc(tmp_path, data))


NAMED = {
    "space": {"type": "euclidean", "dim": 1},
    "fuzzy_sets": [{"name": n, "levels": [{"alpha": 1.0, "points": [[0.0]]}]} for n in ("o", "True")],
}


# the top-level lists, an int member list and an int generator used to
# escape as a TypeError traceback; the string "oo" used to load as the names
# [o, o], and [true] as the name "True"
@pytest.mark.parametrize(
    "data,field",
    [
        ({**NAMED, "fuzzy_sets": 5}, "fuzzy_sets must be a list"),
        ({**NAMED, "families": 5}, "families must be a list"),
        ({**NAMED, "sequences": 5}, "sequences must be a list"),
        ({**NAMED, "families": [{"name": "f", "members": 5}]}, "family 'f': members"),
        ({**NAMED, "sequences": [{"name": "s", "members": 5}]}, "sequence 's': members"),
        ({**NAMED, "families": [{"name": "f", "members": "oo"}]}, "family 'f': members"),
        ({**NAMED, "sequences": [{"name": "s", "members": "oo"}]}, "sequence 's': members"),
        ({**NAMED, "families": [{"name": "f", "members": [True]}]}, "family 'f': members"),
        ({**NAMED, "sequences": [{"name": "s", "members": ["o", True]}]}, "sequence 's': members"),
        ({**NAMED, "families": [{"name": "f", "members": []}]}, "family 'f': members"),
        ({**NAMED, "families": [{"name": "g", "generator": 5}]}, "family 'g': generator must be an object"),
    ],
    ids=["fuzzy-sets-int", "families-int", "sequences-int", "family-members-int", "sequence-members-int",
         "family-members-string", "sequence-members-string", "family-members-bool", "sequence-members-bool",
         "family-members-empty", "generator-int"],
)
def test_mistyped_lists_and_objects_rejected_naming_the_field(tmp_path, data, field):
    with pytest.raises(InputError, match=field):
        load_document(write_doc(tmp_path, data))


def test_a_level_of_no_points_is_rejected_by_the_finite_set_it_would_build(tmp_path):
    data = {**NAMED, "fuzzy_sets": [{"name": "u", "levels": [{"alpha": 1.0, "points": []}]}]}
    with pytest.raises(InputError, match=r"^fuzzy set 'u': finite set must be nonempty$"):
        load_document(write_doc(tmp_path, data))


def test_member_names_load_as_given(tmp_path):
    data = {**NAMED, "families": [{"name": "f", "members": ["True", "o"]}],
            "sequences": [{"name": "s", "members": ["o", "o", "True"]}]}
    doc = load_document(write_doc(tmp_path, data))
    assert doc.families["f"].names == ("True", "o")
    assert doc.sequences["s"] == ("o", "o", "True")


def test_integer_alpha_and_coordinates_still_load(tmp_path):
    doc = load_document(write_doc(tmp_path, with_fuzzy(MINIMAL, [{"alpha": 1, "points": [[0]]}])))
    assert doc.fuzzy("a").levels[0][0] == 1.0


def random_family_doc(seed=None, **params):
    gen = {"kind": "random", "count": 3, "params": params}
    if seed is not None:
        gen["seed"] = seed
    return {**MINIMAL, "families": [{"name": "r", "generator": gen}]}


# each of these used to load, or to escape from the generator as a
# ValueError traceback
@pytest.mark.parametrize(
    "data,field",
    [
        (random_family_doc(box=[0, 1, 2]), "'box'"),
        (random_family_doc(box=[0]), "'box'"),
        (random_family_doc(box=[1, 0]), "'box'"),
        (random_family_doc(box=[0.5, 0.5]), "'box'"),
        (random_family_doc(box=[0, 1e200]), "family 'r'.*'box'.*1e\\+150"),
        (random_family_doc(box=[-1.5e150, 0]), "family 'r'.*'box'"),
        (random_family_doc(seed=-1), "seed"),
        (random_family_doc(max_levels=2.5), "'max_levels'"),
        (random_family_doc(max_levels=0), "'max_levels'"),
        (random_family_doc(max_points=True), "'max_points'"),
        (random_family_doc(max_points=-3), "'max_points'"),
    ],
    ids=["box-three-numbers", "box-one-number", "box-reversed", "box-empty", "box-beyond-coordinate-range",
         "box-below-coordinate-range", "seed-negative",
         "max-levels-fraction", "max-levels-zero", "max-points-bool", "max-points-negative"],
)
def test_generator_params_out_of_range_rejected_naming_the_field(tmp_path, data, field):
    with pytest.raises(InputError, match=field):
        load_document(write_doc(tmp_path, data))


def test_generator_params_in_range_load(tmp_path):
    doc = load_document(write_doc(tmp_path, random_family_doc(seed=0, box=[-1, 2.5], max_levels=1, max_points=1)))
    members = doc.families["r"].members
    assert len(members) == 3
    assert all(len(u.levels) == 1 and len(u.levels[0][1]) == 1 for u in members)


def test_cli_exits_2_on_out_of_range_generator_param(tmp_path, capsys):
    path = write_doc(tmp_path, random_family_doc(box=[0, 1, 2]))
    assert main(["compact", path, "--family", "r", "--mode", "tb_end", "--eps", "0.1"]) == 2
    assert "'box'" in capsys.readouterr().err


# quotes, backslashes, control and non-ASCII characters (one astral) and
# JSON punctuation; "[" is left out so no name collides with a generated one
NAME_CHARS = st.sampled_from(list('aZ7 "\\]{}:\t\x00éß中😀'))
NAMES = st.text(NAME_CHARS, min_size=1, max_size=4)
COORDS = (st.sampled_from([-0.0, 0.0, 5e-324, 1e150, -1e150, 0.1, 1 / 3, -7.0, 1e-300])
          | st.floats(-1e150, 1e150) | st.integers(-9, 9))


@st.composite
def documents(draw):
    """A valid document: Euclidean in 1-3 D or finite with int and float
    matrix entries, nested fuzzy sets, perhaps two of the same levels,
    member families, in Euclidean mode random (its box up to the coordinate
    bound), collapse, translates and crisp interval families, and sequences;
    any of the lists may be empty."""
    if draw(st.booleans()):
        dim = draw(st.integers(1, 3))
        space = {"type": "euclidean", "dim": dim}
        point = st.lists(COORDS, min_size=dim, max_size=dim)
    else:
        xs = draw(st.lists(st.integers(0, 20), min_size=1, max_size=4, unique=True))
        scale = draw(st.sampled_from([1, 0.5, 0.1]))
        rows = [[abs(a - b) * scale for b in xs] for a in xs]
        space = {"type": "finite", "matrix": [[int(x) if float(x).is_integer() and draw(st.booleans()) else x
                                                for x in row] for row in rows]}
        point = st.integers(0, len(xs) - 1)
    fuzzy_sets = []
    for name in draw(st.lists(NAMES, max_size=4, unique=True)):
        pts = draw(st.lists(point, min_size=1, max_size=5))
        below = draw(st.lists(st.floats(0.01, 0.99), max_size=2, unique=True))
        sizes = sorted(draw(st.lists(st.integers(1, len(pts)), min_size=len(below) + 1, max_size=len(below) + 1)))
        alphas = [1.0] + sorted(below, reverse=True)
        fuzzy_sets.append({"name": name, "levels": [{"alpha": a, "points": pts[:k]} for a, k in zip(alphas, sizes)]})
    names = [f["name"] for f in fuzzy_sets]

    def members(unique):
        return st.lists(st.sampled_from(names), min_size=1, max_size=5, unique=unique)

    if fuzzy_sets and draw(st.booleans()):
        # a second set of the same levels: equal points in distinct cut objects
        twin = draw(NAMES.filter(lambda n: n not in names))
        fuzzy_sets.append({**draw(st.sampled_from(fuzzy_sets)), "name": twin})
        names.append(twin)
    families = [{"name": n, "members": draw(members(True))}
                for n in draw(st.lists(NAMES, max_size=2 if names else 0, unique=True))]
    if space["type"] == "euclidean" and draw(st.booleans()):
        box = draw(st.sampled_from([[0, 1], [-1e150, 1e150]]))
        families.append({"name": "γ", "generator": {"kind": "random", "count": draw(st.integers(1, 6)),
                                                     "seed": draw(st.integers(0, 99)), "params": {"box": box}}})
    if space["type"] == "euclidean" and draw(st.booleans()):
        # collapse members share their two cuts; translates and crisp
        # intervals hold one cut each
        families.append({"name": "κ", "generator": {"kind": "collapse", "count": draw(st.integers(1, 5)),
                                                     "params": {"base": draw(COORDS), "far": draw(COORDS)}}})
    if space["type"] == "euclidean" and draw(st.booleans()):
        families.append({"name": "τ", "generator": {"kind": "translates", "count": draw(st.integers(1, 4)),
                                                     "params": {"start": draw(COORDS),
                                                                "step": draw(st.sampled_from([0, 0.5, -1 / 3]))}}})
    if space["type"] == "euclidean" and draw(st.booleans()):
        grid = draw(st.sampled_from([(0.0, 0.3, 0.1), (0.3, 0.35, 0.01), (0.5, 1.0, 0.25)]))
        families.append({"name": "ι", "generator": {"kind": "crisp_intervals",
                                                     "params": dict(zip(("low", "high", "step"), grid))}})
    sequences = [{"name": n, "members": draw(members(False))}
                 for n in draw(st.lists(NAMES, max_size=2 if names else 0, unique=True))]
    return {"space": space, "fuzzy_sets": fuzzy_sets, "families": families, "sequences": sequences}


@given(documents())
@example({"space": {"type": "euclidean", "dim": 2}, "fuzzy_sets": [], "families": [], "sequences": []})
@example({"space": {"type": "finite", "matrix": [[0]]}, "fuzzy_sets": [], "families": [], "sequences": []})
@example({"space": {"type": "euclidean", "dim": 1},
          "fuzzy_sets": [{"name": 'q"\\é', "levels": [{"alpha": 1.0, "points": [[-0.0], [5e-324], [1e150]]}]}],
          "families": [], "sequences": []})
@example({"space": {"type": "euclidean", "dim": 2},
          "fuzzy_sets": [{"name": n, "levels": [{"alpha": 1.0, "points": [[0.5, 1.0]]},
                                                {"alpha": 0.25, "points": [[0.5, 1.0], [-2.0, 0.0]]}]}
                         for n in ("a", "b")],
          "families": [{"name": "κ", "generator": {"kind": "collapse", "count": 4}},
                       {"name": "γ", "generator": {"kind": "random", "count": 5, "seed": 1}}],
          "sequences": [{"name": "s", "members": ["b", "κ[2]", "a"]}]})
@settings(max_examples=150, deadline=None)
def test_writer_matches_the_stdlib_encoder(data):
    doc = parse_document(data)
    assert dumps_document(doc) == json.dumps(document_to_json(doc), indent=2, sort_keys=True)


def test_writer_peak_stays_near_its_output_when_members_share_cuts():
    # the 20,000 collapse members hold the same two cuts: the writer encodes
    # each distinct cut once and frees the cut texts, then the level texts,
    # once they are laid out, which reads about 3.7x the output; encoding
    # every level's points again read 7.2x
    doc = parse_document({"space": LINE, "families": [{"name": "c", "generator": {"kind": "collapse",
                                                                                 "count": 20000}}]})
    doc.family("c")
    tracemalloc.start()
    try:
        text = dumps_document(doc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5.5 * len(text)


INF, NAN = float("inf"), float("nan")
LINE = {"type": "euclidean", "dim": 1}


def generated(gen, base=MINIMAL):
    return {**base, "families": [{"name": "f", "generator": gen}]}


# each is rejected at load although the command reads no family; the last two
# used to escape from the generator as a ValueError and an OverflowError
@pytest.mark.parametrize(
    "data",
    [
        generated({"kind": "collapse", "count": 3}, FINITE_OK),
        generated({"kind": "crisp_intervals", "params": {"low": -0.1}}),
        generated({"kind": "crisp_intervals", "params": {"step": 0}}),
        generated({"kind": "crisp_intervals", "params": {"step": -0.01}}),
        generated({"kind": "crisp_intervals", "params": {"low": 0.3, "high": 0.304, "step": 0.01}}),
        generated({"kind": "translates", "count": 3, "params": {"start": 0.0, "step": 1e150}}),
        generated({"kind": "translates", "count": 3, "params": {"start": 1e308, "step": 1e308}}),
        generated({"kind": "collapse", "count": 3, "params": {"far": 1e151}}),
        generated({"kind": "crisp_intervals", "params": {"low": 0.0, "high": 1e200, "step": 1e199}}),
        generated({"kind": "crisp_intervals", "params": {"step": NAN}}),
        generated({"kind": "crisp_intervals", "params": {"high": INF}}),
        generated({"kind": "collapse", "count": 5, "seed": 3}),
        generated({"kind": "collapse", "count": 5, "sede": 3}),
    ],
    ids=["finite-space", "crisp-low-negative", "crisp-step-zero", "crisp-step-negative", "crisp-empty-grid",
         "translates-beyond-coordinate-range", "translates-overflow", "collapse-far", "crisp-high",
         "crisp-step-nan", "crisp-high-infinite", "collapse-seed", "collapse-misspelt-seed"],
)
def test_generator_rejected_at_load_for_every_command(tmp_path, capsys, data):
    with pytest.raises(InputError, match="family 'f'"):
        parse_document(data)
    assert main(["metrics", write_doc(tmp_path, data)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: family 'f': ") and err.count("\n") == 1


# each of these used to load with the field ignored (the every-command table
# above holds a misspelt seed); a count on a crisp grid keeps its own message
@pytest.mark.parametrize(
    "gen,message",
    [
        ({"kind": "collapse", "count": 5, "seed": 3},
         r"family 'f': unknown generator fields \['seed'\] \(allowed: \['kind', 'params', 'count'\]\)"),
        ({"kind": "translates", "count": 5, "cout": 4, "parms": {}},
         r"family 'f': unknown generator fields \['cout', 'parms'\]"),
        ({"kind": "crisp_intervals", "seed": 1},
         r"family 'f': unknown generator fields \['seed'\] \(allowed: \['kind', 'params'\]\)"),
        ({"kind": "random", "count": 3, "seed": 1, "params": {}, "max_points": 2},
         r"family 'f': unknown generator fields \['max_points'\] \(allowed: \['kind', 'params', 'count', 'seed'\]\)"),
        ({"kind": "crisp_intervals", "count": 3}, "family 'f': crisp_intervals derives its count from the grid"),
    ],
    ids=["collapse-seed", "translates-two", "crisp-seed", "random-param-as-field",
         "crisp-count"],
)
def test_generator_fields_outside_the_kind_are_rejected_naming_them(gen, message):
    with pytest.raises(InputError, match=message):
        parse_document(generated(gen))


GENERATORS = {"translates": translates_family, "collapse": collapse_family,
              "crisp_intervals": crisp_interval_family, "random": random_family}
# values near the coordinate bound and the range bounds, non-finite ones, and
# integers that are not counts
NEAR = st.sampled_from([0.0, -0.0, 1e-300, 0.01, 0.3, 1.0, -1.0, 1e150, -1e150, 1.0000000000000002e150,
                        1e151, 1e308, -1e308, INF, -INF, NAN])
NUMBERS = NEAR | st.floats(-1e150, 1e150) | st.integers(-3, 3) | st.sampled_from([True, "0.5", 10**400])
COUNTS = st.sampled_from([1, 2, 3, 4] * 3 + [0, -1, True, 2.5])


@st.composite
def generator_cases(draw):
    """A space and a generator (kind, count or None, seed or None, params)
    with its parameters near every bound that the loader or the generator
    checks; crisp grids stay small enough to build."""
    space = draw(st.sampled_from([LINE, LINE, {"type": "euclidean", "dim": 2}, {"type": "finite", "matrix": [[0]]}]))
    kind = draw(st.sampled_from(sorted(GENERATORS)))
    count, seed = (None if kind == "crisp_intervals" else draw(COUNTS)), None
    if kind == "translates":
        params = {"start": draw(NUMBERS), "step": draw(NUMBERS)}
    elif kind == "collapse":
        params = {"base": draw(NUMBERS), "far": draw(NUMBERS)}
    elif kind == "crisp_intervals":
        step = draw(st.sampled_from([0.01, 0.25, 0.3, 2e149, 3.3e149] * 3 + [1e200, 0.0, -0.01, INF, NAN]))
        low = draw(st.sampled_from([0.0, 0.3] * 5 + [-1e-12, 1e150, NAN]))
        steps = st.sampled_from([0.5, 1, 2.5, 3, 4.5, 5]) | st.floats(-0.5, 5.5)
        high = low + draw(steps) * step if draw(st.sampled_from([True, True, False])) else draw(NEAR)
        params = {"low": low, "high": high, "step": step}
    else:
        seed = draw(st.sampled_from([0, 1, 2, 3] * 2 + [-1, True]))
        box = [draw(NUMBERS), draw(NUMBERS)]
        if draw(st.booleans()) and "0.5" not in box:
            box.sort()
        params = {"box": box, "max_levels": draw(COUNTS), "max_points": draw(COUNTS)}
    params = {k: v for k, v in params.items() if draw(st.sampled_from([True, True, True, False]))}
    if kind == "crisp_intervals":
        low, high, step = (params.get(k, v) for k, v in (("low", 0.3), ("high", 1.0), ("step", 0.01)))
        if 0 <= low < high and step > 0:
            span = (high - low) / step
            assume(not math.isfinite(span) or span < 50)
    return space, kind, count, seed, params


@given(generator_cases())
# grids whose widest interval ends at the coordinate bound, and beyond it
# although `high` lies within it; translates ending at the bound and past it
@example((LINE, "crisp_intervals", None, None, {"low": 0.0, "high": 1e150, "step": 2.5e149}))
@example((LINE, "crisp_intervals", None, None, {"low": 0.0, "high": 0.9e150, "step": 0.35e150}))
@example((LINE, "translates", 3, None, {"start": -1e150, "step": 1e150}))
@example((LINE, "translates", 4, None, {"start": -1e150, "step": 1e150}))
# 30 intervals whose ends agree in 4 significant digits
@example((LINE, "crisp_intervals", None, None, {"low": 0.3, "high": 0.3003, "step": 1e-5}))
@settings(max_examples=400, deadline=None)
def test_load_accepts_a_generator_iff_its_call_does_and_builds_the_same_family(case):
    space, kind, count, seed, params = case
    gen = {"kind": kind, "params": params}
    args, kwargs = (), dict(params)
    if count is not None:
        gen["count"], args = count, (count,)
    if seed is not None:
        gen["seed"] = kwargs["seed"] = seed
    metric_space = (MetricSpace.euclidean(space["dim"]) if space["type"] == "euclidean"
                    else MetricSpace.finite(space["matrix"]))
    try:
        direct = GENERATORS[kind](metric_space, *args, **kwargs)
    except InputError:
        direct = None
    try:
        doc = parse_document({"space": space, "families": [{"name": "f", "generator": gen}]})
    except InputError:
        doc = None
    assert (doc is None) == (direct is None)
    if doc is not None:
        fam = doc.families["f"]
        assert fam.names == tuple(f"f[{k + 1}]" for k in range(len(direct.members)))
        assert fam.generator == direct.generator
        assert len(fam.members) == len(direct.members)
        for u, v in zip(fam.members, direct.members):
            assert u.alphas == v.alphas
            for (_, a), (_, b) in zip(u.levels, v.levels):
                assert (a.array.dtype, a.array.shape, a.array.tobytes()) == (b.array.dtype, b.array.shape,
                                                                            b.array.tobytes())


# every kind of generator, each family small; a fuzzy set of two levels
VALUE_DOC = {
    "space": LINE,
    "fuzzy_sets": [{"name": "a", "levels": [{"alpha": 1.0, "points": [[0.0]]},
                                            {"alpha": 0.5, "points": [[0.0], [1.0]]}]}],
    "families": [
        {"name": "t", "generator": {"kind": "translates", "count": 2, "params": {"start": 0.0, "step": 1.0}}},
        {"name": "c", "generator": {"kind": "collapse", "count": 2, "params": {"base": 0.0, "far": 1.0}}},
        {"name": "i", "generator": {"kind": "crisp_intervals", "params": {"low": 0.3, "high": 0.5, "step": 0.1}}},
        {"name": "r", "generator": {"kind": "random", "count": 2, "seed": 0,
                                    "params": {"box": [0.0, 1.0], "max_levels": 2, "max_points": 2}}},
    ],
}
VALUE_FINITE = {
    "space": {"type": "finite", "matrix": [[0.0, 1.0], [1.0, 0.0]]},
    "fuzzy_sets": [{"name": "a", "levels": [{"alpha": 1.0, "points": [0]}, {"alpha": 0.5, "points": [0, 1]}]}],
}


def _generator_field(k: int, *path):
    return VALUE_DOC, ("families", k, "generator") + path


# each value field of a document: the document and the path to the value
VALUE_FIELDS = {
    # without fuzzy sets, so that every dim reaches the generators
    "dim": ({**VALUE_DOC, "fuzzy_sets": []}, ("space", "dim")),
    "alpha": (VALUE_DOC, ("fuzzy_sets", 0, "levels", 1, "alpha")),
    "coordinate": (VALUE_DOC, ("fuzzy_sets", 0, "levels", 1, "points", 1, 0)),
    "finite index": (VALUE_FINITE, ("fuzzy_sets", 0, "levels", 1, "points", 1)),
    "matrix entry": (VALUE_FINITE, ("space", "matrix", 0, 1)),
    "translates count": _generator_field(0, "count"),
    "start": _generator_field(0, "params", "start"),
    "translates step": _generator_field(0, "params", "step"),
    "collapse count": _generator_field(1, "count"),
    "base": _generator_field(1, "params", "base"),
    "far": _generator_field(1, "params", "far"),
    "low": _generator_field(2, "params", "low"),
    "high": _generator_field(2, "params", "high"),
    "crisp step": _generator_field(2, "params", "step"),
    "random count": _generator_field(3, "count"),
    "seed": _generator_field(3, "seed"),
    "box": _generator_field(3, "params", "box"),
    "box low": _generator_field(3, "params", "box", 0),
    "box high": _generator_field(3, "params", "box", 1),
    "max_levels": _generator_field(3, "params", "max_levels"),
    "max_points": _generator_field(3, "params", "max_points"),
}
# JSON values of every type; the numbers are few and small, or far beyond a
# bound, so that no draw builds a large family
JSON_VALUES = (st.sampled_from([None, True, False, "0.5", "", "a", [], [1.0], [0, 1], {}, {"x": 1},
                                NAN, INF, -INF, 10**400, -10**400, 2**63, -2**63, 2**63 - 1,
                                0.0, -0.0, 0.25, 0.5, 1.5, -2.5, 1e-300, 1e150, -1e150, 1e151, 1e308])
               | st.integers(-3, 5))


@pytest.fixture(scope="module")
def value_paths(tmp_path_factory):
    directory = tmp_path_factory.mktemp("values")
    return str(directory / "doc.json"), str(directory / "out.json")


@given(st.sampled_from(sorted(VALUE_FIELDS)), JSON_VALUES)
# one past each size bound, and max_levels at its bound
@example("translates count", 100_001)
@example("collapse count", 100_001)
@example("random count", 100_001)
@example("high", 1000.0)
@example("dim", 100_001)
@example("max_levels", 2**63)
@example("max_levels", 2**63 - 1)
@settings(max_examples=300, deadline=None)
def test_gen_exits_0_or_2_whatever_value_a_field_holds(value_paths, field, value):
    # a 400-digit integer used to escape as an OverflowError in most of these
    # fields, a string or a bool to be coerced in some, and a max_levels of
    # 2**63 to load and then fail in the draw
    base, path = VALUE_FIELDS[field]
    data = copy.deepcopy(base)
    parent = data
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    doc, out = value_paths
    with open(doc, "w", encoding="utf-8") as fh:
        json.dump(data, fh)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["gen", doc, "--out", out])
    assert code in (0, 2)
    if code == 2:
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1


@pytest.mark.parametrize(
    "data,message",
    [
        (with_fuzzy(MINIMAL, [{"alpha": 1.0, "points": [[0.0], [2.5, "x"]]}]),
         "fuzzy set 'a': coordinate 1 of point 1 must be a real number"),
        (with_fuzzy(MINIMAL, [{"alpha": 1.0, "points": [[0.0], [1e151]]}]),
         "fuzzy set 'a': coordinate 0 of point 1 must be finite with magnitude at most 1e"),
        (with_fuzzy(FINITE_OK, [{"alpha": 1.0, "points": [0, 2]}]),
         "fuzzy set 'a': finite-space point 1 must be an integer index in 0..1, got 2"),
        ({**FINITE_OK, "space": {"type": "finite", "matrix": [[0.0, 1.0], [10**400, 0.0]]}},
         r"space: matrix entry \(1,0\) must be a real number within float range"),
        ({**FINITE_OK, "space": {"type": "finite", "matrix": [[0.0, 1.0], [-1.0, 0.0]]}},
         r"space: matrix entry \(1,0\) must be finite and nonnegative"),
        ({**MINIMAL, "space": {"type": "euclidean", "dim": 0}}, "space: dim must be an integer >= 1, got 0"),
    ],
    ids=["coordinate-string", "coordinate-magnitude", "index-range", "matrix-entry-overflow", "matrix-entry-negative",
         "dim-zero"],
)
def test_value_errors_name_their_position_and_part_of_the_document(data, message):
    with pytest.raises(InputError, match=message):
        parse_document(data)


SRC = Path(__file__).resolve().parent.parent / "src"


def limited(argv):
    """Run the CLI in a child process with at most 2 GiB of address space and
    60 s, so an oversize family that slips through fails the test instead of
    exhausting memory."""
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    env = {**os.environ, "PYTHONPATH": str(SRC), "OPENBLAS_NUM_THREADS": "1"}
    return subprocess.run([sys.executable, "-m", "fuzzymetrics.cli", *argv], capture_output=True, text=True,
                          timeout=60, env=env, preexec_fn=cap)


# each of these used to load and then exhaust memory, or to escape as an
# OverflowError or a ValueError; now each is rejected at load
@pytest.mark.parametrize(
    "data,message",
    [
        (generated({"kind": "collapse", "count": 10**12}), "1000000000000 members exceed the bound of 100000"),
        (generated({"kind": "translates", "count": 10**400}), "members exceed the bound of 100000"),
        (generated({"kind": "crisp_intervals", "params": {"high": 1e150}}), "members exceed the bound of 100000"),
        (generated({"kind": "crisp_intervals", "params": {"low": 0, "high": 1000, "step": 1}}),
         "1000 members of up to 1002 points in dimension 1 exceed the bound of 1000000 coordinates"),
        (generated({"kind": "translates", "count": 3}, {"space": {"type": "euclidean", "dim": 2**63}}),
         "in dimension 9223372036854775808 exceed the bound of 1000000 coordinates"),
        (generated({"kind": "random", "count": 3, "params": {"max_levels": 2**63}}), "'max_levels'"),
    ],
    ids=["collapse-count", "translates-count", "crisp-members", "crisp-coordinates", "dim", "max-levels"],
)
def test_oversize_families_are_rejected_at_load(tmp_path, data, message):
    path = write_doc(tmp_path, data)
    for command in ("metrics", "gen"):
        run = limited([command, path])
        assert run.returncode == 2 and run.stdout == ""
        assert run.stderr.startswith("error: family 'f': ") and run.stderr.count("\n") == 1
        assert message in run.stderr


def test_families_at_the_size_bounds_load():
    data = {"space": LINE, "families": [
        {"name": "c", "generator": {"kind": "collapse", "count": 100_000}},
        {"name": "t", "generator": {"kind": "translates", "count": 100_000}},
        {"name": "r", "generator": {"kind": "random", "count": 100_000}},
        {"name": "i", "generator": {"kind": "crisp_intervals", "params": {"low": 0, "high": 999, "step": 1}}},
    ]}
    names = Counter(name.split("[")[0] for name in parse_document(data).fuzzy_sets)  # builds nothing
    assert names == {"c": 100_000, "t": 100_000, "r": 100_000, "i": 999}


def test_member_family_holds_the_generated_members_it_names():
    data = {**MINIMAL, "families": [{"name": "col", "generator": {"kind": "collapse", "count": 4}},
                                    {"name": "mix", "members": ["col[3]", "u0", "col[1]"]}]}
    doc = parse_document(data)
    col, mix = doc.families["col"], doc.families["mix"]
    assert mix.names == ("col[3]", "u0", "col[1]")
    assert [id(u) for u in mix.members] == [id(col.members[2]), id(doc.fuzzy("u0")), id(col.members[0])]


# one family of each kind, and a sequence that names a generated member
LAZY = {
    "space": LINE,
    "fuzzy_sets": [{"name": "origin", "levels": [{"alpha": 1.0, "points": [[0.0]]}]},
                   {"name": "ramp", "levels": [{"alpha": 1.0, "points": [[0.0]]},
                                               {"alpha": 0.5, "points": [[0.0], [1.0]]}]}],
    "families": [
        {"name": "col", "generator": {"kind": "collapse", "count": 40, "params": {"far": 0.8}}},
        {"name": "cloud", "generator": {"kind": "random", "count": 30, "seed": 4}},
        {"name": "tr", "generator": {"kind": "translates", "count": 5}},
        {"name": "iv", "generator": {"kind": "crisp_intervals", "params": {"low": 0.5, "high": 1.0, "step": 0.25}}},
    ],
    "sequences": [{"name": "s", "members": ["tr[2]", "origin", "origin"]}],
}
LAZY_SIZES = {"col": 40, "cloud": 30, "tr": 5, "iv": 2}


@pytest.fixture
def builds(monkeypatch):
    """Calls into each generator kind through the loader's table."""
    counts = Counter()
    for kind, (fn, check, params) in list(document._GENERATORS.items()):
        def counted(*args, _fn=fn, _kind=kind, **kwargs):
            counts[_kind] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setitem(document._GENERATORS, kind, (counted, check, params))
    return counts


def test_generated_names_resolve_at_load_and_members_build_on_first_read(builds):
    doc = parse_document(LAZY)
    assert list(doc.families) == list(LAZY_SIZES)
    assert list(doc.fuzzy_sets) == ["origin", "ramp"] + [f"{f}[{k}]" for f, n in LAZY_SIZES.items()
                                                         for k in range(1, n + 1)]
    assert "cloud[30]" in doc.fuzzy_sets and "cloud[31]" not in doc.fuzzy_sets and "iv" in doc.families
    assert doc.sequences == {"s": ("tr[2]", "origin", "origin")}
    assert not builds
    u = doc.fuzzy("cloud[7]")
    assert doc.fuzzy("cloud[7]") is u is doc.families["cloud"].members[6]
    assert builds == {"random": 1}


@pytest.mark.parametrize(
    "argv,built",
    [
        (["converge", "DOC", "--sequence", "col", "--limit", "origin", "--mode", "end"], {"collapse": 1}),
        (["converge", "DOC", "--sequence", "col", "--limit", "col[40]", "--mode", "send"], {"collapse": 1}),
        (["converge", "DOC", "--sequence", "s", "--limit", "origin", "--mode", "level", "--alpha-grid", "5"],
         {"translates": 1}),
        (["compact", "DOC", "--family", "cloud", "--mode", "tb_end", "--eps", "0.5", "--alpha-grid", "5"],
         {"random": 1}),
        (["compact", "DOC", "--family", "tr", "--mode", "closedness", "--candidate", "iv[1]"],
         {"translates": 1, "crisp_intervals": 1}),
        (["metrics", "DOC", "--kind", "end"], {}),
        (["oracle", "DOC", "--resolution", "0.05"], {}),
        (["gen", "DOC"], {"collapse": 1, "random": 1, "translates": 1, "crisp_intervals": 1}),
    ],
    ids=["converge-col", "converge-col-limit", "converge-sequence", "compact-cloud", "compact-candidate",
         "metrics", "oracle", "gen"],
)
def test_each_command_builds_the_families_it_reads_once(tmp_path, capsys, builds, argv, built):
    path = write_doc(tmp_path, LAZY)
    assert main([path if a == "DOC" else a for a in argv]) in (0, 1)
    assert builds == Counter(built)


# each of these used to try to build a grid of 10**8 levels, which under the
# address-space cap escaped as a MemoryError traceback with exit 1
@pytest.mark.parametrize("argv", [
    ["converge", "DOC", "--sequence", "s", "--limit", "origin", "--mode", "level"],
    ["converge", "DOC", "--sequence", "s", "--limit", "origin", "--mode", "gamma"],
    ["compact", "DOC", "--family", "cloud", "--mode", "tb_end", "--eps", "0.5"],
], ids=["converge-level", "converge-gamma", "compact-tb_end"])
def test_oversize_alpha_grids_are_input_errors(tmp_path, argv):
    path = write_doc(tmp_path, LAZY)
    run = limited([path if a == "DOC" else a for a in argv] + ["--alpha-grid", "100000000"])
    assert run.returncode == 2 and run.stdout == ""
    assert run.stderr == "error: alpha grid size must be an integer in 1..10000, got 100000000\n"


def test_concurrent_first_reads_build_a_family_once(monkeypatch, builds):
    fn, check, params = document._GENERATORS["random"]

    def slow(*args, **kwargs):
        time.sleep(0.02)  # every reader arrives while the first build runs
        return fn(*args, **kwargs)

    monkeypatch.setitem(document._GENERATORS, "random", (slow, check, params))
    doc = parse_document(LAZY)
    seen = []

    def read(k):
        seen.append((doc.fuzzy(f"cloud[{k % 30 + 1}]"), doc.families["cloud"]))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=read, args=(k,)) for k in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert builds == {"random": 1} and len(seen) == 8
    assert all(fam is seen[0][1] and any(u is v for v in fam.members) for u, fam in seen)


def test_a_read_family_and_its_members_die_with_their_document():
    # no value of a document refers back to the document's dicts, so it is
    # freed by reference counting alone: a pending build that closed over
    # the dicts would keep them, and every family read, in a cycle for as
    # long as another family stays unread
    enabled = gc.isenabled()
    gc.disable()
    try:
        doc = parse_document(LAZY)
        family, member = weakref.ref(doc.families["col"]), weakref.ref(doc.fuzzy("col[3]"))
        assert member() is family().members[2]
        del doc
        assert family() is None and member() is None
    finally:
        if enabled:
            gc.enable()
