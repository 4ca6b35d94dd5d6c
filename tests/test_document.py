import json

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from fuzzymetrics import InputError
from fuzzymetrics.cli import main
from fuzzymetrics.document import document_to_json, dumps_document, load_document, parse_document


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
    assert doc.fuzzy("a").levels[1][1].points[1].index == 2


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
        assert doc2.fuzzy(name).levels[0][1].points[0].coords == doc.fuzzy(name).levels[0][1].points[0].coords


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
            assert [p.coords for p in c1.points] == [p.coords for p in c2.points]


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
    matrix entries, nested fuzzy sets, member families, a random family in
    Euclidean mode (its box up to the coordinate bound), and sequences; any
    of the lists may be empty."""
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

    families = [{"name": n, "members": draw(members(True))}
                for n in draw(st.lists(NAMES, max_size=2 if names else 0, unique=True))]
    if space["type"] == "euclidean" and draw(st.booleans()):
        box = draw(st.sampled_from([[0, 1], [-1e150, 1e150]]))
        families.append({"name": "γ", "generator": {"kind": "random", "count": 3, "seed": draw(st.integers(0, 99)),
                                                     "params": {"box": box}}})
    sequences = [{"name": n, "members": draw(members(False))}
                 for n in draw(st.lists(NAMES, max_size=2 if names else 0, unique=True))]
    return {"space": space, "fuzzy_sets": fuzzy_sets, "families": families, "sequences": sequences}


@given(documents())
@example({"space": {"type": "euclidean", "dim": 2}, "fuzzy_sets": [], "families": [], "sequences": []})
@example({"space": {"type": "finite", "matrix": [[0]]}, "fuzzy_sets": [], "families": [], "sequences": []})
@example({"space": {"type": "euclidean", "dim": 1},
          "fuzzy_sets": [{"name": 'q"\\é', "levels": [{"alpha": 1.0, "points": [[-0.0], [5e-324], [1e150]]}]}],
          "families": [], "sequences": []})
@settings(max_examples=150, deadline=None)
def test_writer_matches_the_stdlib_encoder(data):
    doc = parse_document(data)
    assert dumps_document(doc) == json.dumps(document_to_json(doc), indent=2, sort_keys=True)
