import json

import pytest

from fuzzymetrics import InputError
from fuzzymetrics.cli import main
from fuzzymetrics.document import document_to_json, load_document, parse_document


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
        (random_family_doc(seed=-1), "seed"),
        (random_family_doc(max_levels=2.5), "'max_levels'"),
        (random_family_doc(max_levels=0), "'max_levels'"),
        (random_family_doc(max_points=True), "'max_points'"),
        (random_family_doc(max_points=-3), "'max_points'"),
    ],
    ids=["box-three-numbers", "box-one-number", "box-reversed", "box-empty", "seed-negative",
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
