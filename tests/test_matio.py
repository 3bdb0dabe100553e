import json

import numpy as np
import pytest

from schmidt_norms import fixtures
from schmidt_norms.cones import random_schmidt_ensemble
from schmidt_norms.maps import MapRepr, transpose_map
from schmidt_norms.matio import (
    FormatError,
    dump_bipartite,
    dump_ensemble,
    dump_map,
    dump_matrix,
    dump_state,
    load_bipartite,
    load_ensemble,
    load_map,
    load_matrix,
    load_state,
    read_json,
    write_json,
)
from schmidt_norms.rand import RandomConfig, complex_gaussian, random_sr_k_vector


def test_matrix_round_trip():
    rng = RandomConfig(seed=0).generator()
    x = complex_gaussian(rng, (3, 4))
    back = load_matrix(dump_matrix(x))
    assert np.array_equal(back, x)


def test_matrix_real_only_load():
    obj = {"rows": 2, "cols": 2, "re": [[1.0, 2.0], [3.0, 4.0]]}
    x = load_matrix(obj)
    assert np.array_equal(x.imag, np.zeros((2, 2)))


def test_bipartite_round_trip():
    op = fixtures.swap_operator(3)
    back = load_bipartite(dump_bipartite(op))
    assert back.dims == op.dims
    assert np.array_equal(back.mat, op.mat)


def test_map_round_trip():
    phi = transpose_map(3)
    back = load_map(dump_map(phi))
    assert isinstance(back, MapRepr)
    assert back.in_dim == 3 and back.out_dim == 3
    assert np.array_equal(back.choi.mat, phi.choi.mat)


def test_state_and_ensemble_round_trip():
    rng = RandomConfig(seed=1).generator()
    st = random_sr_k_vector((2, 3), 2, rng)
    back = dump_state(st)
    assert back["m"] == 2 and back["n"] == 3
    assert np.array_equal(load_state(back).amplitudes, st.amplitudes)
    ens = random_schmidt_ensemble((2, 3), 2, 4, rng)
    eback = load_ensemble(dump_ensemble(ens))
    assert eback.k == ens.k
    assert np.max(np.abs(eback.density().mat - ens.density().mat)) < 1e-15


@pytest.mark.parametrize("strip", ["rows", "cols", "re"])
def test_missing_field_named(strip):
    obj = {"rows": 2, "cols": 2, "re": [[1.0, 0.0], [0.0, 1.0]]}
    del obj[strip]
    with pytest.raises(FormatError) as err:
        load_matrix(obj)
    assert strip in str(err.value)


def test_shape_mismatch_named():
    obj = {"rows": 2, "cols": 2, "re": [[1.0, 0.0]]}
    with pytest.raises(FormatError) as err:
        load_matrix(obj)
    assert "re" in str(err.value)


def test_bipartite_dimension_product_check():
    obj = {"m": 2, "n": 2, "rows": 3, "cols": 3, "re": [[0.0] * 3] * 3}
    with pytest.raises(FormatError) as err:
        load_bipartite(obj)
    assert "m" in str(err.value) or "n" in str(err.value)


def test_map_dimension_check():
    phi = dump_map(transpose_map(2))
    phi["in_dim"] = 3
    with pytest.raises(FormatError):
        load_map(phi)


def test_ensemble_term_errors_are_indexed():
    rng = RandomConfig(seed=2).generator()
    ens = dump_ensemble(random_schmidt_ensemble((2, 2), 1, 3, rng))
    del ens["terms"][1]["re"]
    with pytest.raises(FormatError) as err:
        load_ensemble(ens)
    assert "1" in str(err.value)


def test_ensemble_weight_sum_enforced():
    rng = RandomConfig(seed=3).generator()
    ens = dump_ensemble(random_schmidt_ensemble((2, 2), 1, 3, rng))
    ens["terms"][0]["weight"] += 0.5
    with pytest.raises(FormatError):
        load_ensemble(ens)


def test_read_json_errors(tmp_path):
    with pytest.raises(FormatError):
        read_json(str(tmp_path / "absent.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(FormatError) as err:
        read_json(str(bad))
    assert "bad.json" in str(err.value)


def test_write_json_stable_bytes(tmp_path):
    obj = dump_bipartite(fixtures.example51(2))
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    write_json(str(p1), obj)
    write_json(str(p2), obj)
    assert p1.read_bytes() == p2.read_bytes()
    assert json.loads(p1.read_text()) == obj


def test_non_finite_entries_rejected():
    obj = {"rows": 2, "cols": 2, "re": [[1.0, 0.0], [0.0, float("nan")]]}
    with pytest.raises(FormatError) as err:
        load_matrix(obj)
    assert "re" in str(err.value) and "finite" in str(err.value)
    rng = RandomConfig(seed=4).generator()
    ens = dump_ensemble(random_schmidt_ensemble((2, 2), 1, 3, rng))
    ens["terms"][2]["weight"] = float("inf")
    with pytest.raises(FormatError) as err:
        load_ensemble(ens)
    assert "terms[2].weight" in str(err.value)


def test_load_state_validates():
    rng = RandomConfig(seed=5).generator()
    obj = dump_state(random_sr_k_vector((2, 2), 1, rng))
    short = dict(obj, re=obj["re"][:3])
    with pytest.raises(FormatError, match="'re'"):
        load_state(short)
    bad = dict(obj, im=[float("inf")] + obj["im"][1:])
    with pytest.raises(FormatError, match="'im'"):
        load_state(bad)
    with pytest.raises(FormatError, match="'n'"):
        load_state({"m": 2, "re": obj["re"], "im": obj["im"]})


@pytest.mark.parametrize("loader", [load_matrix, load_bipartite, load_map,
                                    load_ensemble, load_state])
def test_non_object_input_rejected_by_every_loader(loader):
    # a list holding the field names: `"m" in obj` holds, `obj["m"]` fails
    for obj in (["m", "n", "k", "terms"], "rows", 3):
        with pytest.raises(FormatError, match="JSON object"):
            loader(obj)


def test_ensemble_rejects_non_positive_dims():
    term = {"weight": 1.0, "re": [1.0]}
    for m, n in ((-1, -1), (0, 1), (1, 0)):
        with pytest.raises(FormatError, match="field 'm'/'n' must be positive"):
            load_ensemble({"m": m, "n": n, "k": 1, "terms": [term]})
