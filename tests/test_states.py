import json
import os
import re
import tempfile
import threading
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from covmat import states
from covmat.linalg import DensityMatrix, InvalidStateError, min_eigenvalue, partial_transpose
from covmat.states import (
    FILE_FORM,
    bennett_state,
    build_state,
    dm_from_vector,
    isotropic,
    ket,
    load_state,
    max_entangled,
    mix,
    product_state,
    random_mixed,
    random_pure,
    random_separable,
    save_state,
)

from helpers import (
    bennett_state_reference,
    max_entangled_reference,
    random_pure_reference,
    random_separable_reference,
)


class TestBennettState:
    def test_trace_and_rank(self):
        rho = bennett_state()
        assert rho.mat.trace().real == pytest.approx(1.0, abs=1e-12)
        evs = np.linalg.eigvalsh(rho.mat)
        np.testing.assert_allclose(evs[:5], 0.0, atol=1e-12)
        np.testing.assert_allclose(evs[5:], 0.25, atol=1e-12)

    def test_ppt(self):
        assert min_eigenvalue(partial_transpose(bennett_state(), 0)) >= -1e-10

    def test_tile_vectors_orthogonal_and_in_kernel(self):
        e = [ket(3, i) for i in range(3)]
        s = (e[0] + e[1] + e[2]) / np.sqrt(3)
        tiles = [
            np.kron(e[0], (e[0] - e[1]) / np.sqrt(2)),
            np.kron((e[0] - e[1]) / np.sqrt(2), e[2]),
            np.kron(e[2], (e[1] - e[2]) / np.sqrt(2)),
            np.kron((e[1] - e[2]) / np.sqrt(2), e[0]),
            np.kron(s, s),
        ]
        gram = np.array([[np.vdot(a, b) for b in tiles] for a in tiles])
        np.testing.assert_allclose(gram, np.eye(5), atol=1e-12)
        rho = bennett_state()
        for t in tiles:
            assert abs(np.vdot(t, rho.mat @ t)) <= 1e-12


class TestMaxEntangled:
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_reduced_state_maximally_mixed(self, d):
        from covmat.linalg import partial_trace

        red = partial_trace(max_entangled(d), [1])
        np.testing.assert_allclose(red.mat, np.eye(d) / d, atol=1e-12)

    def test_purity_one(self):
        assert max_entangled(3).purity() == pytest.approx(1.0, abs=1e-12)


def test_constructors_give_the_kron_bits():
    # the kets are built without np.kron, to the same bits
    assert bennett_state().mat.tobytes() == bennett_state_reference().mat.tobytes()
    for d in range(2, 9):
        assert max_entangled(d).mat.tobytes() == max_entangled_reference(d).mat.tobytes()


class TestMix:
    def test_endpoints(self):
        a, b = bennett_state(), max_entangled(3)
        np.testing.assert_array_equal(mix(a, b, 0.0).mat, a.mat)
        np.testing.assert_array_equal(mix(a, b, 1.0).mat, b.mat)

    def test_halfway_entrywise_average(self):
        a = dm_from_vector(ket(4, 0), (2, 2))
        b = dm_from_vector(ket(4, 3), (2, 2))
        np.testing.assert_allclose(mix(a, b, 0.5).mat, (a.mat + b.mat) / 2, atol=1e-15)

    def test_bad_weight(self):
        with pytest.raises(ValueError):
            mix(bennett_state(), max_entangled(3), 1.5)
        with pytest.raises(ValueError, match="got 1.5"):
            mix(bennett_state(), max_entangled(3), np.array([0.0, 0.5, 1.5, 2.0]))

    def test_weight_array_stacks_the_mixtures(self):
        a, b = bennett_state(), max_entangled(3)
        xs = np.linspace(0, 1, 7)
        stack = mix(a, b, xs)
        for x, member in zip(xs, stack.mat):
            assert np.array_equal(member, mix(a, b, float(x)).mat)

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            mix(max_entangled(2), max_entangled(3), 0.5)


class TestRandomStates:
    def test_single_term_is_product(self):
        from covmat.covariance import correlation_block
        from covmat.observables import gell_mann_basis

        rho = random_separable((2, 3), 1, 42)
        b2, b3 = gell_mann_basis(2), gell_mann_basis(3)
        block = correlation_block(rho, 0, 1, b2, b3)
        np.testing.assert_allclose(block, 0, atol=1e-10)

    def test_seed_determinism(self):
        a = random_separable((3, 3), 5, 123)
        b = random_separable((3, 3), 5, 123)
        np.testing.assert_array_equal(a.mat, b.mat)
        c = random_pure((2, 2), 7)
        d = random_pure((2, 2), 7)
        np.testing.assert_array_equal(c.mat, d.mat)

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_outputs_are_valid_states(self, seed):
        rho = random_separable((2, 2, 2), 3, seed)
        assert abs(rho.mat.trace() - 1) <= 1e-10
        assert np.linalg.eigvalsh(rho.mat).min() >= -1e-10

    @pytest.mark.parametrize("kind, dims", [
        ("separable", (3, 3)), ("separable", (2, 2, 2)), ("separable", (2, 3, 2)),
        ("separable", (2, 4)), ("pure", (2, 4)), ("pure", (2, 3, 2)), ("pure", (3, 3)),
    ])
    def test_seed_sequence_stacks_the_per_seed_states(self, kind, dims):
        # each member draws from its own seed exactly as one state always did,
        # the separable weights as `Generator.dirichlet` for every term count
        seeds = [11, 2 ** 62 + 5, 0, 987654321]
        for terms in range(1, 9) if kind == "separable" else [None]:
            if kind == "separable":
                stack = random_separable(dims, terms, seeds)
                refs = [random_separable_reference(dims, terms, s) for s in seeds]
                singles = [random_separable(dims, terms, s) for s in seeds]
            else:
                stack = random_pure(dims, seeds)
                refs = [random_pure_reference(dims, s) for s in seeds]
                singles = [random_pure(dims, s) for s in seeds]
            assert stack.mat.shape == (len(seeds),) + refs[0].mat.shape
            for member, ref, single in zip(stack.mat, refs, singles):
                assert np.array_equal(member, ref.mat), terms
                assert np.array_equal(single.mat, ref.mat), terms

    def test_terms_below_one_rejected(self):
        with pytest.raises(ValueError):
            random_separable((2, 2), 0, 0)


class TestFileRoundTrip:
    def test_save_load(self, tmp_path):
        path = tmp_path / "state.json"
        rho = random_separable((2, 3), 4, 9)
        save_state(rho, path)
        loaded = load_state(path)
        assert loaded.dims == rho.dims
        np.testing.assert_allclose(loaded.mat, rho.mat, atol=1e-15)

    def test_file_bytes_and_exact_round_trip(self, tmp_path):
        path = tmp_path / "state.json"
        rho = random_mixed((2, 3), 4)
        save_state(rho, path)
        entries = [[[z.real, z.imag] for z in row] for row in rho.mat]
        assert path.read_text() == json.dumps({"dims": [2, 3], "matrix": entries})
        np.testing.assert_array_equal(load_state(path).mat, rho.mat)

    def test_rows_are_written_as_json_dumps_writes_the_whole(self, tmp_path):
        edge = [-0.0, 5e-324, -2.225073858507201e-308, 1.7976931348623157e308,
                -1.7976931348623157e308, 0.1, 1 / 3, -1.0]
        mat = np.resize(np.array(edge), 2 * 4 * 4).view(complex).reshape(4, 4)
        with mock.patch.object(DensityMatrix, "__post_init__", lambda self: None):
            save_state(DensityMatrix((2, 2), mat), tmp_path / "edge.json")
        pairs = np.stack([mat.real, mat.imag], -1).tolist()
        assert (tmp_path / "edge.json").read_bytes() == json.dumps(
            {"dims": [2, 2], "matrix": pairs}).encode()

    def test_writing_holds_one_row_at_a_time(self, tmp_path):
        rho = random_mixed((2,) * 8, 3)
        tracemalloc.start()
        try:
            save_state(rho, tmp_path / "qubits8.json")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2 * rho.mat.nbytes, peak / rho.mat.nbytes


def bits(a) -> np.ndarray:
    return np.ascontiguousarray(a).view(np.uint64).ravel()


class TestLoadState:
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=8, max_size=8))
    @settings(max_examples=200, deadline=None)
    @example([-0.0, 5e-324, 1.7976931348623157e308, -2.2250738585072014e-308,
              -1.7976931348623157e308, 2.225073858507201e-308, 0.1, -1.0])
    def test_any_finite_double_reads_back_bit_exact(self, values):
        # the reader is exact on every double, valid state or not, so the
        # validation that would refuse most of these is left out here
        mat = np.array(values).view(complex).reshape(2, 2)
        with tempfile.TemporaryDirectory() as tmp, \
                mock.patch.object(DensityMatrix, "__post_init__", lambda self: None):
            path = Path(tmp) / "state.json"
            save_state(DensityMatrix._derived((2,), mat), path)
            loaded = load_state(path).mat
            with open(path) as fh:
                reference = np.asarray(json.load(fh)["matrix"], dtype=float)
        assert np.array_equal(bits(loaded), bits(mat))
        assert np.array_equal(bits(loaded), bits(reference))

    def test_layout_and_key_order_do_not_matter(self, tmp_path):
        rho = random_mixed((2, 3), 5)
        pairs = np.stack([rho.mat.real, rho.mat.imag], -1).tolist()
        save_state(rho, tmp_path / "plain.json")
        (tmp_path / "first.json").write_text(
            json.dumps({"matrix": pairs, "note": [1, "x"], "dims": [2, 3]}))
        (tmp_path / "pretty.json").write_text(
            json.dumps({"dims": [2, 3], "matrix": pairs}, indent=2))
        for name in ("plain", "first", "pretty"):
            loaded = load_state(tmp_path / f"{name}.json")
            assert loaded.dims == (2, 3)
            assert np.array_equal(bits(loaded.mat), bits(rho.mat)), name

    @pytest.mark.parametrize("spelling, value", [
        (".5", 0.5), ("+1", 1.0), ("01", 1.0), ("1.", 1.0), ("2.5E-1", 0.25),
    ])
    def test_number_spellings_beyond_json(self, tmp_path, spelling, value):
        path = tmp_path / "state.json"
        path.write_text('{"dims": [2], "matrix": [[[%s, 0], [0, 0]], [[0, 0], [%r, 0]]]}'
                        % (spelling, 1 - value))
        assert load_state(path).mat[0, 0] == value

    @pytest.mark.parametrize("spelling", ["NaN", "Infinity", "-Infinity", "nan", "inf"])
    def test_non_finite_spellings_fail_the_finite_check(self, tmp_path, spelling):
        path = tmp_path / "state.json"
        path.write_text('{"dims": [2], "matrix": [[[1, 0], [%s, 0]], [[0, 0], [0, 0]]]}'
                        % spelling)
        with pytest.raises(InvalidStateError, match="non-finite"):
            load_state(path)

    def test_memory_stays_within_two_and_a_half_file_sizes(self, tmp_path):
        path = tmp_path / "qubits8.json"
        save_state(random_mixed((2,) * 8, 3), path)
        size = path.stat().st_size
        tracemalloc.start()
        try:
            load_state(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * size, peak / size

    @staticmethod
    def load_peak(path) -> int:
        tracemalloc.start()
        try:
            load_state(path)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_memory_holds_the_matrix_not_the_file(self, tmp_path):
        rho = random_mixed((2,) * 8, 3)
        pairs = np.stack([rho.mat.real, rho.mat.imag], -1).tolist()
        save_state(rho, tmp_path / "compact.json")
        (tmp_path / "indented.json").write_text(
            json.dumps({"dims": [2] * 8, "matrix": pairs}, indent=2))
        del pairs
        compact, indented = (self.load_peak(tmp_path / f"{name}.json")
                             for name in ("compact", "indented"))
        assert abs(indented - compact) < 0.05 * compact, (compact, indented)
        assert max(compact, indented) <= 4 * rho.mat.nbytes, compact / rho.mat.nbytes

    @pytest.mark.parametrize("block", [1, 7, 64, 1000])
    def test_any_block_size_reads_the_same_bits(self, tmp_path, monkeypatch, block):
        rho = random_mixed((2, 3), 6)
        pairs = np.stack([rho.mat.real, rho.mat.imag], -1).tolist()
        save_state(rho, tmp_path / "plain.json")
        (tmp_path / "first.json").write_text(
            json.dumps({"matrix": pairs, "note": "]" * 300, "dims": [2, 3]}))
        (tmp_path / "pretty.json").write_text(
            json.dumps({"dims": [2, 3], "matrix": pairs}, indent=3))
        (tmp_path / "spaced.json").write_text(
            json.dumps({"dims": [2, 3], "note": "x" * 200, "matrix": pairs})
            .replace('"matrix":', '"matrix"' + " " * 150 + ":" + " " * 150)
            .replace("]], [[", "]]," + " " * 300 + "[["))
        monkeypatch.setattr(states, "READ_BLOCK", block)
        for name in ("plain", "first", "pretty", "spaced"):
            assert np.array_equal(bits(load_state(tmp_path / f"{name}.json").mat),
                                  bits(rho.mat)), name

    @pytest.mark.parametrize("block", [1, 7, 64])
    @pytest.mark.parametrize("content", [
        b'{"dims": [2], "matrix": [[[0.5, 0], [0, 0]], [[0, 0], [0.5, ]]]}',
        b'{"dims": [2], "matrix": [[[0.5, 0], [ , 0]], [[0, 0], [0.5, 0]]]}',
        b'{"dims": [2], "matrix": [[[0.5, 0], [0, 0]], [[0, 0], [0.5 0.25, 0]]]}',
        b'{"dims": [2], "matrix": [[[0.5, 0], [0, 0]], [[0, 0], [0.5]]]}',
        b'{"dims": [2], "matrix": [[[1, 0], [0, 0]], [[0, 0], [0, 0]]], "matrix": 1}',
        b'{"dims": [2], "matrix"  \n : [[[1, 0], [0, 0]], [[0, 0], [0, 0]]]',
        b'{"dims": [2], "matrix": [[[1, 0], [0, 0]], [[0, 0], [0, 0]]   ',
        b'{"dims": [2], "matrix": 1}',
    ], ids=["trailing-comma", "empty-entry", "two-in-one", "missing", "second-key",
            "unclosed-object", "unclosed-array", "no-array"])
    def test_any_block_size_refuses_the_same_files(self, tmp_path, monkeypatch, block,
                                                  content):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        monkeypatch.setattr(states, "READ_BLOCK", block)
        with pytest.raises(InvalidStateError, match=re.escape(FILE_FORM)):
            load_state(path)

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_a_pipe_is_read_whole(self, tmp_path):
        rho = random_mixed((2,) * 7, 2)  # a file of several blocks
        save_state(rho, tmp_path / "state.json")
        pipe = tmp_path / "pipe"
        os.mkfifo(pipe)
        writer = threading.Thread(
            target=lambda: pipe.write_bytes((tmp_path / "state.json").read_bytes()), daemon=True)
        writer.start()
        try:
            loaded = load_state(pipe)
        finally:
            writer.join(timeout=10)
        assert not writer.is_alive()
        assert np.array_equal(bits(loaded.mat), bits(rho.mat))

    def test_too_short_an_array_is_refused_before_allocating(self, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("allocated for the matrix")

        path = tmp_path / "huge.json"
        path.write_bytes(b'{"dims": [65536, 65536], "matrix": [[[1, 0]]]}')
        monkeypatch.setattr(states, "_skeleton", refuse)
        monkeypatch.setattr(np, "empty", refuse)
        with pytest.raises(InvalidStateError, match=r"not a \(4294967296, 4294967296, 2\)"):
            load_state(path)


class TestBuildState:
    def test_named_states(self):
        np.testing.assert_allclose(build_state("bennett3x3").mat, bennett_state().mat)
        np.testing.assert_allclose(build_state("mes:3").mat, max_entangled(3).mat)
        np.testing.assert_allclose(
            build_state("isotropic:2:0.25").mat, isotropic(2, 0.25).mat
        )

    def test_product_spec(self):
        rho = build_state("product:2,3")
        assert rho.dims == (2, 3)
        assert rho.purity() == pytest.approx(1.0, abs=1e-12)

    def test_mix_spec(self):
        rho = build_state("mix:0.3:bennett3x3+mes:3")
        np.testing.assert_allclose(
            rho.mat, mix(bennett_state(), max_entangled(3), 0.3).mat, atol=1e-15
        )

    def test_random_specs_deterministic(self):
        a = build_state("random_separable:3x3:5:11")
        b = build_state("random_separable:3x3:5:11")
        np.testing.assert_array_equal(a.mat, b.mat)

    def test_unknown_spec(self):
        with pytest.raises(ValueError):
            build_state("nonsense:1:2")

    def test_nested_mix_specs(self):
        tiles, mes3, iso = bennett_state(), max_entangled(3), isotropic(3, 0.2)
        left = build_state("mix:0.5:mix:0.5:bennett3x3+mes:3+isotropic:3:0.2")
        np.testing.assert_allclose(left.mat, mix(mix(tiles, mes3, 0.5), iso, 0.5).mat,
                                   atol=1e-15)
        right = build_state("mix:0.25:bennett3x3+mix:0.5:mes:3+isotropic:3:0.2")
        np.testing.assert_allclose(right.mat, mix(tiles, mix(mes3, iso, 0.5), 0.25).mat,
                                   atol=1e-15)

    @pytest.mark.parametrize("spec", [
        "random_pure:2x2", "mes:abc", "isotropic:3", "product:2,x", "mix:0.5",
        "mix:0.5:mes:3", "mix:0.5:+mes:3", "mix:0.5:mes:3+mes:3+mes:3", "mix:a:mes:3+mes:3",
        "random_separable:3x3:5", "mix:0.5:mix:0.5:mes:3+mes:3",
    ])
    def test_malformed_spec_names_itself(self, spec):
        with pytest.raises(ValueError) as exc:
            build_state(spec)
        msg = str(exc.value)
        assert repr(spec) in msg and "unpack" not in msg and "\n" not in msg


def test_isotropic_weights():
    rho = isotropic(3, 0.0)
    np.testing.assert_allclose(rho.mat, np.eye(9) / 9, atol=1e-15)
    rho = isotropic(3, 1.0)
    np.testing.assert_allclose(rho.mat, max_entangled(3).mat, atol=1e-15)


def test_product_state_dims_flatten():
    rho = product_state([bennett_state(), max_entangled(2)])
    assert rho.dims == (3, 3, 2, 2)
