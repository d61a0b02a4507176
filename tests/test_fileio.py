import json
from fractions import Fraction

import numpy as np
import pytest

from chromacode import codes, fileio
from chromacode.colorings import (
    Coloring, coordinate_colorings, sample_bipartite_biased, sample_gadget_coloring,
)
from chromacode.errors import BindingMismatch, OutOfRange
from chromacode.graphs import (
    build_from_edges, gadget_expand, random_regular_bipartite, tensor_power,
)


class TestRoundTrip:
    def test_gadget_graph_with_sidecar(self, tmp_path):
        G = gadget_expand(random_regular_bipartite(4, 3, seed=1))
        path = str(tmp_path / "g.graph")
        fileio.write_graph(path, G, sidecar={"construct": "gadget"})
        H = fileio.read_graph(path)
        assert H == G and H.graph_key == G.graph_key
        assert H.part_labels is None
        # the sampler reads the graph, not the sidecar: without it the draws are the same
        bare = fileio.graph_from_text((tmp_path / "g.graph").read_text())
        for seed in range(5):
            want = sample_gadget_coloring(G, 3, seed)
            assert sample_gadget_coloring(H, 3, seed) == want
            assert sample_gadget_coloring(bare, 3, seed) == want

    def test_foreign_sidecar_refused(self, tmp_path):
        # C9(1,2) has the n and d of K3^2; the coordinate colorings of K3^2
        # are not proper on it
        C9 = build_from_edges(9, [(i, (i + s) % 9) for s in (1, 2) for i in range(9)])
        K = tensor_power(3, 2)
        fileio.write_graph(str(tmp_path / "k.graph"), K)
        path = str(tmp_path / "c9.graph")
        fileio.write_graph(path, C9)
        sidecar = tmp_path / "c9.graph.json"
        sidecar.write_bytes((tmp_path / "k.graph.json").read_bytes())
        named = f"describes graph '{K.graph_key}', loaded graph is {C9.graph_key}"
        with pytest.raises(BindingMismatch, match=named):
            fileio.read_graph(path)
        # a sidecar written by hand, without a graph key, still loads, but
        # nothing in it makes C9(1,2) pass for a tensor power
        sidecar.write_text(json.dumps({"meta": {"kind": "tensor", "q": 3, "N": 2}}))
        H = fileio.read_graph(path)
        assert H == C9
        with pytest.raises(BindingMismatch, match=r"graph is not K_3\^2 or an iterated 2-lift"):
            coordinate_colorings(3, 2, H)

    def test_sidecar_keeps_the_graphs_own_fields(self, tmp_path):
        # a caller's stale graph_key, n or d cannot make the file unreadable
        G = tensor_power(3, 2)
        path = str(tmp_path / "t.graph")
        fileio.write_graph(path, G, sidecar={"graph_key": "stale", "n": 7, "d": 1, "seed": 4})
        payload = json.loads((tmp_path / "t.graph.json").read_text())
        assert payload == {"graph_key": G.graph_key, "n": 9, "d": 4, "seed": 4}
        assert fileio.read_graph(path) == G

    def test_bipartite_graph_keeps_parts(self, tmp_path):
        G = random_regular_bipartite(6, 2, seed=3)
        path = str(tmp_path / "rb.graph")
        fileio.write_graph(path, G)
        H = fileio.read_graph(path)
        assert H == G and H.part_labels.tolist() == G.part_labels.tolist()
        assert sample_bipartite_biased(H, 3, 0.2, 4) == sample_bipartite_biased(G, 3, 0.2, 4)

    def test_coloring_file_holds_plain_ints(self, tmp_path):
        G = random_regular_bipartite(6, 2, seed=3)
        X = sample_bipartite_biased(G, 4, 0.3, 7)
        path = str(tmp_path / "x.json")
        fileio.write_coloring(path, X)
        payload = json.loads((tmp_path / "x.json").read_text())
        assert payload["colors"] == X.colors.tolist()
        assert all(type(c) is int for c in payload["colors"])
        assert fileio.read_coloring(path, G) == X

    @pytest.mark.parametrize("colors", [[0, 3], [0, -1], [0, 10**30]])
    def test_coloring_out_of_range_rejected(self, colors):
        G = random_regular_bipartite(1, 1, seed=0)
        with pytest.raises(OutOfRange, match="color out of range"):
            Coloring(3, colors, G)

    def test_signing(self, tmp_path):
        G = random_regular_bipartite(6, 3, seed=2)
        s = np.random.default_rng(11).choice((-1, 1), size=G.m)
        path = str(tmp_path / "s.txt")
        fileio.write_signing(path, G, s)
        assert np.array_equal(fileio.read_signing(path, G), s)

    def test_code_set(self, tmp_path):
        G = gadget_expand(random_regular_bipartite(4, 3, seed=1))
        C = codes.greedy_pack(
            G, lambda s: sample_gadget_coloring(G, 3, s), Fraction(1, 2), 4, 100, 5,
            provenance={"sampler": "gadget"},
        )
        assert len(C) >= 2
        path = tmp_path / "code.json"
        path.write_text(json.dumps(fileio.codeset_payload(C, G.graph_key)))
        payload = json.loads(path.read_text())
        members = payload["members"]
        assert all(type(c) is int for row in members for c in row)
        assert tuple(Coloring(payload["q"], row, G) for row in members) == C.members
        assert (payload["graph"], payload["n"], payload["size"]) == (G.graph_key, G.n, len(C))
        assert (Fraction(payload["delta"]), payload["min_dist"]) == (C.delta, C.min_dist)
        assert payload["provenance"] == dict(C.provenance)
