import json
from fractions import Fraction

import pytest

from chromacode import codes, fileio
from chromacode.colorings import make_coloring, sample_bipartite_biased, sample_gadget_coloring
from chromacode.errors import NoGadgetMeta
from chromacode.graphs import Signing, gadget_expand, random_regular_bipartite


class TestRoundTrip:
    def test_gadget_graph_with_sidecar(self, tmp_path):
        G = gadget_expand(random_regular_bipartite(4, 3, seed=1))
        path = str(tmp_path / "g.graph")
        fileio.write_graph(path, G, sidecar={"construct": "gadget"})
        H = fileio.read_graph(path)
        assert H == G and H.graph_key == G.graph_key
        assert H.part_labels is None and H.meta["gadgets"] == G.meta["gadgets"]
        for seed in range(5):
            assert sample_gadget_coloring(H, 3, seed) == sample_gadget_coloring(G, 3, seed)
        with pytest.raises(NoGadgetMeta):
            sample_gadget_coloring(fileio.graph_from_text((tmp_path / "g.graph").read_text()), 3, 0)

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
        with pytest.raises(ValueError):
            make_coloring(G, 3, colors)

    def test_signing(self, tmp_path):
        G = random_regular_bipartite(6, 3, seed=2)
        s = Signing.random(G, 11)
        path = str(tmp_path / "s.txt")
        fileio.write_signing(path, s)
        assert fileio.read_signing(path, G) == s

    def test_code_set(self, tmp_path):
        G = gadget_expand(random_regular_bipartite(4, 3, seed=1))
        C = codes.greedy_pack(
            G, lambda s: sample_gadget_coloring(G, 3, s), Fraction(1, 2), 4, 100, 5,
            provenance={"sampler": "gadget"},
        )
        assert len(C) >= 2
        path = tmp_path / "code.json"
        path.write_text(json.dumps(fileio.codeset_payload(C, G.graph_key)))
        members = json.loads(path.read_text())["members"]
        assert all(type(c) is int for row in members for c in row)
        back = fileio.read_codeset(str(path), G)
        assert back.members == C.members
        assert (back.delta, back.min_dist) == (C.delta, C.min_dist)
        assert back.provenance == dict(C.provenance)
