"""A pin of the numerical layer's verdicts on a seeded corpus.

Seeded catalog members (Delta, PlaneWave, Chirp, GaussianPacket) at n=1,
N=128, L=12 and at n=2, N=32, L=7, with the Gaussian and the Hann
window, are estimated at the default `k_test` and at 0.05.  Per case the
pin holds the sha256 of the `value_at_rmax` bytes and, per `k_test`, the
sha256 of the `flagged` mask, the flagged count and the two k_hat values
nearest `k_test`: the largest below it and the smallest at or above it
(None when there is none).  Those two are compared to 1e-12, so a
rounding-level move passes while drift towards the threshold shows; a
change that moves any other pinned value records old -> new in
CHANGES.md.

Run as a script to print the corpus in the form of `PINS`.
"""

import hashlib

import numpy as np
import pytest

from twistlab.catalog import Chirp, Delta, GaussianPacket, PlaneWave, sample_analytic
from twistlab.grids import make_grid
from twistlab.spectral import gaussian_window, hann_window
from twistlab.wavefront import WavefrontParams, estimate_wf

K_TESTS = (WavefrontParams().k_test, 0.05)
GRIDS = {1: (128, 12.0), 2: (32, 7.0)}
WINDOWS = {"gaussian": gaussian_window, "hann": hann_window}


def _members(n):
    rng = np.random.default_rng(23 + n)
    g = make_grid(n, *GRIDS[n])
    a = rng.uniform(-0.4, 0.4, (n, n))
    return g, {
        "Delta": Delta(tuple(rng.integers(-3, 4, n) * g.spacing)),
        "PlaneWave": PlaneWave(tuple(rng.uniform(-0.3, 0.3, n))),
        "Chirp": Chirp((a + a.T) / 2),
        "GaussianPacket": GaussianPacket(tuple(rng.uniform(-1.0, 1.0, n)),
                                         float(rng.uniform(0.8, 1.4)),
                                         tuple(rng.uniform(-1.0, 1.0, n))),
    }


def _sha(a: np.ndarray) -> str:
    return hashlib.sha256(a.tobytes()).hexdigest()


def corpus():
    """{(member, n, window): {"value_at_rmax": sha, k_test: (flagged sha,
    flagged count, largest k_hat below k_test, smallest at or above)}}."""
    out = {}
    for n in GRIDS:
        g, members = _members(n)
        for (name, dist), (wname, window) in ((m, w) for m in members.items()
                                              for w in WINDOWS.items()):
            u, win = sample_analytic(dist, g), window(g)
            rec = {}
            for k_test in K_TESTS:
                est = estimate_wf(u, win, WavefrontParams(k_test=k_test))
                rec["value_at_rmax"] = _sha(est.value_at_rmax)
                k = est.k_hat
                below, above = k[k < k_test], k[k >= k_test]
                rec[k_test] = (_sha(est.flagged), int(est.flagged.sum()),
                               float(below.max()) if below.size else None,
                               float(above.min()) if above.size else None)
            out[(name, n, wname)] = rec
    return out


PINS = {
    ("Delta", 1, "gaussian"): {
        "value_at_rmax": "f3037c2e6649fa34ea3fea72f55dc9af302542163c954d63ff7781fa1f3c972e",
        0.0073: ("a93ebb4cbaac2ee39bb70365d3acda9e7cb56c7a5cf7e8a63ec946c268dd3a52",
                 12, 0.0030751689133672894, 0.017310635370940245),
        0.05: ("c05d896d228a441a241e816a70565b3bd2944d6bf29774117e1fdfccfd914a57",
               20, 0.04401656693870304, 0.06714640885844499),
    },
    ("Delta", 1, "hann"): {
        "value_at_rmax": "59c83a7750e30db8f7b270d936b8c1cc0daf46fb8e8236c54ec706f8cab172a5",
        0.0073: ("a93ebb4cbaac2ee39bb70365d3acda9e7cb56c7a5cf7e8a63ec946c268dd3a52",
                 12, 0.003573993015760277, 0.014347944029779496),
        0.05: ("c05d896d228a441a241e816a70565b3bd2944d6bf29774117e1fdfccfd914a57",
               20, 0.03835862832712041, 0.05745147856242037),
    },
    ("PlaneWave", 1, "gaussian"): {
        "value_at_rmax": "574a6bf65262a4c9969c85c7656649b848d55b44c072050d529aceeb9def0846",
        0.0073: ("f711f9d29f2f605ef06e02c213805f5fc23ad2661191e395e4a4726bb055e13f",
                 8, 0.007061402496510075, 0.013746105541780403),
        0.05: ("8f715968fdb11d3f2baa3540138a31c86a3f341046f473b15294720f2d4d94be",
               16, 0.03812796525664789, 0.05134584584102206),
    },
    ("PlaneWave", 1, "hann"): {
        "value_at_rmax": "a619b6e257dc582118b4444694c1c93ad8e08518a308f1c0d9b3ed51f96c9646",
        0.0073: ("f711f9d29f2f605ef06e02c213805f5fc23ad2661191e395e4a4726bb055e13f",
                 8, 0.0060325141206056705, 0.011616795592729769),
        0.05: ("c4174207175d1dc4e796edc210b797e890bcefb72b0613a3c7536b6f41b9ce1e",
               18, 0.04420702348515598, 0.054489967827955094),
    },
    ("Chirp", 1, "gaussian"): {
        "value_at_rmax": "e1210321046bc3bb8ab59ebaf8f92fa55cc4ddeb4be745fc925eda0757000fa5",
        0.0073: ("e4bf3e5cf4a8e0ee82e1e67bc78d4d0d2f505ca6f9f64ff6dd8cd9049069303d",
                 6, 0.005150020126447623, 0.008791148103208154),
        0.05: ("7ae71826ecec71450f9778094ae8b9fbb296214274d967f45f927f0009979621",
               16, 0.03890299123330296, 0.052204321894925444),
    },
    ("Chirp", 1, "hann"): {
        "value_at_rmax": "ea3827c7acb9479fae5c3b32cba1eedc61f0b0aff2c07637db834f7d551a6acf",
        0.0073: ("e4bf3e5cf4a8e0ee82e1e67bc78d4d0d2f505ca6f9f64ff6dd8cd9049069303d",
                 6, 0.004359840042414876, 0.007711194254360943),
        0.05: ("644876ad0d4849f10c3d0660d07928a5b427bdb2ce63213e887cc656e65758c5",
               18, 0.04567560118359141, 0.05536773094108189),
    },
    ("GaussianPacket", 1, "gaussian"): {
        "value_at_rmax": "b4b78c7154369ae8ff8b1ff766bc1feefd98c3a277b8c0dc1f3920d4538bd066",
        0.0073: ("d3df611a0ed2e328b050d285287637c60643ba96ec09e4aaefaad7f2cd114b77",
                 0, None, 4.117706573306726),
        0.05: ("d3df611a0ed2e328b050d285287637c60643ba96ec09e4aaefaad7f2cd114b77",
               0, None, 4.117706573306726),
    },
    ("GaussianPacket", 1, "hann"): {
        "value_at_rmax": "9a6f12c39f8c39f4d7b17e99781e1f4dfe0a9ffd2745fd89532e984771f931aa",
        0.0073: ("d3df611a0ed2e328b050d285287637c60643ba96ec09e4aaefaad7f2cd114b77",
                 0, None, 2.2695428960264543),
        0.05: ("d3df611a0ed2e328b050d285287637c60643ba96ec09e4aaefaad7f2cd114b77",
               0, None, 2.2695428960264543),
    },
    ("Delta", 2, "gaussian"): {
        "value_at_rmax": "d00316bf748059696969b3f972273c5a14b21842bae3a6c069f897a7395706fc",
        0.0073: ("d78611f63c7380f12021c3166958a8b26ece37a1553aec8f97436857291ca077",
                 253, 0.0069252213406245525, 0.0094083605085377),
        0.05: ("edf136c5bbf2a100a057e891c9f3f3c3d67fd86ea669e6ba7dafbfc942a351ab",
               282, 0.04985264554671121, 0.05013394597735561),
    },
    ("Delta", 2, "hann"): {
        "value_at_rmax": "4c92e9d8bfe19d255211ac621889e91c0388cb4973e01131b4ac1186952b9943",
        0.0073: ("34b6640fca938a280f29b93a89900b9c2311d9a3f2e9433cec63b83a53595db1",
                 248, 0.004956182978955935, 0.007891395866696684),
        0.05: ("dc74588832261bcecdafb44e4d5b69936e5d9a98ca025b4b1498b19211dbcf33",
               287, 0.049651075175599794, 0.051858183073628175),
    },
    ("PlaneWave", 2, "gaussian"): {
        "value_at_rmax": "0d56e49fcc4b8cbf15c8de768686e763891edac4b289ae900591913373e10ff1",
        0.0073: ("12a4eeb1f608190747275080e3e10034fb7f175cb5f2af5fa4566fe8441c220e",
                 14, 0.006224747744249171, 0.007394971031965081),
        0.05: ("414df3d482bc1ac74b84651026b92860669411e011c0ac4d7147b8ccac902e9a",
               47, 0.049495526604502876, 0.05231012825749835),
    },
    ("PlaneWave", 2, "hann"): {
        "value_at_rmax": "bbbc58cea4acfa97f8326bcfd567db19aa49c71000f0228e6c43782c02ff637e",
        0.0073: ("1acbbac466590e183cc0c170c09802bba99cedde3f68f0cea41f4782de58a860",
                 17, 0.007186249746880974, 0.00904603895492974),
        0.05: ("fa0e05375c4103d6028293db3aee07334edc166ab769ffcd2f4207c0743bd647",
               52, 0.044903447482382494, 0.0503439802041019),
    },
    ("Chirp", 2, "gaussian"): {
        "value_at_rmax": "00a21cbf3df193820b113914d03d2d1c24695eb1525072422b5026066a70e9ef",
        0.0073: ("b37eca0b4b608b819c56b5aa0bbe5bc0f68620ccf6ac40fa7d4cb7887f42cdd1",
                 12, 0.005832612057676941, 0.014246929141698998),
        0.05: ("8806f2c14f1a1f00ab3815d29047ae6e64219c270a55941f5f14cfc1a8109a98",
               44, 0.048993819170746335, 0.050081894674039625),
    },
    ("Chirp", 2, "hann"): {
        "value_at_rmax": "14a2bcde3bc7b6778b786c5ba3d76f8eefa27d625400c6d35f3681337ba540cc",
        0.0073: ("b37eca0b4b608b819c56b5aa0bbe5bc0f68620ccf6ac40fa7d4cb7887f42cdd1",
                 12, 0.0044717244761995146, 0.012999572365729564),
        0.05: ("ab6cec00f6377d74bca42edf8167eabbab5150ae9f47b91de0ff2e9345ee8c1f",
               48, 0.043433439641710994, 0.05452988093081419),
    },
    ("GaussianPacket", 2, "gaussian"): {
        "value_at_rmax": "921d49fb55ce18022a0f49b7063eb54e608c8cff04a1a7aa36271941ad983162",
        0.0073: ("e5a00aa9991ac8a5ee3109844d84a55583bd20572ad3ffcd42792f3c36b183ad",
                 0, None, 0.5712385878984049),
        0.05: ("e5a00aa9991ac8a5ee3109844d84a55583bd20572ad3ffcd42792f3c36b183ad",
               0, None, 0.5712385878984049),
    },
    ("GaussianPacket", 2, "hann"): {
        "value_at_rmax": "f1e86c6b46a614788da23fab8cfb275dbff55ee05ff26635610ea984a77f65fb",
        0.0073: ("e5a00aa9991ac8a5ee3109844d84a55583bd20572ad3ffcd42792f3c36b183ad",
                 0, None, 0.5346151376804654),
        0.05: ("e5a00aa9991ac8a5ee3109844d84a55583bd20572ad3ffcd42792f3c36b183ad",
               0, None, 0.5346151376804654),
    },
}


@pytest.fixture(scope="module")
def computed():
    return corpus()


@pytest.mark.parametrize("case", list(PINS), ids=lambda c: f"{c[0]}-n{c[1]}-{c[2]}")
def test_wf_corpus_pinned(computed, case):
    got, want = computed[case], PINS[case]
    assert got["value_at_rmax"] == want["value_at_rmax"]
    for k_test in K_TESTS:
        (flags, count, *near), (want_flags, want_count, *want_near) = got[k_test], want[k_test]
        assert (flags, count) == (want_flags, want_count), k_test
        for k, w in zip(near, want_near):
            assert (k is None) == (w is None), k_test
            assert k is None or k == w or abs(k - w) <= 1e-12, (k_test, k, w)


def test_wf_corpus_covers_every_case(computed):
    assert set(computed) == set(PINS)


if __name__ == "__main__":
    for case, rec in corpus().items():
        print(f"    {case!r}: {{".replace("'", '"'))
        print(f'        "value_at_rmax": "{rec["value_at_rmax"]}",')
        for k_test in K_TESTS:
            flags, *rest = rec[k_test]
            print(f'        {k_test!r}: ("{flags}",')
            print(f"        {' ' * len(repr(k_test))}   {', '.join(map(repr, rest))}),")
        print("    },")
