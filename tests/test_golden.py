"""Byte identity of the commands' output and of every reach answer.

Runs `cli.run` for decompose, pathnum-lb, validate --paths and
validate --walks on random DAGs, on their covers and on corrupted covers,
and compares the sha256 of each run's exit code, stdout and stderr with a
table recorded from a known-good build.  A second table pins, per
instance, the sha256 of every field of `decide_reachability`'s result for
every (s, t) pair, plus a handful of reach and min-switches runs through
`cli.run`.  A change that alters any output byte, diagnostic, exit code
or `ReachResult` field fails here.  When such a change is intended, print
new tables with `PYTHONPATH=src python tests/test_golden.py` and replace
GOLDEN and REACH_GOLDEN with them.
"""

import contextlib
import hashlib
import io
import random
import tempfile
from pathlib import Path

import pytest

from pathreach.cli import run
from pathreach.dagcover import minimal_path_decomposition
from pathreach.decomposition import format_decomposition
from pathreach.graph import format_graph
from pathreach.reach import decide_reachability
from pathreach.testkit import (
    InstanceSeed,
    gen_decomposed_instance,
    gen_random_dag,
    switch_chain,
)

SEEDS = (1, 2, 3)
N, P = 200, 0.05


def _corruptions(paths, n):
    """Named covers that each break the cover in one way; paths[0] has >= 2 vertices."""
    first, second = paths[0], paths[1]
    last = first[-1]
    return {
        "drop": paths[1:],
        "duplicate": paths + [first],
        "extra-step": [first + [last + 1 if last + 1 < n else 0]] + paths[1:],
        "out-of-range": [first + [n + 3]] + paths[1:],
        "repeat": [first + [first[0]]] + paths[1:],
        "reverse": [first[::-1]] + paths[1:],
        "merge": [first + second] + paths[2:] if last != second[0] else paths,
    }


def _walks_text(paths):
    return "".join(" ".join(map(str, p)) + "\n" for p in paths)


def _digest(argv, tmp):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    record = f"{code}\0{out.getvalue()}\0{err.getvalue()}".replace(tmp, "<tmp>")
    return hashlib.sha256(record.encode()).hexdigest(), out.getvalue()


def _runs(seed):
    """(label, sha256) for every run on the DAG of one seed."""
    g = gen_random_dag(N, P, seed)
    results = []
    with tempfile.TemporaryDirectory() as tmp:
        canonical = Path(tmp, "g.g")
        canonical.write_text(format_graph(g))
        lines = format_graph(g).splitlines()
        edge_lines = lines[1:]
        random.Random(seed).shuffle(edge_lines)
        shuffled = Path(tmp, "shuffled.g")
        shuffled.write_text("\n".join(lines[:1] + edge_lines) + "\n")
        commented = Path(tmp, "commented.g")
        commented.write_text("# edges in random order\n" + shuffled.read_text())
        cyclic = Path(tmp, "cyclic.g")
        cyclic.write_text(format_graph(g) + f"e {N - 1} 0\n")
        cover = Path(tmp, "cover.walks")

        def record(label, argv):
            digest, out = _digest(argv, tmp)
            results.append((label, digest))
            return out

        cover_text = record("decompose", ["decompose", "--graph", str(canonical)])
        cover.write_text(cover_text)
        record("pathnum-lb", ["pathnum-lb", "--graph", str(canonical)])
        paths = [list(map(int, line.split())) for line in cover_text.splitlines()]
        covers = {"cover": cover_text, "commented": "# cover\n\n" + cover_text}
        covers.update((name, _walks_text(c)) for name, c in _corruptions(paths, N).items())
        for name, text in covers.items():
            cover.write_text(text)
            for mode in ("--paths", "--walks"):
                record(f"{name} {mode}", ["validate", "--graph", str(canonical),
                                          "--decomp", str(cover), mode])
        cover.write_text(cover_text)
        record("shuffled decompose", ["decompose", "--graph", str(shuffled)])
        record("shuffled pathnum-lb", ["pathnum-lb", "--graph", str(shuffled)])
        record("shuffled --paths", ["validate", "--graph", str(shuffled),
                                    "--decomp", str(cover), "--paths"])
        record("commented-graph decompose", ["decompose", "--graph", str(commented)])
        record("commented-graph --paths", ["validate", "--graph", str(commented),
                                           "--decomp", str(cover), "--paths"])
        record("cyclic decompose", ["decompose", "--graph", str(cyclic)])
        record("cyclic --walks", ["validate", "--graph", str(cyclic),
                                  "--decomp", str(cover), "--walks"])
    return results


GOLDEN = {
    "1 decompose": "7f5d7f7fb1979a0ce3632a723a9b5ebf034aa5df4d457042ce772f73cafb0cd4",
    "1 pathnum-lb": "2baaf8e44631a96726a64a9bc2c0a43e186ae825871ba109c5f1accb01c22e3b",
    "1 cover --paths": "780bb5146b3cb7e0b131f70a700e38722133eeb991aac95040bfe3558289d83b",
    "1 cover --walks": "780bb5146b3cb7e0b131f70a700e38722133eeb991aac95040bfe3558289d83b",
    "1 commented --paths": "780bb5146b3cb7e0b131f70a700e38722133eeb991aac95040bfe3558289d83b",
    "1 commented --walks": "780bb5146b3cb7e0b131f70a700e38722133eeb991aac95040bfe3558289d83b",
    "1 drop --paths": "e38703ec401953540adbc430c754eeff61a087d8113e44b84f2c7dc657cd6244",
    "1 drop --walks": "bf74d642a7f863acd4f88e439deb3d4cd4199fb17af1d048cc83895eff28e3c7",
    "1 duplicate --paths": "27edc3f38913b96f9f3b46c8f240f7f7d5d8ae95a3aa25090eddb8c459f6477d",
    "1 duplicate --walks": "780bb5146b3cb7e0b131f70a700e38722133eeb991aac95040bfe3558289d83b",
    "1 extra-step --paths": "d1f5496f1122de9983a03650779b1b30d53b5db27ca1015585b846bd30505be2",
    "1 extra-step --walks": "d1f5496f1122de9983a03650779b1b30d53b5db27ca1015585b846bd30505be2",
    "1 out-of-range --paths": "add761b2deb55473dbffd23d91d964ec05d3174884490ed80141f70e5aa6faab",
    "1 out-of-range --walks": "add761b2deb55473dbffd23d91d964ec05d3174884490ed80141f70e5aa6faab",
    "1 repeat --paths": "234646c740954e2b6165fed17461ebc87118ea5870d04a5fb6a3c50ad4d49066",
    "1 repeat --walks": "bcbab4b240e5499c94795e19acab20e12ea1cbc2e2a4e54be90e3a3351b22c50",
    "1 reverse --paths": "8813794de9876f2ffa9fa3f85462eecc58c5d2b264cfca843a31cf0fdde1bc33",
    "1 reverse --walks": "7aa3b5fb82560052d5362ceb906d95ab7323268142643873baba60236c177c84",
    "1 merge --paths": "4edd5669753d7bde243fe3fc8cec0c6b0d89f53717147d9c7a3f4ae39091287d",
    "1 merge --walks": "bcbab4b240e5499c94795e19acab20e12ea1cbc2e2a4e54be90e3a3351b22c50",
    "1 shuffled decompose": "7f5d7f7fb1979a0ce3632a723a9b5ebf034aa5df4d457042ce772f73cafb0cd4",
    "1 shuffled pathnum-lb": "2baaf8e44631a96726a64a9bc2c0a43e186ae825871ba109c5f1accb01c22e3b",
    "1 shuffled --paths": "780bb5146b3cb7e0b131f70a700e38722133eeb991aac95040bfe3558289d83b",
    "1 commented-graph decompose": "7f5d7f7fb1979a0ce3632a723a9b5ebf034aa5df4d457042ce772f73cafb0cd4",
    "1 commented-graph --paths": "780bb5146b3cb7e0b131f70a700e38722133eeb991aac95040bfe3558289d83b",
    "1 cyclic decompose": "8b48afadb0516e06d25c1d4cbf141fd8547092b157c44b6fd75879e9da6bf2c5",
    "1 cyclic --walks": "6fb3ca33257bf8784e80af3f4bb4fb8846d9b299ca3dd43589889112ad18458d",
    "2 decompose": "70701ff854d79036ebbfe1e1199c87b8f269b85be6e371f3415e23547174d25b",
    "2 pathnum-lb": "abe9d1c28806b752e8770b0803fa1d69bc8458c728c053ad3e7bdfd113aae228",
    "2 cover --paths": "780bb5146b3cb7e0b131f70a700e38722133eeb991aac95040bfe3558289d83b",
    "2 cover --walks": "780bb5146b3cb7e0b131f70a700e38722133eeb991aac95040bfe3558289d83b",
    "2 commented --paths": "780bb5146b3cb7e0b131f70a700e38722133eeb991aac95040bfe3558289d83b",
    "2 commented --walks": "780bb5146b3cb7e0b131f70a700e38722133eeb991aac95040bfe3558289d83b",
    "2 drop --paths": "865584d20b90be58158e69fd151765dae6766b2fb864aabcb5ce9dfd9b0faaa5",
    "2 drop --walks": "53948a5db3bdc43790a41c53e5120a1a090ba7965309af8c7aec21e24140318f",
    "2 duplicate --paths": "25f79551af9998ca228bc976437dbf2891f048987ec8860156cb3360c0904237",
    "2 duplicate --walks": "780bb5146b3cb7e0b131f70a700e38722133eeb991aac95040bfe3558289d83b",
    "2 extra-step --paths": "f73d278c30cd25e86b2eee21638a7afc6849c3b707c86e0f213af0c4d77f098e",
    "2 extra-step --walks": "f73d278c30cd25e86b2eee21638a7afc6849c3b707c86e0f213af0c4d77f098e",
    "2 out-of-range --paths": "7dfae905b9476d944cdc4d0480e808ddd455f1d5f6a474ce3e3325dbcf844ef4",
    "2 out-of-range --walks": "7dfae905b9476d944cdc4d0480e808ddd455f1d5f6a474ce3e3325dbcf844ef4",
    "2 repeat --paths": "591075de920321e4dfe69bdb5ae7c087729a46526d34a47717ac2de23b483145",
    "2 repeat --walks": "2215c03b134dd745f66ed27295aab7f297401fa6d1bbdbf4c31a111f1f857704",
    "2 reverse --paths": "9c3a22c2fa10bc3be338c9e167f1f5cb307410d748e60ec3f9333185f85c7888",
    "2 reverse --walks": "678d5ad8b70a0937678b6a11300fdcdd816b3e5974bb219fda610fc5cec84487",
    "2 merge --paths": "5f489a8d5c37f0963986266427d55f98c327fabf1ff37fa6d75920cc478e35d9",
    "2 merge --walks": "2215c03b134dd745f66ed27295aab7f297401fa6d1bbdbf4c31a111f1f857704",
    "2 shuffled decompose": "70701ff854d79036ebbfe1e1199c87b8f269b85be6e371f3415e23547174d25b",
    "2 shuffled pathnum-lb": "abe9d1c28806b752e8770b0803fa1d69bc8458c728c053ad3e7bdfd113aae228",
    "2 shuffled --paths": "780bb5146b3cb7e0b131f70a700e38722133eeb991aac95040bfe3558289d83b",
    "2 commented-graph decompose": "70701ff854d79036ebbfe1e1199c87b8f269b85be6e371f3415e23547174d25b",
    "2 commented-graph --paths": "780bb5146b3cb7e0b131f70a700e38722133eeb991aac95040bfe3558289d83b",
    "2 cyclic decompose": "8b48afadb0516e06d25c1d4cbf141fd8547092b157c44b6fd75879e9da6bf2c5",
    "2 cyclic --walks": "6fb3ca33257bf8784e80af3f4bb4fb8846d9b299ca3dd43589889112ad18458d",
    "3 decompose": "2817af9ef294a2b04cf10077cd03ac77c53b042e4028fab00c264d7898ff50c4",
    "3 pathnum-lb": "0e3376dcb95e7acd8ca477d0597bcf90b04705d783b5b60bcdd875a90061af90",
    "3 cover --paths": "780bb5146b3cb7e0b131f70a700e38722133eeb991aac95040bfe3558289d83b",
    "3 cover --walks": "780bb5146b3cb7e0b131f70a700e38722133eeb991aac95040bfe3558289d83b",
    "3 commented --paths": "780bb5146b3cb7e0b131f70a700e38722133eeb991aac95040bfe3558289d83b",
    "3 commented --walks": "780bb5146b3cb7e0b131f70a700e38722133eeb991aac95040bfe3558289d83b",
    "3 drop --paths": "85512ef1496547bd53eae5939005ae56d48be457ad49e2883735bc380b4035ba",
    "3 drop --walks": "51c2f5ed21533e1f6117dd58552e3bccf0d857600f3588ce6906c66713bec92b",
    "3 duplicate --paths": "9c6d2efd5a4935d2593968a5fcf94b43b3b88fc23df7ea3b377c11c78159d950",
    "3 duplicate --walks": "780bb5146b3cb7e0b131f70a700e38722133eeb991aac95040bfe3558289d83b",
    "3 extra-step --paths": "227c2286d4966f54de43ae929fce7a86c794e614e3ee0b4ee64c4790de585b07",
    "3 extra-step --walks": "227c2286d4966f54de43ae929fce7a86c794e614e3ee0b4ee64c4790de585b07",
    "3 out-of-range --paths": "8730f3de048ca371f3edc6b3a7163f85a9e5a783dfe890b64397511f0f163dc1",
    "3 out-of-range --walks": "8730f3de048ca371f3edc6b3a7163f85a9e5a783dfe890b64397511f0f163dc1",
    "3 repeat --paths": "69d53f7d7d1996c9bc3ebda7f6d6a5fd5d6c7b7acbe4830de379b706126104dc",
    "3 repeat --walks": "11012667e1c315eafe2750f3124f7e523742aaa4519a6d238538bf063518fbe2",
    "3 reverse --paths": "54a308c7cfb15a429f5efbac45d3c127ed01762a2b5a178c95dd1303e7b9b76a",
    "3 reverse --walks": "ea631fdb349a526b95cbccbb25e54c4477ee18989a95c7223cb74127ad0f2e02",
    "3 merge --paths": "6b36f74fd46f90c75b934b1653d910539bee5747d40140f58170d95c06ceced5",
    "3 merge --walks": "11012667e1c315eafe2750f3124f7e523742aaa4519a6d238538bf063518fbe2",
    "3 shuffled decompose": "2817af9ef294a2b04cf10077cd03ac77c53b042e4028fab00c264d7898ff50c4",
    "3 shuffled pathnum-lb": "0e3376dcb95e7acd8ca477d0597bcf90b04705d783b5b60bcdd875a90061af90",
    "3 shuffled --paths": "780bb5146b3cb7e0b131f70a700e38722133eeb991aac95040bfe3558289d83b",
    "3 commented-graph decompose": "2817af9ef294a2b04cf10077cd03ac77c53b042e4028fab00c264d7898ff50c4",
    "3 commented-graph --paths": "780bb5146b3cb7e0b131f70a700e38722133eeb991aac95040bfe3558289d83b",
    "3 cyclic decompose": "8b48afadb0516e06d25c1d4cbf141fd8547092b157c44b6fd75879e9da6bf2c5",
    "3 cyclic --walks": "6fb3ca33257bf8784e80af3f4bb4fb8846d9b299ca3dd43589889112ad18458d",
}


REACH_GOLDEN = {
    "pairs chain": "09587b40c21222aede718e571a6ec10ba8f31e28fdc6df16a42cdf2332909863",
    "pairs walks 1": "01138d734c4e811529125c3794f1a784515f30e40f535d8db1c1a33bab9dc598",
    "pairs walks 2": "74164cf8022bb8e28068147d875764da1febb5b9b9ba3d8b5ddefde5d2816a1d",
    "pairs walks 3": "3c76d4bf7d3bd3e6246ce1bdf21dcfc9246777764ae8067b89de894c2d36dfc4",
    "pairs dag cover": "2cf0454df543c2ef4f3a00da3842501cc0f26b0494b341c6ed5a62c0d77259c6",
    "chain: reach --from 0 --to 39": "67d9b9acdad59ef21a53176bdf24fdaa37b171239fd2d249b3f0d14aa9b05ccd",
    "chain: reach --from 39 --to 0": "7e34d75ab5569b94fcd28beb94230bb47675d27a5c1012bdf0551fc1e5b36ede",
    "chain: min-switches --from 0 --to 39": "816df249412953516d876d439d8269bfe44ef17a615e5b26126832b44f4b22bd",
    "chain: min-switches --from 5 --to 5": "93ae3b536c740e244712538e00afe02c545d44b8f943a800abe8c753f4d55309",
    "chain: reach --from 0 --to 40": "2989e2f8f23a1f665860053b01111a30416ed519a4100801762f93123f5bf0dc",
    "walks 1: reach --from 6 --to 8": "887d0e529440d85e26b3a6411c47cda51c094e5a905bacb39a53b5683984839a",
    "walks 1: reach --from 6 --to 1": "e543d6c1bac87b0f1f0af795061cdc6c4d4739e6aa7d4a4182218e6f5f0df731",
    "walks 1: reach --from 1 --to 3": "bd53f6a84624646ffc5cd8143fb1cfef2eef7b9c27bc68c72d978043f1642cdd",
    "walks 1: min-switches --from 17 --to 3": "e672b53e3f7b9098194cade0e1073279c558b8ca1759ad7ed0c55e6d5af559db",
    "dag cover: reach --graph <graph> --from 0 --to 59": "6aa76f372da882a4e1a876033b85790986dcf2b2ea2483032b284d54373539b2",
    "dag cover: reach --graph <graph> --from 59 --to 0": "7e62234b4d2fe6bc0dc68ebe4b694c752a73e6b58a6d6f3a07a641ec5125a439",
    "dag cover: reach --graph <graph> --from 28 --to 59": "cee3d4b901ed414e8be47f5d3ef64b79446139af9c34a650875d90992da10757",
    "dag cover: min-switches --graph <graph> --from 2 --to 50": "63400b7c6c5bc09fc7350f2c6543f5de81c3648cd8adcf18a16d7bfa62aba7de",
}


@pytest.mark.parametrize("seed", SEEDS)
def test_outputs_match_recorded_digests(seed):
    got = {f"{seed} {label}": digest for label, digest in _runs(seed)}
    assert got == {key: d for key, d in GOLDEN.items() if key.split()[0] == str(seed)}


def _reach_instances():
    """(label, decomposition, universe) for every instance of the reach table."""
    instances = [("chain", switch_chain(40, 3), 40)]
    for seed in (1, 2, 3):
        w = gen_decomposed_instance(InstanceSeed(30, 6, 12, seed=seed))
        instances.append((f"walks {seed}", w, 30))
    instances.append(("dag cover", minimal_path_decomposition(gen_random_dag(60, 0.1, 1)), 60))
    return instances


def _all_pairs_digest(w, n):
    """sha256 over (s, t, reachable, min_switches, iterations, peak_words)
    for every pair of vertices in [0, n)."""
    h = hashlib.sha256()
    for s in range(n):
        for t in range(n):
            r = decide_reachability(w, s, t, n=n)
            h.update(f"{s} {t} {r.reachable} {r.min_switches} {r.iterations} "
                     f"{r.peak_words}\n".encode())
    return h.hexdigest()


# The CLI reach runs: (instance, argv without --decomp).  Vertex 1 occurs
# in no walk of "walks 1" and vertex 28 in no path of "dag cover", which
# makes them an absent source or target.
_REACH_RUNS = [
    ("chain", ["reach", "--from", "0", "--to", "39"]),
    ("chain", ["reach", "--from", "39", "--to", "0"]),
    ("chain", ["min-switches", "--from", "0", "--to", "39"]),
    ("chain", ["min-switches", "--from", "5", "--to", "5"]),
    ("chain", ["reach", "--from", "0", "--to", "40"]),
    ("walks 1", ["reach", "--from", "6", "--to", "8"]),
    ("walks 1", ["reach", "--from", "6", "--to", "1"]),
    ("walks 1", ["reach", "--from", "1", "--to", "3"]),
    ("walks 1", ["min-switches", "--from", "17", "--to", "3"]),
    ("dag cover", ["reach", "--graph", "<graph>", "--from", "0", "--to", "59"]),
    ("dag cover", ["reach", "--graph", "<graph>", "--from", "59", "--to", "0"]),
    ("dag cover", ["reach", "--graph", "<graph>", "--from", "28", "--to", "59"]),
    ("dag cover", ["min-switches", "--graph", "<graph>", "--from", "2", "--to", "50"]),
]


def _reach_runs():
    """(label, sha256) for the all-pairs tables and the CLI reach runs."""
    instances = _reach_instances()
    results = [(f"pairs {label}", _all_pairs_digest(w, n)) for label, w, n in instances]
    with tempfile.TemporaryDirectory() as tmp:
        graph = Path(tmp, "dag.g")
        graph.write_text(format_graph(gen_random_dag(60, 0.1, 1)))
        files = {}
        for label, w, _ in instances:
            files[label] = Path(tmp, label.replace(" ", "-") + ".walks")
            files[label].write_text(format_decomposition(w))
        for label, args in _REACH_RUNS:
            argv = [args[0], "--decomp", str(files[label])]
            argv += [str(graph) if a == "<graph>" else a for a in args[1:]]
            digest, _ = _digest(argv, tmp)
            results.append((f"{label}: {' '.join(args)}", digest))
    return results


@pytest.fixture(scope="module")
def reach_runs():
    return dict(_reach_runs())


@pytest.mark.parametrize("label", list(REACH_GOLDEN))
def test_reach_answers_match_recorded_digests(label, reach_runs):
    assert reach_runs[label] == REACH_GOLDEN[label]


def test_reach_table_is_complete(reach_runs):
    assert set(reach_runs) == set(REACH_GOLDEN)


if __name__ == "__main__":
    print("GOLDEN = {")
    for seed in SEEDS:
        for label, digest in _runs(seed):
            print(f'    "{seed} {label}": "{digest}",')
    print("}")
    print("REACH_GOLDEN = {")
    for label, digest in _reach_runs():
        print(f'    "{label}": "{digest}",')
    print("}")
