"""The benchmark's workloads: fixed case lists with their pinned answers.

A case is a JSON-able dict that ``worker.py`` runs in a fresh interpreter.
``groups`` names spec files under ``specs/`` (one per factor, in order).
Every expected value below was computed at the commit that added the
benchmark and is checked on every run.
"""

COMMUTATOR = "x1 y1 x1^-1 y1^-1"


def verify(groups, word, radius, index):
    """``run_verify(cutoff=8)``; expects VERIFIED with this observed index."""
    return {"kind": "verify", "groups": groups, "word": word,
            "radius": radius, "cutoff": 8, "index": index}


def certify(groups, word, radius, ell):
    """The certificate chain at ``radius`` against the ``radius - 1`` bound."""
    return {"kind": "certify", "groups": groups, "word": word,
            "radius": radius, "ell": ell}


def decide(groups, word, radius, cutoff=3):
    """``word_index`` whose cutoff is at or below the true index, so the
    search stops early; expects ``index == cutoff`` and ``cutoff_hit``."""
    return {"kind": "decide", "groups": groups, "word": word,
            "radius": radius, "cutoff": cutoff}


def cli(groups, argv, expect):
    """In-process ``cli.main(argv + ["--groups", ..., "--json"])``; expects
    exit code 0 and these keys in the JSON document."""
    return {"kind": "cli", "groups": groups, "argv": argv, "expect": expect}


WORKLOADS = {
    # Exhaustive ladder search is ~94% of this; the bound is a small share.
    "verify-search": [
        verify(["z3", "z3"], COMMUTATOR, 3, 3),
        verify(["z3", "s3"], COMMUTATOR, 2, 3),
        verify(["z2", "z3"], "x1 x2 y1 y2", 2, 1),
        verify(["z2", "z2", "z2"], COMMUTATOR, 1, 3),
        verify(["z3", "z3"], "x1 y1", 3, 1),
        cli(["z2", "z2", "z2"],
            ["verify", "--word", COMMUTATOR, "--radius", "1", "--cutoff", "8"],
            {"verdict": "VERIFIED", "observed_index": 3}),
    ],
    # Almost all bounds/ramsey work: writing and checking certificates.
    "certify": [
        certify(["z2", "z3"], COMMUTATOR, 3, 15),
        certify(["z2", "z2"], "x1 x2 y1 y2", 3, 16),
        cli(["z2", "z3"], ["bound", "--word", COMMUTATOR, "--radius", "2"],
            {"ell": 9}),
    ],
    # Early-stopping searches that touch a small share of the A x B pairs.
    # The seed draws the order in which this pool runs; every pass runs the
    # whole pool, because single queries range from 3 ms to 2.6 s and a
    # seeded subset would make the work per run depend on the seed.
    "decide": [
        decide(["z2", "z3"], "x1 y1 x2 y2", 4),
        decide(["z2", "z3"], "x1 y1 x2 y2", 5),
        decide(["z2", "z3"], "x1 y1 x2 y2", 6),
        decide(["z3", "s3"], "x1 y1 x1 y1", 4),
        decide(["z3", "s3"], "x1 y1 x1 y1", 5),
        decide(["z3", "s3"], "x1 y1 x1 y1", 6),
        decide(["z3", "s3"], COMMUTATOR, 5),
        decide(["z3", "s3"], COMMUTATOR, 6),
        cli(["z3", "s3"],
            ["index", "--word", "x1 y1 x1 y1", "--radius", "4", "--cutoff", "3"],
            {"index": 3, "cutoff_hit": True}),
    ],
}

SEEDED_ORDER = {"decide"}

# Tiny inputs for ``--smoke``: the same operations and checks in well under
# a second per case.
SMOKE = {
    "verify-search": [
        verify(["z2", "z2"], COMMUTATOR, 1, 2),
        cli(["z2", "z2"],
            ["verify", "--word", COMMUTATOR, "--radius", "1", "--cutoff", "8"],
            {"verdict": "VERIFIED", "observed_index": 2}),
    ],
    "certify": [
        certify(["z2", "z2"], "x1 y1", 2, 5),
        cli(["z2", "z2"], ["bound", "--word", "x1 y1", "--radius", "1"],
            {"ell": 4}),
    ],
    "decide": [
        decide(["z3", "s3"], COMMUTATOR, 3),
        cli(["z3", "s3"],
            ["index", "--word", COMMUTATOR, "--radius", "3", "--cutoff", "3"],
            {"index": 3, "cutoff_hit": True}),
    ],
}
