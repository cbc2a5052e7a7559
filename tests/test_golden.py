"""Byte-for-byte digests of ``gen`` artifacts that the benchmark does not pin.

``perfbench/expected.json`` pins the closure artifacts of its own job
list.  These cover the constructions it leaves out: the affinised
tensor window, windowed path crystals from a labelled seed and from a
level-zero fundamental, a tensor square of a grid-2 crystal, a
three-factor power (where the tensor rule's leftmost and rightmost
maxima part), a tensor square in dot format, and two windowed path
crystals where most nodes sit off level zero, so their moves and
weights come from translated level-zero rows.  The first four digests
were recorded on the Fraction-weight nodes that integer stretch weights
replaced, so node weights must still render to the same bytes; the two
path-crystal rows were recorded under the retired spellings
``--ls --weight 2w1+1d`` and ``--ambient affine --i 2``.  The next two
were recorded at c1ef24e, while the tensor rule still took one string
scan per (element, index) and the writers rendered every tensor key per
node.  The last two, G2 w1 (75 nodes) and D4 w2 - delta (145 nodes),
were recorded at d2c0f27, while every translated row was rebuilt and
every node's weight read off its own endpoint.
"""

import hashlib

import pytest

from loom.cli import main

GOLDEN = [
    (["--type", "A", "--rank", "1", "--i", "1", "--affinize", "--power", "2", "--window", "3"],
     "5fc9ff782b723278010d1c934418aa55cf0b7e138d5986a0a8e2f2f8112743d7"),
    (["--type", "A", "--rank", "1", "--weight", "2w1+1d", "--window", "3"],
     "60c5ce04bf70d7993306a7e577a1db88fded2b6c73984902d001857129795b44"),
    (["--type", "C", "--rank", "2", "--weight", "w2", "--window", "2"],
     "fbc566b4425efd936e9f7a4df8a7091d13076f9a76430ade5e410c7bf91a4274"),
    (["--type", "C", "--rank", "2", "--i", "2", "--power", "2"],
     "a703089a7f873c010d4f3e2fa0aca91e47ca382ef78afa8e25983aaf3174175d"),
    (["--type", "G2", "--rank", "2", "--i", "2", "--power", "3"],
     "8c10e7c25cea2651084903d8356615d48340d99004220fcd87892cf7c2ca93e6"),
    (["--type", "B", "--rank", "3", "--i", "1", "--power", "2", "--format", "dot"],
     "02d22d2b6f3e962e44aacc555c24add9f67da00869ac77f580a25c163a680583"),
    (["--type", "G2", "--rank", "2", "--weight", "w1", "--window", "2"],
     "c2512936ea3caf44e74f3ccc73c0292bb7cef98f9a9cebfa75e789c6bd56769b"),
    (["--type", "D", "--rank", "4", "--weight", "w2-d", "--window", "2"],
     "6ed8bd44fd6865ba4e110c90864d997dd809cd0f00cd524d5013cdf6f0853150"),
]


@pytest.mark.parametrize("argv,digest", GOLDEN,
                         ids=["A1-affinize", "A1-ls", "C2-affine-window", "C2-square",
                              "G2-cube", "B3-square-dot", "G2-window", "D4-window-off-zero"])
def test_gen_artifact_matches_its_golden_digest(tmp_path, argv, digest):
    out = tmp_path / "artifact"
    assert main(["gen", *argv, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
