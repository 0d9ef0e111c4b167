"""Golden CLI outputs: byte-for-byte pins on fixed synthetic corpora.

Each case runs one subcommand through ``artifact.cli.main`` and compares the
SHA-256 of what it wrote with a digest recorded from an earlier, independently
checked implementation.  Any change to an output byte fails here, so a
rewrite of a layer underneath the CLI must reproduce it exactly.
"""

import hashlib

import pytest

from artifact.cli import main
from artifact.synth import PatternSpec, make_test_sequence, save_corpus

# "ragged" is 61 columns wide: a multiple of neither delta 8 nor, after a
# 2-pixel clip on each side, delta 4, so the leftover-column rule is covered.
CORPORA = {
    "square": dict(width=64, height=64, seed=7,
                   spec=PatternSpec(kind="block-grid", period=16, amplitude=48)),
    "ragged": dict(width=61, height=40, seed=8,
                   spec=PatternSpec(kind="checkerboard", period=12, amplitude=40)),
}

COMMANDS = {
    "measure": ["measure"],
    "measure-clip2-delta4": ["measure", "--clip-margin", "2", "--delta", "4"],
    "detect-json": ["detect"],
    "detect-csv": ["detect", "--report-format", "csv"],
    "seba": ["seba"],
}

GOLDEN = {
    "ragged/detect-csv": "967b6f6ae5c03f47982d8b2fb4183ad44fd1221b3c993c82e0c5f19331fcef63",
    "ragged/detect-json": "4a1361fbe4b4f10599ba6ea357e6cca22063f046840f02f348f8814f0b6ab063",
    "ragged/evaluate": "dcf587f027dbd71931b2b5c56936bc580297844aa54374f068534bc8f7c65721",
    "ragged/measure": "cb7b028d8f8d2aa6edebb4c8adb0672f5d41398154d07a4a5af62064b7a7d839",
    "ragged/measure-clip2-delta4": "8530b63026133c9a6254243984c2116dc21aadc6280d21e0abbf413cd68dd237",
    "ragged/seba": "a79fa5f6dd67cc40f8b54e6ab04bb2869b98bd2e588b17f9de8afa4b7984ce69",
    "square/detect-csv": "3558efe7ededbe9d6d547f414d76c9b118c7f202c57add7c52cfae421ede852d",
    "square/detect-json": "cd1af849083c193ab84f3fecb28e43d7fa8f452421f553c73e0dfa476ecfc7d7",
    "square/evaluate": "dcf587f027dbd71931b2b5c56936bc580297844aa54374f068534bc8f7c65721",
    "square/measure": "2006e19b16ef75f290fa3042dd06c4ecc0b51e7cdf99df576e546db54c62c0a3",
    "square/measure-clip2-delta4": "394143deaa32adfbc7613933662665c24dd7d2aa2200b91cb51423a0acd78b5b",
    "square/seba": "1d62cde0aa35e074df12502688e920fcd4280003578dff75baae07456a0f42a9",
}


def _corpus(tmp_path, name):
    params = dict(CORPORA[name])
    frames, truth = make_test_sequence(length=24, distorted={12, 13}, **params)
    yuv, sidecar = save_corpus(frames, truth, tmp_path / name)
    source = ["--input", str(yuv), "--format", "raw-yuv", "--width", str(params["width"]),
              "--height", str(params["height"]), "--pixel-layout", "y-only"]
    return source, sidecar


def _digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("corpus", sorted(CORPORA))
@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_cli_output_matches_golden_digest(tmp_path, corpus, command):
    source, _ = _corpus(tmp_path, corpus)
    out = tmp_path / "out"
    assert main([*COMMANDS[command], *source, "--out", str(out)]) == 0
    assert _digest(out) == GOLDEN[f"{corpus}/{command}"]


@pytest.mark.parametrize("corpus", sorted(CORPORA))
def test_evaluate_output_matches_golden_digest(tmp_path, corpus):
    source, sidecar = _corpus(tmp_path, corpus)
    report, out = tmp_path / "report.json", tmp_path / "out"
    assert main(["detect", *source, "--out", str(report)]) == 0
    assert main(["evaluate", "--input", str(report), "--ground-truth", str(sidecar),
                 "--out", str(out)]) == 0
    assert _digest(out) == GOLDEN[f"{corpus}/evaluate"]
