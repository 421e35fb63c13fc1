"""Byte-level pins of full-registry audit reports and CLI documents.

The digests were recorded from the reference implementation; any change
to a verdict, a statement text, a counterexample, a skip reason or the
serialized layout shows up here as a digest mismatch.
"""

import hashlib
import random

import pytest

from betacover import GenConfig, gen_space, run_audit
from betacover.cli import run_cli
from betacover.generate import sample_crisp_subset, sample_fuzzy_set
from betacover.serialize import dumps, serialize_set, serialize_space


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


AUDIT_DIGESTS = [
    (
        GenConfig(universe_size=4, parameter_count=3, grid_denominator=10, seed=101),
        "8dcd9286fb44ba9a872e6d6badcbda53ad822f1b6f3e127c11cf9126dac8dcfd",
    ),
    (
        GenConfig(universe_size=6, parameter_count=5, grid_denominator=20, seed=202),
        "1a9dad37dc8aa536f13d0b6a804b67903c6ffb412d52f1b2ba5c6bfc6f156989",
    ),
    (
        GenConfig(universe_size=3, parameter_count=3, grid_denominator=20, seed=77),
        "deccb3d1e825bcdcedbd13dd2e6d9f9a7564c0a6f3a845b3cbcbedb01080c944",
    ),
]


@pytest.mark.parametrize("config,digest", AUDIT_DIGESTS, ids=["4x3-g10", "6x5-g20", "3x3-g20"])
def test_full_registry_report_is_pinned(config, digest):
    doc = run_audit(config, trials=150).to_doc()
    doc.pop("wall_time_seconds")
    assert _sha256(dumps(doc)) == digest


CLI_DIGESTS = {
    "neighborhood": "bfb216bf4817636f6178f24380d685e807755cbe663397779aad64f88a049881",
    "approximate-fuzzy-1": "bbb5ab6402e522a740b9dfa9d940822a8db62662f74a40f1d337e3a3850d3d7f",
    "approximate-fuzzy-2": "55c6e72664e2e505d6a8785e056f3a04f1fa04394096601d3008791ccbc75d78",
    "approximate-fuzzy-3": "cb75a4688a7531d03c1633b16f690399fb96992c98229eb0644923387cac6020",
    "approximate-fuzzy-4": "9128847999ae2890baaa615c2bfea23a4ffb24de6bf214c374efdd6da67ef01f",
    "approximate-crisp-1": "e9cc6c745f42bbf1463de77b7ad48533e6de9ad4872cd5ad3e8c0c25f225f703",
    "approximate-crisp-2": "9ef7849712efde9c5dafba058eef8c4c613e77deda759087249cd77565540fc4",
    "approximate-crisp-3": "9f360c9a478945eab696a6b963a81e293655e715c2fb44ed3eb877cc131a0198",
    "approximate-crisp-4": "ddba263c50ee928ea3c3d1892df99eb4cf49318410445741b4d6f2ec67cc9f05",
}


@pytest.fixture(scope="module")
def cli_documents(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    space = gen_space(
        GenConfig(universe_size=7, parameter_count=4, grid_denominator=12, seed=2024)
    )
    rng = random.Random("golden-cli")
    paths = {"space": root / "space.json"}
    paths["space"].write_text(serialize_space(space), encoding="utf-8")
    for mode, target in (
        ("fuzzy", sample_fuzzy_set(space.universe, rng, 12)),
        ("crisp", sample_crisp_subset(space.universe, rng)),
    ):
        paths[mode] = root / f"{mode}.json"
        paths[mode].write_text(serialize_set(target), encoding="utf-8")
    return paths


def _cli_stdout(capsys, argv):
    assert run_cli(argv) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("name", sorted(CLI_DIGESTS))
def test_cli_document_is_pinned(name, cli_documents, capsys):
    space = str(cli_documents["space"])
    if name == "neighborhood":
        argv = ["neighborhood", space, "--matrix"]
    else:
        _, mode, kind = name.split("-")
        argv = ["approximate", space, "--kind", kind, "--mode", mode,
                "--set", str(cli_documents[mode])]
    assert _sha256(_cli_stdout(capsys, argv)) == CLI_DIGESTS[name]
