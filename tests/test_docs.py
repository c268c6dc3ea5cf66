"""docs/manifests.md is checked against the manifests the models build."""

import os

from flnp.models import PRESETS, lstm_manifest, preset, transformer_manifest

MANIFESTS_MD = os.path.join(os.path.dirname(__file__), "..", "docs", "manifests.md")

# sizes no preset dimension takes, rendered as the doc's placeholders
PLACEHOLDERS = {90001: "V", 90002: "P", 90003: "C"}


def render_section(name, mode):
    config = preset(name, vocab_size=90001, max_seq_len=90002, n_classes=90003)
    if config.kind == "lstm":
        specs = lstm_manifest(config)
    else:
        specs = transformer_manifest(config, mode)
    lines = [f"## {name} ({mode})", "", "```"]
    for param, shape, kind in specs:
        dims = "[" + ", ".join(PLACEHOLDERS.get(d, str(d)) for d in shape) + "]"
        lines.append(f"{param:<23}{dims:<15}{kind}")
    return "\n".join(lines + ["```", "", ""])


def test_manifests_doc_matches_code():
    sections = []
    for name, base in PRESETS.items():
        modes = ["classify"] if base["kind"] == "lstm" else ["mlm", "classify"]
        sections += [render_section(name, mode) for mode in modes]
    with open(MANIFESTS_MD, encoding="utf-8") as fh:
        doc = fh.read()
    rendered = doc[doc.index("\n## ") + 1:doc.index("Init kinds:")]
    assert rendered == "".join(sections)
