"""docs/manifests.md and README's config fields are checked against the code."""

import dataclasses
import os
import re

from flnp.data import MaskingConfig
from flnp.experiment.config import ExperimentConfig
from flnp.models import PRESETS, lstm_manifest, preset, transformer_manifest

MANIFESTS_MD = os.path.join(os.path.dirname(__file__), "..", "docs", "manifests.md")
README_MD = os.path.join(os.path.dirname(__file__), "..", "README.md")

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


def test_readme_names_every_config_field():
    with open(README_MD, encoding="utf-8") as fh:
        readme = fh.read()
    start = readme.index("## Experiment configuration")
    section = readme[start:readme.index("\n## ", start + 1)]
    named = set(re.findall(r"`([a-z_]+)`", section))
    for cls in (ExperimentConfig, MaskingConfig):
        missing = [f.name for f in dataclasses.fields(cls) if f.name not in named]
        assert not missing, f"README's Experiment configuration omits {cls.__name__} {missing}"
