"""docs/manifests.md, docs/wire-format.md and README's config fields are checked against the code."""

import dataclasses
import os
import re

from flnp.data import MaskingConfig, PartitionSpec
from flnp.experiment.config import DataConfig, ExperimentConfig, Seeds
from flnp.models import PRESETS, lstm_manifest, preset, transformer_manifest
from flnp.transport.codec import BODY_LAYOUT, MSG_CODES

MANIFESTS_MD = os.path.join(os.path.dirname(__file__), "..", "docs", "manifests.md")
WIRE_FORMAT_MD = os.path.join(os.path.dirname(__file__), "..", "docs", "wire-format.md")
README_MD = os.path.join(os.path.dirname(__file__), "..", "README.md")

# sizes no preset dimension takes, rendered as the doc's placeholders
PLACEHOLDERS = {90001: "V", 90002: "P"}


def render_section(name, mode):
    config = preset(name, vocab_size=90001, max_seq_len=90002)
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
    for cls in (ExperimentConfig, MaskingConfig, DataConfig, Seeds, PartitionSpec):
        missing = [f.name for f in dataclasses.fields(cls) if f.name not in named]
        assert not missing, f"README's Experiment configuration omits {cls.__name__} {missing}"


def doc_section(path, heading):
    """Text under `heading` up to the next second-level heading."""
    with open(path, encoding="utf-8") as fh:
        doc = fh.read()
    start = doc.index(f"\n## {heading}\n")
    return doc[start:doc.index("\n## ", start + 1)]


def render_type_codes():
    lines = ["| code | message       |", "|------|---------------|"]
    lines += [f"| {code:<4} | {cls.__name__:<13} |" for cls, code in MSG_CODES.items()]
    return "\n".join(lines)


def render_message_bodies():
    def line(cls):
        fields = " ".join(f"{name}:{getattr(kind, '__name__', kind)}"
                          for name, kind in BODY_LAYOUT[cls])
        return f"{cls.__name__:<13} = {fields}"
    return "\n".join(line(cls) for cls in BODY_LAYOUT)


def test_wire_format_type_codes_match_code():
    section = doc_section(WIRE_FORMAT_MD, "Type codes")
    table = "\n".join(line for line in section.splitlines() if line.startswith("|"))
    assert table == render_type_codes()


def test_wire_format_message_bodies_match_code():
    section = doc_section(WIRE_FORMAT_MD, "Message bodies")
    block = section.split("```\n")[1]
    assert block == render_message_bodies() + "\n"
