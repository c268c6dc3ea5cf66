"""docs/manifests.md, docs/wire-format.md and README are checked against the code."""

import ast
import dataclasses
import glob
import os
import re

from flnp.data import MaskingConfig, PartitionSpec
from flnp.experiment.config import DataConfig, ExperimentConfig, Seeds
from flnp.models import PRESETS, lstm_manifest, preset, transformer_manifest
from flnp.transport.codec import BODY_LAYOUT, MSG_CODES

MANIFESTS_MD = os.path.join(os.path.dirname(__file__), "..", "docs", "manifests.md")
WIRE_FORMAT_MD = os.path.join(os.path.dirname(__file__), "..", "docs", "wire-format.md")
README_MD = os.path.join(os.path.dirname(__file__), "..", "README.md")
SRC = os.path.join(os.path.dirname(__file__), "..", "src")

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


def _literal_codes(node, assigned):
    """The string codes `node` can take: a literal, both branches of a conditional, or a local."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return {node.value}
    if isinstance(node, ast.IfExp):
        return _literal_codes(node.body, assigned) | _literal_codes(node.orelse, assigned)
    if isinstance(node, ast.Name) and node.id in assigned:
        return set().union(*(_literal_codes(value, assigned) for value in assigned[node.id]))
    raise AssertionError(f"no literal code in {ast.unparse(node)}")


def raised_codes(*classes):
    """Every code `src/` passes to a constructor of `classes`, forwarded `x.code`s aside."""
    codes = set()
    for path in sorted(glob.glob(os.path.join(SRC, "**", "*.py"), recursive=True)):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            assigned = {}
            for node in ast.walk(fn):
                if isinstance(node, ast.Assign):
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            assigned.setdefault(target.id, []).append(node.value)
            for node in ast.walk(fn):
                if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                        and node.func.id in classes):
                    continue
                code = node.args[0]
                if not (isinstance(code, ast.Attribute) and code.attr == "code"):
                    codes |= _literal_codes(code, assigned)
    return codes


def test_readme_tables_every_protocol_error_code():
    section = doc_section(README_MD, "Protocol error codes")
    rows = [[cell.strip() for cell in line.strip("|").split("|")]
            for line in section.splitlines() if line.startswith("| `")]
    assert {code.strip("`") for code, _meaning, _exit in rows} == raised_codes("ProtocolError", "ErrorMsg")
    assert {exit_code for _code, _meaning, exit_code in rows} == {"1"}


def test_wire_format_lists_every_decode_error_code():
    with open(WIRE_FORMAT_MD, encoding="utf-8") as fh:
        listed = re.search(r"typed `DecodeError` \(([^)]*)\)", fh.read()).group(1)
    assert set(re.findall(r"`([a-z_]+)`", listed)) == raised_codes("DecodeError")
