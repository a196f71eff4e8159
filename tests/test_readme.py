"""README.md's examples stay valid input: every ```json block is a
config that parses, every ``sirskit ...`` line of a code block is a
command line the parser accepts, and every ``--flag`` the text names
exists.  Its lists of certificate and hypothesis keys are the
reports'."""

import argparse
import json
import re
import shlex
from pathlib import Path

from sirskit import ModelParams, certify, check_hypotheses, find_endemic, make_builtin
from sirskit.cli import build_parser
from sirskit.config import parse_config

from conftest import REF

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```", README, flags=re.M | re.S)


def test_readme_json_blocks_are_valid_configs():
    configs = [body for lang, body in BLOCKS if lang == "json"]
    assert configs
    for body in configs:
        parse_config(json.loads(body), source="README.md")


def test_readme_command_lines_parse():
    commands = [line.split("#")[0] for _, body in BLOCKS for line in body.splitlines()
                if line.startswith("sirskit ")]
    assert commands
    for line in commands:
        args = build_parser().parse_args(shlex.split(line)[1:])
        assert callable(args.func), line


def _parser_flags(parser: argparse.ArgumentParser) -> set:
    flags = set()
    for action in parser._actions:
        flags.update(action.option_strings)
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                flags |= _parser_flags(sub)
    return flags


def test_readme_flags_exist():
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", README))
    assert "--out" in named
    assert named <= _parser_flags(build_parser())


# keys the certificate and hypothesis reports no longer have: each
# restated others
DROPPED_KEYS = ("a1_remark_value", "p_minors", "q_minors", "h3_limit_at")


def _listed_keys(heading):
    section = re.search(heading + r"\n\n(.*?)\n\n", README, flags=re.S).group(1)
    return re.findall(r"^- `(\w+)`: ", section, flags=re.M)


def test_readme_lists_every_certificate_key():
    p = ModelParams(**REF)
    f = make_builtin("power", {"k": 0.0008, "q": 2.0})
    keys = certify(p, f, find_endemic(p, f).endemic[0][0]).as_dict()
    assert _listed_keys(r"`certificate`\) has\s+these keys:") == list(keys)
    for key in DROPPED_KEYS:
        assert f"`{key}`" not in README


def test_readme_lists_every_hypothesis_key():
    keys = check_hypotheses(make_builtin("power", {"k": 0.0008, "q": 2.0}), 50.0).as_dict()
    assert _listed_keys(r"`hypotheses`\) has\s+these keys:") == list(keys)
