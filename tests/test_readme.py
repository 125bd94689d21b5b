"""The examples of README.md work as written: its python blocks run, in
order, in one namespace, its JSON manifests validate, its shelab command
lines parse, and its lists of verbs and flags are the CLI's."""

import json
import re
import shlex
from pathlib import Path

from shelab import cli, experiments

README = Path(__file__).resolve().parents[1] / "README.md"


def blocks(lang):
    return re.findall(rf"```{lang}\n(.*?)```", README.read_text(), flags=re.S)


def test_python_blocks_run_as_written():
    assert blocks("python")
    namespace = {"__name__": "readme"}
    for block in blocks("python"):
        exec(compile(block, str(README), "exec"), namespace)


def test_json_manifest_validates():
    (manifest,) = blocks("json")
    assert experiments.validate_manifest(json.loads(manifest)) == []


def test_inline_manifests_validate():
    inline = re.findall(r'`(\{"version": .*?\})`', README.read_text())
    assert [next(iter(json.loads(m)["analysis"])) for m in inline] == ["dalang", "oracle"]
    for manifest in inline:
        assert experiments.validate_manifest(json.loads(manifest)) == []


def test_verb_lists_agree():
    # the CLI, the analysis table, the schema and the README name one set of verbs
    line = re.search(r"^Verbs: (.*?)\.  ", README.read_text(), flags=re.S | re.M).group(1)
    readme = set(re.findall(r"`([a-z-]+)`", line)) - {"report"}
    table = {verb.replace("_", "-") for verb in experiments._ANALYSES}
    schema = {verb.replace("_", "-") for verb in experiments._schema()["properties"]["analysis"]["properties"]}
    assert set(cli.VERBS) == table == schema == readme


def test_flag_lists_agree():
    # every --flag the README names, in prose or on a shelab command line, is
    # an option of a CLI verb, and it names every option of the run verbs;
    # the install lines name pip's flags, not shelab's
    prose = re.sub(r"```sh\n.*?```", "", README.read_text(), flags=re.S)
    commands = [line for block in blocks("sh") for line in block.splitlines() if line.startswith("shelab ")]
    readme = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", "\n".join([prose, *commands])))
    sub = next(a for a in cli.build_parser()._actions if a.dest == "verb")
    options = {verb: {o for a in p._actions for o in a.option_strings} for verb, p in sub.choices.items()}
    assert readme <= set().union(*options.values())
    assert set().union(*(options[verb] for verb in cli.VERBS)) - {"-h", "--help"} <= readme


def test_command_lines_parse():
    lines = [line for block in blocks("sh") for line in block.splitlines() if line.startswith("shelab ")]
    assert lines
    for line in lines:
        cli.build_parser().parse_args(shlex.split(line)[1:])
