"""The README's Quick-start block runs as written, so a change to the
API it calls shows here rather than in a reader's first session."""

import inspect
import json
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quick_start_runs(capsys):
    text = README.read_text(encoding="utf-8")
    section = text.split("## Quick start", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, "README.md#quick-start", "exec"), {})
    printed = capsys.readouterr().out.split()
    assert len(printed) == 1 and 0.0 < float(printed[0]) < 1.0


def _schema_table() -> dict:
    """kind -> {key: default text} from its README schema row, where a
    row's third cell reads "`key` default, `key` default, ..."."""
    text = README.read_text(encoding="utf-8")
    section = text.split("### Config schemas", 1)[1].split("\n#", 1)[0]
    table = {}
    for line in section.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) != 3 or not cells[1].startswith("`"):
            continue                  # header, rule or text
        defaults = dict(re.findall(r"`([^`]+)` ([^`]*?)(?:, (?=`)|$)",
                                   cells[2]))
        for kind in re.findall(r"`([^`]+)`", cells[0]):
            table[kind] = defaults
    return table


def test_schema_table_lists_each_kinds_keys():
    from cmlab import harness

    table = _schema_table()
    assert sorted(table) == sorted(harness._KINDS)
    for kind in harness._KINDS:
        assert set(table[kind]) == set(harness._fields(kind)) - {"seed"}, kind


def test_schema_table_gives_each_cores_defaults():
    # a default is written as JSON, except the distribution's, in prose
    from cmlab import harness

    for kind, defaults in _schema_table().items():
        params = inspect.signature(harness._KINDS[kind]).parameters
        for key, text in defaults.items():
            if key == "distribution":
                continue
            default = params[key].default
            if isinstance(default, tuple):
                default = list(default)
            assert json.loads(text) == default, (kind, key, text)
