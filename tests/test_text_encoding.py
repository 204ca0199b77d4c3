"""Every text file the library reads or writes is UTF-8, whatever the locale.

The source check reads src/gesbn/*.py with ast: every open() call names
its encoding, since open() with none uses the locale's. The CLI checks run
`gesbn learn`, `gesbn score` and `gesbn oracle` in new interpreters under
an ASCII locale (LC_ALL=C, with Python's UTF-8 mode and locale coercion
off) on files that name a non-ASCII variable, which `oracle --ci` can
name on the command line; stdout is UTF-8 too.
"""

import ast
import glob
import json
import os
import subprocess
import sys

from test_harness import SRC

from gesbn.graphs import VariableSpec
from gesbn.scoring import load_schema

ASCII_LOCALE = {"LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"}
UTF8_LOCALE = {"LC_ALL": "C.UTF-8", "PYTHONUTF8": "1"}
CSV = "\xc4,B\n" + "0,0\n1,1\n" * 20 + "0,1\n1,0\n"


def open_calls_without_encoding():
    """(file, line) of every open() call in the library that names no encoding."""
    out = []
    for path in sorted(glob.glob(os.path.join(SRC, "gesbn", "*.py"))):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), path)
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "open"
                    and not any(k.arg == "encoding" for k in node.keywords)):
                out.append((os.path.basename(path), node.lineno))
    return out


def test_every_library_open_names_its_encoding():
    assert open_calls_without_encoding() == []


def gesbn(locale, *args) -> subprocess.CompletedProcess:
    """`gesbn args` in a new interpreter on this checkout, under locale."""
    return subprocess.run(
        [sys.executable, "-m", "gesbn.cli", *args],
        env=dict(os.environ, PYTHONPATH=SRC, **locale),
        capture_output=True, check=False, timeout=60,
    )


class TestAsciiLocale:
    def test_learn_writes_utf8_and_score_reads_it(self, tmp_path):
        data = tmp_path / "d.csv"
        data.write_bytes(CSV.encode("utf-8"))
        out = tmp_path / "out\xe9"  # printed as the bytes it was given
        learn = gesbn(ASCII_LOCALE, "learn", "--data", str(data), "--infer-schema",
                      "--out", str(out))
        assert learn.returncode == 0, learn.stderr
        assert learn.stdout == b"learned class written to " + os.fsencode(out / "class.txt") + b"\n"
        assert (out / "class.txt").read_bytes() == "# vars: \xc4 B\n\xc4 -- B\n".encode("utf-8")
        scores = [
            gesbn(locale, "score", "--data", str(data), "--infer-schema",
                  "--graph", str(out / "class.txt"))
            for locale in (ASCII_LOCALE, UTF8_LOCALE)
        ]
        assert [s.returncode for s in scores] == [0, 0], [s.stderr for s in scores]
        assert scores[0].stdout == scores[1].stdout
        assert scores[0].stdout.startswith(b"bdeu score: ")

    def test_score_reads_a_utf8_schema(self, tmp_path):
        data = tmp_path / "d.csv"
        data.write_bytes(CSV.encode("utf-8"))
        schema = tmp_path / "d.schema.json"
        # written by hand: save_schema would escape the name to ASCII
        schema.write_bytes(
            '{"variables": [{"name": "\xc4", "cardinality": 2}, '
            '{"name": "B", "cardinality": 2}]}\n'.encode("utf-8")
        )
        assert load_schema(schema) == VariableSpec(("\xc4", "B"), (2, 2))
        graph = tmp_path / "g.txt"
        graph.write_bytes(b"")  # the empty class: only the schema names \xc4
        scores = [
            gesbn(locale, "score", "--data", str(data), "--schema", str(schema),
                  "--graph", str(graph))
            for locale in (ASCII_LOCALE, UTF8_LOCALE)
        ]
        assert [s.returncode for s in scores] == [0, 0], [s.stderr for s in scores]
        assert scores[0].stdout == scores[1].stdout

    def test_oracle_prints_a_non_ascii_name(self, tmp_path):
        gen = tmp_path / "gen"
        made = gesbn(UTF8_LOCALE, "generate", "--gold", "w", "--m", "0", "--out", str(gen))
        assert made.returncode == 0, made.stderr
        model = json.loads((gen / "model.json").read_text(encoding="utf-8"))
        renamed = json.dumps(model).replace('"X1"', json.dumps("\xc4"))
        assert renamed.count('"\\u00c4"') == 3  # its entry, its edge and its CPT
        (tmp_path / "model.json").write_text(renamed, encoding="utf-8")
        runs = [gesbn(locale, "oracle", "--model", str(tmp_path / "model.json"))
                for locale in (ASCII_LOCALE, UTF8_LOCALE)]
        assert [r.returncode for r in runs] == [0, 0], [r.stderr for r in runs]
        assert runs[0].stdout == runs[1].stdout
        assert "\xc4 -> X2".encode("utf-8") in runs[0].stdout

    def test_oracle_ci_names_a_non_ascii_variable(self, tmp_path):
        # argv arrives surrogate-escaped under an ASCII locale; the name is
        # read from its bytes as UTF-8, as the model file's names are
        gen = tmp_path / "gen"
        made = gesbn(UTF8_LOCALE, "generate", "--gold", "w", "--m", "0", "--out", str(gen))
        assert made.returncode == 0, made.stderr
        model = (gen / "model.json").read_text(encoding="utf-8")
        (tmp_path / "model.json").write_text(model.replace('"X1"', json.dumps("\xc4")),
                                             encoding="utf-8")
        runs = [gesbn(locale, "oracle", "--model", str(tmp_path / "model.json"),
                      "--ci", "\xc4,X3|X2", "--ci", "X3, \xc4")
                for locale in (ASCII_LOCALE, UTF8_LOCALE)]
        assert [r.returncode for r in runs] == [0, 0], [r.stderr for r in runs]
        assert runs[0].stdout == runs[1].stdout
        lines = runs[0].stdout.decode("utf-8").splitlines()
        assert lines[-2].startswith("ci \xc4,X3|X2: ")
        assert lines[-1].startswith("ci X3, \xc4: ")


def test_the_cli_runs_with_stdout_closed(tmp_path):
    # with fd 1 closed, sys.stdout is None and print() writes nothing
    made = subprocess.run(
        [sys.executable, "-m", "gesbn.cli", "generate", "--gold", "w", "--m", "10",
         "--out", str(tmp_path)],
        env=dict(os.environ, PYTHONPATH=SRC), preexec_fn=lambda: os.close(1),
        stderr=subprocess.PIPE, check=False, timeout=60,
    )
    assert made.returncode == 0, made.stderr
    assert (tmp_path / "data.csv").read_bytes().startswith(b"X1,X2,X3,X4\r\n")
