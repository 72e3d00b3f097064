import importlib.util
import subprocess
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "size", Path(__file__).resolve().parents[1] / "tools" / "size.py")
size = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(size)

# 9 lines and 8 def parameters: 5 for f, 2 for g, 1 for m; the lambda's 2 do not count
_MODULE = '''def f(a, b=1, *args, c, **kwargs):
    return lambda x, y: x


async def g(p, /, q):
    pass
class K:
    def m(self):
        pass
'''


def _git(root, *args):
    subprocess.run(["git", "-c", "user.name=size", "-c", "user.email=size@example.com",
                    *args], cwd=root, check=True, capture_output=True)


def test_counts_of_a_known_package(tmp_path, monkeypatch, capsys):
    package = tmp_path / "src" / "perpca"
    package.mkdir(parents=True)
    (package / "a.py").write_text(_MODULE)
    (package / "b.py").write_text("def h():\n    pass\n")
    (package / "notes.txt").write_text("not\ncounted\n")
    _git(tmp_path, "init", "-q")
    _git(tmp_path, "add", "-A")
    _git(tmp_path, "commit", "-q", "-m", "base")
    (package / "b.py").write_text("def h(z, *, w):\n    pass\n\n\n")
    monkeypatch.chdir(tmp_path)
    size.main([])
    assert capsys.readouterr().out == (
        "src/perpca in the working tree: 13 lines, 10 def parameters\n")
    size.main(["--base", "HEAD"])
    assert capsys.readouterr().out == (
        "src/perpca at HEAD: 11 lines, 8 def parameters\n"
        "src/perpca in the working tree: 13 lines, 10 def parameters\n"
        "change: +2 lines, +2 def parameters\n")
