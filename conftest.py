import importlib.machinery
import importlib.util
import shlex
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent

# Allow running the test suite from a source checkout without installing.
sys.path.insert(0, str(REPO / "src"))

from topocompat._kernels import active_backend  # noqa: E402

EXT_NAME = "topocompat._kernels._ckernels"
# the compiler setup.py would build the extension with
CC = shlex.split(sysconfig.get_config_var("CC") or "cc")[0]


def ckernels_plan():
    """How the parity tests get the compiled kernels: (action, reason).

    action is "import" (the extension is importable), "build" (a C compiler
    is on PATH to build it) or "skip".
    """
    if active_backend() == "compiled":
        return "import", "the extension is importable"
    if shutil.which(CC):
        return "build", f"the extension is built from _ckernels.c with {CC}"
    return "skip", f"compiled kernels not built and no C compiler ({CC!r}) found to build them"


def pytest_report_header(config):
    action, reason = ckernels_plan()
    return f"topocompat kernels: {active_backend()} backend; parity tests {action}: {reason}"


def _build_extension(out: Path):
    """Compile the extension under out and import it from there.

    The C is written by hand, so a compiler warning for it fails the build.
    """
    build = subprocess.run(
        [sys.executable, "setup.py", "build_ext",
         "--build-lib", str(out), "--build-temp", str(out / "temp")],
        cwd=REPO, check=True, capture_output=True, text=True,
    )
    warnings = [line for line in (build.stdout + build.stderr).splitlines()
                if "_ckernels.c" in line and "warning:" in line]
    if warnings:
        pytest.fail("compiler warnings for _ckernels.c:\n" + "\n".join(warnings))
    ext_dir = out / "topocompat" / "_kernels"
    built = [p for suffix in importlib.machinery.EXTENSION_SUFFIXES
             for p in ext_dir.glob("_ckernels" + suffix)]
    if not built:
        pytest.fail(f"a C compiler is present but the build left no extension in {ext_dir}")
    spec = importlib.util.spec_from_file_location(EXT_NAME, built[0])
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def ckernels(tmp_path_factory):
    """The compiled kernels: imported, or built into a temp dir, or skipped."""
    action, reason = ckernels_plan()
    if action == "import":
        from topocompat._kernels import _ckernels

        return _ckernels
    if action == "skip":
        pytest.skip(reason)
    return _build_extension(tmp_path_factory.mktemp("ckernels"))
