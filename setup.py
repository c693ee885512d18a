"""Build script for the optional compiled search kernels.

The extension is an accelerator, not a requirement: it is one hand-written C
file, ``_ckernels.c``, and if no C compiler is present, or the build fails,
the build is skipped and the package falls back to the pure-Python kernels
at import time.
"""

import os

from setuptools import Extension, setup
from setuptools.command.build_ext import build_ext
from setuptools.errors import CCompilerError, ExecError, PlatformError

C_SRC = os.path.join("src", "topocompat", "_kernels", "_ckernels.c")


class OptionalBuildExt(build_ext):
    """Tolerate a missing or broken compiler; the pure backend still works."""

    def run(self):
        try:
            super().run()
        except (PlatformError, FileNotFoundError) as exc:
            self._skip(exc)

    def build_extension(self, ext):
        try:
            super().build_extension(ext)
        except (CCompilerError, ExecError, PlatformError, FileNotFoundError) as exc:
            self._skip(exc)

    @staticmethod
    def _skip(exc):
        print(f"WARNING: building the compiled kernels failed ({exc}); "
              f"falling back to the pure-Python implementation")


setup(
    ext_modules=[Extension("topocompat._kernels._ckernels", [C_SRC], extra_compile_args=["-O3"])],
    cmdclass={"build_ext": OptionalBuildExt},
)
