"""`tools/pipeline_hash.py`, the bit-identity check of the float pipeline,
run on two inputs so that it keeps working as the library changes."""

import re
import runpy
from pathlib import Path

from skeinlab import DEPTH3_DELTA

TOOL = runpy.run_path(str(Path(__file__).resolve().parent.parent / "tools" / "pipeline_hash.py"))
DIGEST = re.compile(r"[0-9a-f]{64}")


def test_the_pipeline_hash_covers_each_input_in_order():
    count, digest = TOOL["pipeline_hash"]((DEPTH3_DELTA, 4.0 + 1e-12))
    assert count == 2 and DIGEST.fullmatch(digest)
    assert TOOL["pipeline_hash"]((4.0 + 1e-12, DEPTH3_DELTA))[1] != digest


def test_the_engine_hash_covers_each_locus():
    count, digest = TOOL["engine_hash"]((5.0, DEPTH3_DELTA))
    assert count == 2 and DIGEST.fullmatch(digest)
    assert TOOL["engine_hash"]((5.0,))[1] != digest


# The float pipeline's and the skein engine's outputs, bit for bit.  A
# change that moves bits on purpose re-records these two values and says
# which outputs moved.
PIPELINE_HASH = (698, "395e5e0cf3c90803c35f8093eeb3d65b3e08c5a82c858b712b9a173388b0e214")
ENGINE_HASH = (4, "cb7fb5d1e2d024ed4911f58a8fe71cfee6bfe281f49962926ed0f8d8d2a2a35c")


def test_the_full_hashes_are_pinned():
    assert TOOL["pipeline_hash"]() == PIPELINE_HASH
    assert TOOL["engine_hash"]() == ENGINE_HASH
