"""redustat: statement-level failing-test reduction and replication statistics.

The namespace holds the README example's four names, which parse a test,
script its oracle, reduce it and count its removals, and
``load_corpus_config``. Every other name comes from its module (see the
README's Layout), and the CLI is ``redustat.cli``.
"""

from .parser import parse_test
from .oracle import ScriptedOracle
from .reducer import reduce_test
from .metrics import metrics_from_reduction
from .corpus import load_corpus_config

__version__ = "0.1.0"
