"""redustat: statement-level failing-test reduction and replication statistics.

The pieces compose in one line each: parse or ingest a test into a statement
tree, point an oracle at it, reduce, and feed the outcomes to the metrics and
statistics layers. See the README for the CLI surface.
"""

from .model import (
    Category,
    NotAncestorClosedError,
    StatementNode,
    StmtKind,
    TestCaseAst,
    count_categories,
    render,
)
from .parser import StatementSyntaxError, UnsupportedConstructError, parse_test
from .ingest import CycleError, SchemaError, ingest_tree
from .oracle import (
    MatchPolicy,
    OracleConfig,
    OracleVerdict,
    OriginalDoesNotFailError,
    OracleSpawnError,
    ScriptedOracle,
    VerdictStatus,
    baseline_signature,
    evaluate,
    normalize_signature,
)
from .reducer import ReductionOutcome, reduce_test, verify_one_minimal
from .metrics import (
    CountMismatchError,
    EmptyCorpusError,
    aggregate_means,
    compute_metrics,
    metrics_from_reduction,
    read_records_csv,
)
from .stats import (
    AllZeroDifferencesError,
    ConstantInputError,
    StatsMethod,
    StatsResult,
    shapiro_wilk,
    wilcoxon_signed_rank,
)
from .reports import (
    ReportBundle,
    boxplot_table,
    five_number_summary,
    stats_block,
)
from .replicate import replicate_from_fixtures
from .corpus import CorpusConfig, CorpusEntry, load_corpus_config, run_corpus

__version__ = "0.1.0"
