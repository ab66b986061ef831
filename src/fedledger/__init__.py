"""fedledger: a deterministic simulator for ledger-backed federated learning.

Organizations train a shared fraud classifier on private shards; a
simulated permissioned ledger stores 256-bit digests of their updates
(payloads live in a content-addressed off-chain store), validators
cross-verify and vote on aggregated candidates, and per-round Shapley
values meter each organization's contribution, driving client selection.

Everything is seeded and bit-reproducible: two runs with the same
configuration produce identical metric files and identical chains.
"""

from .data import (
    Dataset,
    PartitionPlan,
    SmoteConfig,
    imbalance_stats,
    knn_minority,
    load_csv,
    partition,
    smote,
    split,
)
from .federation import (
    FederationConfig,
    RoundReport,
    RunResult,
    init_round0,
    run,
    run_round,
)
from .ledger import (
    Block,
    ContentStore,
    LocalUpdateTx,
    ValidatorPanel,
    append_block,
    cross_verify,
    export_chain,
    import_chain,
    majority_global,
    validate_chain,
)
from .model import (
    Metrics,
    ModelParams,
    TrainConfig,
    average,
    evaluate,
    gradient,
    init_params,
    local_train,
    loss,
    predict_batch,
)
from .selection import (
    SelectionPolicy,
    select_by_contribution,
    select_greedy,
    select_random,
)
from .valuation import (
    AxiomReport,
    CoalitionGame,
    FunctionGame,
    ShapleyResult,
    UtilityGame,
    check_axioms,
    exact_shapley,
    tmc_shapley,
)

__version__ = "0.1.0"
