"""The package's public names, pinned: adding or removing one is a deliberate edit here."""

import types

import fedledger

PUBLIC_API = [
    "AxiomReport",
    "Block",
    "CoalitionGame",
    "ContentStore",
    "Dataset",
    "FederationConfig",
    "FunctionGame",
    "LocalUpdateTx",
    "Metrics",
    "ModelParams",
    "PartitionPlan",
    "RoundReport",
    "RunResult",
    "SelectionPolicy",
    "ShapleyResult",
    "SmoteConfig",
    "TrainConfig",
    "UtilityGame",
    "ValidatorPanel",
    "append_block",
    "average",
    "check_axioms",
    "cross_verify",
    "evaluate",
    "exact_shapley",
    "export_chain",
    "gradient",
    "imbalance_stats",
    "import_chain",
    "init_params",
    "init_round0",
    "knn_minority",
    "load_csv",
    "local_train",
    "loss",
    "majority_global",
    "partition",
    "predict_batch",
    "run",
    "run_round",
    "select_by_contribution",
    "select_greedy",
    "select_random",
    "smote",
    "split",
    "tmc_shapley",
    "validate_chain",
]


def test_public_names_are_pinned():
    # the names __init__ imports; its submodules are the package layout, not API
    names = sorted(
        name for name, obj in vars(fedledger).items()
        if not name.startswith("_") and not isinstance(obj, types.ModuleType)
    )
    assert names == PUBLIC_API
