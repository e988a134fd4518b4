"""Equation solving by program synthesis over tree-rewriting primitives."""

from .equations import (
    Const,
    EquationError,
    Node,
    Var,
    X,
    check_solved,
    equation,
    eval_at,
    is_equation,
    node_count,
    parse_equation_infix,
    parse_prefix,
    render_infix,
    render_prefix,
    replace_subtree,
    subtree_at,
)
from .primitives import EQUATION_PRIMITIVES, PrimitiveError, apply_primitive
from .programs import (
    AbsRef,
    Abstraction,
    Apply,
    EvalError,
    IntLit,
    Lambda,
    Prim,
    ProgramError,
    VarRef,
    evaluate,
    infer_type,
    parse_program,
    program_cost,
    render_program,
)
from .grammar import Library, Production, fit_grammar
from .enumerator import SearchBudget, Task, solve_task
from .compression import (
    CompressionError,
    Pattern,
    best_pattern,
    compress_detailed,
    rewrite_with_abstraction,
    utility,
)
from .metric import (
    MetricError,
    MetricReport,
    Solution,
    c_score,
    dedup_steps,
    extract_steps,
    mean_c_score,
    solution_cost_f,
)
from .corpus import (
    CorpusError,
    GoalOracle,
    SHAPE_FAMILY,
    generate_corpus,
    load_checkpoint,
    load_corpus,
    load_solutions,
    make_task,
    reinstantiate,
    save_checkpoint,
    save_solutions,
    save_tasks,
)
from .training import (
    RunConfig,
    TrainingError,
    TrainingResult,
    evaluate_tasks,
    run_training_loop,
)

__version__ = "0.1.0"
