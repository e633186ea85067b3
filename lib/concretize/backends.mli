(** The two concretizer backends and the clause backend's CEGAR loop.

    Both take an abstract spec to a concrete one under the same
    {!Concretizer_intf.ctx}, and {!solve_full} reports either one as a
    {!Concretizer_intf.outcome}:

    - {!Greedy} — the paper's greedy fixed point, one run of
      {!Concretizer.run_trace}; on failure its decision trace is reported
      as a pseudo-core (the blocked decision path: one line per decision,
      then ["blocked: "] and the error).
    - {!Clauses} — the complete solver: counterexample-guided
      abstraction refinement over the {!Clauses} encoding. Round 0 is a
      pure greedy run (so whenever greedy succeeds both backends return
      byte-identical results — greedy success is preference-optimal by
      construction). On greedy failure the problem is encoded and solved
      with {!Solver}; each model is validated by replaying it through
      the greedy oracle with forced decisions, oracle rejections become
      blocking clauses, and encoding-UNSAT yields a minimized,
      human-readable unsat core. The returned typed error is always the
      first greedy run's (the encoding is a relaxation, so
      encoding-UNSAT implies greedy-UNSAT); when the encoder cannot
      express a problem, the core is round 0's blocked decision path.

    Neither consults the concretization cache; cached paths wrap a
    backend's {!solve} in {!Ccache.memo}. Counters mirror into
    [ctx.obs]: [solver.decisions], [solver.propagations],
    [solver.conflicts] and [solver.restarts] for the clause solver, the
    [concretize.*] names for every greedy run. *)

(** Which concretizer implementation to use. *)
type t =
  | Greedy  (** the paper's greedy fixed point: one run, never revisited *)
  | Clauses  (** complete clause-based solver with unsat cores *)

val to_string : t -> string
val of_string : string -> t option
val all : t list

val solve :
  t ->
  Concretizer_intf.ctx ->
  Ospack_spec.Ast.t ->
  (Ospack_spec.Concrete.t, Cerror.t) result
(** Concretize with the given backend, uncached. *)

val solve_full :
  t -> Concretizer_intf.ctx -> Ospack_spec.Ast.t -> Concretizer_intf.outcome
(** Like {!solve}, additionally reporting the search statistics and, on
    failure, the conflict chain. *)

val explanation :
  t -> Concretizer_intf.outcome -> Cerror.explanation option
(** The rendered conflict explanation of a failed outcome ([None] on
    success): the unsat core or blocked decision path with the typed
    error. *)
