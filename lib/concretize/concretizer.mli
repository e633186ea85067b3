(** Concretization: abstract spec → concrete spec (paper §3.4, Fig. 6).

    The algorithm follows the paper's pipeline as a fixed point:

    + intersect the user's constraints with constraints from package
      directives, package by package;
    + replace virtual nodes with providers chosen via the provider index
      and site/user policies;
    + consult policies to pin any remaining parameters (version, compiler,
      variants, architecture — children inherit architecture and compiler
      from the package that pulled them in, the root from configuration);
    + re-evaluate conditional ([when=]) dependencies against the new pins,
      and repeat until nothing changes.

    Like Spack's implementation, {!concretize} is greedy: a decision once
    taken is never revisited, and a downstream inconsistency is reported
    as a {!Cerror.t} telling the user what to force (§3.4, §4.5). The
    "better constraint solving" the paper leaves as future work is the
    complete clause backend ({!Backends.Clauses}), which resolves e.g. the
    paper's hwloc example (§4.5) using this run as its oracle. *)

type ctx = Concretizer_intf.ctx = {
  repo : Ospack_package.Repository.t;
  index : Ospack_package.Provider_index.t;
  config : Ospack_config.Config.t;
  compilers : Ospack_config.Compilers.t;
  obs : Ospack_obs.Obs.t;
  compiler_order : Ospack_spec.Ast.compiler_req list;
  facts : (string, Concretizer_intf.fact) Hashtbl.t Lazy.t;
}

val make_ctx :
  ?config:Ospack_config.Config.t ->
  ?obs:Ospack_obs.Obs.t ->
  compilers:Ospack_config.Compilers.t ->
  Ospack_package.Repository.t ->
  ctx
(** Build a context (and the provider index) over a repository. Its
    [compiler_order] is parsed here, once; its policy facts
    ({!Concretizer_intf.fact}) are built on the first solve that reads
    one, greedy or clause encoding.

    When [obs] is an enabled sink (default: {!Ospack_obs.Obs.disabled}),
    every concretization records one span per fixed-point iteration plus
    a finalize span, counters for iterations, constraint merges and policy
    decisions, and one instant annotation (cat
    ["explain"]) per policy decision. *)

val concretize :
  ctx -> Ospack_spec.Ast.t -> (Ospack_spec.Concrete.t, Cerror.t) result
(** Greedy concretization. The root may name a virtual interface
    ([spack install mpi] installs the preferred provider). *)

val concretize_cached :
  ?cache:Ccache.t ->
  ?installed:(Ospack_spec.Ast.t -> Ospack_spec.Concrete.t option) ->
  ctx ->
  Ospack_spec.Ast.t ->
  (Ospack_spec.Concrete.t, Cerror.t) result
(** {!concretize} through the concretization cache's memo
    ({!Ccache.memo}): store-aware reuse when [installed] is given
    ([--reuse]; the callback is typically [Database.find_satisfying]
    plus the §3.2.3 newest-version tie-break), the whole-query memo, the
    memo of failed queries, then a solve stored back. The greedy solve
    adds one layer of its own:

    + {b sub-DAG seeding} — on a miss, pins harvested from earlier
      concretizations prime the fixed point's first iteration
      ([ccache.seeded_pins]), so shared subtrees (the [mvapich2] under
      [mpileaks ^mvapich2]) start from their previous solution rather
      than from scratch. The cache owns the seed map
      ({!Ccache.seed_map}) and a pin is a {!Ospack_spec.Concrete.node},
      so the map is used as it is: {!seed_for} drops only the seeds
      contradicting the query's own constraints, looking up the root's
      name and each [^dep] name. A miss's seed work is
      O((1 + |^deps|) log S) for S seeds, not a pass over the cache.

    Caching is observationally invisible: a hit is byte-identical to the
    cold result (concretization is deterministic and every input is
    covered by the key or the fingerprint), and a seeded fixed point
    converges to the cold answer because only pins are seeded — never
    nodes, edges, or provided sets — so iteration 1 sees exactly the
    cold-start DAG. The bench's [concretize] mode asserts this identity
    over the whole workload suite. *)

val seed_for :
  Ccache.t ->
  Ospack_spec.Ast.t ->
  Ospack_spec.Concrete.node Ospack_spec.Concrete.Smap.t * int
(** The seed a miss on this query starts from, and its size (what
    [ccache.seeded_pins] counts): {!Ccache.seed_map} without each seed
    the query contradicts — the seed for the root's name unless it
    satisfies the root constraint, the seed for a [^dep] name unless it
    satisfies that [^dep] constraint. *)

val concretize_explain :
  ctx ->
  Ospack_spec.Ast.t ->
  (Ospack_spec.Concrete.t * string list, Cerror.t) result
(** Like {!concretize}, additionally returning one human-readable line per
    policy decision the greedy run took (virtual-provider and version
    choices with their candidate counts) — [spack spec --explain]: the
    run's decision trace, each rendered by {!explain_decision}. An
    enabled [ctx.obs] also records each line as a trace annotation
    (cat ["explain"]) when the decision is taken. *)

val concretize_string :
  ctx -> string -> (Ospack_spec.Concrete.t, string) result
(** Parse and concretize; parse and concretization errors are rendered. *)

(** {2 Backend plumbing}

    The pieces below expose the greedy run's internals to the other
    concretizer backends ({!Backends}, {!Clauses}): its decision trace,
    a way to replay it under forced decisions (the clause backend's
    greedy oracle), and the version-ranking policy shared by both. *)

type decision = {
  d_key : string;  (** ["provider:mpi"], ["version:mpich"] *)
  d_alternatives : int;  (** how many candidates the policy ranked *)
  d_chosen : string;  (** human-readable chosen value *)
}

val explain_decision : decision -> string
(** E.g. ["virtual mpi -> mvapich2 (1 of 3 candidates)"]. *)

val run_trace :
  ?obs:Ospack_obs.Obs.t ->
  ?forced:(string * string) list ->
  ctx ->
  (string * int) list ->
  Ospack_spec.Ast.t ->
  (Ospack_spec.Concrete.t, Cerror.t) result * decision list
(** One greedy run, returning both the result and the decision trace in
    the order the decisions were taken. The [(string * int) list] is the
    index-based decision-override list (the [n]-th ranked candidate
    for a key; [[]] is the plain greedy run);
    [forced] overrides decisions by {e value} instead — a pair
    [("provider:mpi", "openmpi")] or [("version:hwloc", "1.9")] forces
    that choice wherever it appears among the ranked candidates. Forced
    values not among the candidates are ignored (the greedy default
    applies). *)

val run_counted :
  ?obs:Ospack_obs.Obs.t ->
  ?forced:(string * string) list ->
  ctx ->
  (string * int) list ->
  Ospack_spec.Ast.t ->
  (Ospack_spec.Concrete.t, Cerror.t) result * decision list * int
(** {!run_trace}, also returning the number of fixed-point iterations
    the run began (what it counts in [concretize.iterations]), so a
    caller can report them without an enabled sink. *)

val rank_versions :
  site_pref:Ospack_version.Vlist.t option ->
  Ospack_package.Package.t ->
  Ospack_version.Vlist.t ->
  Ospack_version.Version.t list
(** The version-preference policy: candidates best-first (within
    [site_pref], then package-preferred, then newest), restricted to the
    constraint; a concrete point constraint is extrapolated when nothing
    is known. Shared with the clause backend so both rank versions
    identically; both take [site_pref] from the context's facts
    ({!Concretizer_intf.package_prefs}). *)
